package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestSelectArtifacts requires the selection to return every entry for no
// names, the named entries in table order, and an error listing the known
// names for an unknown or a repeated name.
func TestSelectArtifacts(t *testing.T) {
	all := Artifacts()
	seen := map[string]bool{}
	for _, a := range all {
		if seen[a.Name] || a.Name == "" || strings.ContainsAny(a.Name, ", ") {
			t.Errorf("artifact name %q is empty, repeated or holds a separator", a.Name)
		}
		seen[a.Name] = true
	}
	known := artifactNames(all)
	got, err := SelectArtifacts(nil)
	if err != nil || artifactNames(got) != known {
		t.Fatalf("no names: got %s, %v; want every entry", artifactNames(got), err)
	}
	got, err = SelectArtifacts([]string{"population", "table4", "fig6"})
	if want := "fig6, table4, population"; err != nil || artifactNames(got) != want {
		t.Fatalf("got %s, %v; want %s in table order", artifactNames(got), err, want)
	}
	for _, names := range [][]string{{"fig6", "fig99"}, {"fig6", "fig6"}, {""}} {
		_, err := SelectArtifacts(names)
		if err == nil || !strings.Contains(err.Error(), "(known: "+known+")") {
			t.Errorf("%q: err %v, want one listing the known names", names, err)
		}
	}
}

// trainingArtifacts are the entries that train a model; every other entry
// runs in TestArtifactsWithoutTrainingWriteRows.
var trainingArtifacts = map[string]bool{
	"table4": true, "fig17": true, "fig18": true, "table13": true, "table14": true,
	"runtime": true, "ablation-lead": true, "ablation-aggregate": true,
	"ablation-shared": true, "ablation-backbone": true,
	"fig19": true, "fig20": true, "fig21": true, "population": true,
}

// TestArtifactsWithoutTrainingWriteRows renders every entry that trains
// no model and requires at least one row from each.
func TestArtifactsWithoutTrainingWriteRows(t *testing.T) {
	for _, a := range Artifacts() {
		if trainingArtifacts[a.Name] {
			continue
		}
		var out strings.Builder
		if err := a.Run(&out, tinyML()); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		} else if !strings.HasSuffix(out.String(), "\n") {
			t.Errorf("%s (%s) wrote no row: %q", a.Name, a.Title, out.String())
		}
	}
}

// TestDesignIndexNamesArtifacts requires every name in the artifact column
// of DESIGN.md §3, the per-experiment index, to resolve in the table.
func TestDesignIndexNamesArtifacts(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, _ := strings.Cut(string(doc), "\n## 3.")
	sec, _, _ = strings.Cut(sec, "\n## 4.")
	n := 0
	for _, line := range strings.Split(sec, "\n") {
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 2 {
			continue
		}
		col := strings.TrimSpace(cells[len(cells)-1])
		if col == "Artifact" || strings.Trim(col, "-") == "" {
			continue
		}
		for _, name := range strings.Split(col, ",") {
			name = strings.Trim(strings.TrimSpace(name), "`")
			if _, err := SelectArtifacts([]string{name}); err != nil {
				t.Errorf("DESIGN.md §3 cites %q: %v", name, err)
			}
			n++
		}
	}
	if n < 30 {
		t.Fatalf("DESIGN.md §3 names %d artifacts; want the index's artifact column", n)
	}
}
