package conform

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "regenerate the golden fixtures")

// testCtx is shared across the package's tests so each expensive artifact
// is simulated exactly once per `go test` invocation.
var testCtx = NewCtx(Config{Seed: DefaultSeed})

const goldenDir = "testdata/golden"

// updateGolden regenerates one fixture file under dir (the -update path).
func updateGolden(c *Ctx, dir, name string) error {
	b, err := MarshalGolden(c, name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), b, 0o644)
}

// compareGoldenDir checks one golden against the fixture file on disk,
// which is what the package tests use so a freshly -updated fixture is
// honored without rebuilding the embedding.
func compareGoldenDir(c *Ctx, dir, name string) []Violation {
	fixture, err := os.ReadFile(filepath.Join(dir, name+".json"))
	if err != nil {
		return []Violation{{Check: "golden/" + name,
			Msg: fmt.Sprintf("missing fixture (run tests with -update): %v", err)}}
	}
	return CompareGoldenAgainst(c, name, fixture)
}

// TestGoldens compares (or with -update regenerates) every fixture. It
// reads from disk rather than the embedded copy so that an -update run
// immediately satisfies the comparison without recompiling.
func TestGoldens(t *testing.T) {
	for _, name := range GoldenNames() {
		t.Run(name, func(t *testing.T) {
			if *update {
				if err := updateGolden(testCtx, goldenDir, name); err != nil {
					t.Fatalf("update %s: %v", name, err)
				}
				return
			}
			for _, v := range compareGoldenDir(testCtx, goldenDir, name) {
				t.Error(v)
			}
		})
	}
}

// TestUpdateIsIdempotent proves the acceptance criterion that -update on an
// unchanged tree regenerates the committed bytes exactly.
func TestUpdateIsIdempotent(t *testing.T) {
	if *update {
		t.Skip("fixtures are being regenerated")
	}
	for _, name := range GoldenNames() {
		fresh, err := MarshalGolden(testCtx, name)
		if err != nil {
			t.Fatalf("marshal %s: %v", name, err)
		}
		committed, err := os.ReadFile(filepath.Join(goldenDir, name+".json"))
		if err != nil {
			t.Fatalf("read fixture %s: %v (generate with -update)", name, err)
		}
		if string(fresh) != string(committed) {
			t.Errorf("golden %s would change under -update; the tree is not byte-stable", name)
		}
	}
}

// TestDiffJSON pins the failure-message format: path into the JSON plus old
// and new value.
func TestDiffJSON(t *testing.T) {
	want := map[string]any{
		"a": 1.0,
		"b": []any{1.0, 2.0, 3.0},
		"c": map[string]any{"x": "old"},
	}
	got := map[string]any{
		"a": 2.0,
		"b": []any{1.0, 2.0},
		"c": map[string]any{"x": "new", "y": true},
	}
	var out []Violation
	diffJSON("t", "$", want, got, &out)
	byPath := map[string]Violation{}
	for _, v := range out {
		byPath[v.Path] = v
	}
	if v, ok := byPath["$.a"]; !ok || v.Got != "2" || v.Want != "1" {
		t.Errorf("$.a diff = %+v", byPath["$.a"])
	}
	if _, ok := byPath["$.b.length"]; !ok {
		t.Errorf("missing array length diff: %v", out)
	}
	if v, ok := byPath["$.c.x"]; !ok || v.Got != `"new"` || v.Want != `"old"` {
		t.Errorf("$.c.x diff = %+v", byPath["$.c.x"])
	}
	if _, ok := byPath["$.c.y"]; !ok {
		t.Errorf("missing new-field diff: %v", out)
	}
}

// TestDiffJSONCapped keeps pathological drifts readable.
func TestDiffJSONCapped(t *testing.T) {
	want := make([]any, 100)
	got := make([]any, 100)
	for i := range want {
		want[i] = float64(i)
		got[i] = float64(i + 1)
	}
	var out []Violation
	diffJSON("t", "$", want, got, &out)
	if len(out) > maxDiffs {
		t.Errorf("got %d violations, cap is %d", len(out), maxDiffs)
	}
}
