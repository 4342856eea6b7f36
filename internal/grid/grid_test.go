package grid

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// tinyQoEConfig is a cheap 8-cell grid: no model training, two fault
// severities, two estimators, two streaming apps.
func tinyQoEConfig() *Config {
	return &Config{
		Name: "tiny-qoe", Seed: 5,
		ML: MLParams{Traces: 2, SamplesPerTrace: 40, Stride: 3, Hidden: 4, Epochs: 2, Patience: 1},
		Axes: Axes{
			Operators:  []string{"OpZ"},
			Mobilities: []string{"walking"},
			Severities: []float64{0, 0.5},
			Predictors: []string{"Ideal", "MovingMean"},
			Apps:       []string{"cloudgaming", "vivo"},
		},
	}
}

// tinyPredictConfig is a 2-cell training grid covering the clean and the
// degraded prediction protocols.
func tinyPredictConfig() *Config {
	return &Config{
		Name: "tiny-predict", Seed: 7,
		ML: MLParams{Traces: 2, SamplesPerTrace: 40, Stride: 3, Hidden: 4, Epochs: 2, Patience: 1},
		Axes: Axes{
			Operators:  []string{"OpZ"},
			Mobilities: []string{"walking"},
			Severities: []float64{0, 0.5},
			Predictors: []string{"LSTM"},
		},
	}
}

// readTree loads every regular file under dir, keyed by relative path.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out[rel] = string(b)
		return nil
	})
	if err != nil {
		t.Fatalf("readTree(%s): %v", dir, err)
	}
	return out
}

// sameTree asserts two run directories are byte-identical.
func sameTree(t *testing.T, wantDir, gotDir string) {
	t.Helper()
	want, got := readTree(t, wantDir), readTree(t, gotDir)
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("missing file %s", name)
			continue
		}
		if g != w {
			t.Errorf("file %s differs between runs", name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("extra file %s", name)
		}
	}
}

// TestExpandCrossProduct pins expansion: cell count, canonical axis order,
// sequential indices, unique keys, and the repeat-0-uses-the-base-seed law
// that makes grids reproduce the hard-coded experiments.
func TestExpandCrossProduct(t *testing.T) {
	cfg := &Config{
		Seed: 11, Repeats: 2,
		Axes: Axes{
			Operators:  []string{"OpX", "OpZ"},
			Severities: []float64{0, 0.5},
			Predictors: []string{"LSTM"},
		},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cells := Expand(cfg)
	if len(cells) != 2*2*2 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	keys := map[string]bool{}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
		if keys[c.Key()] {
			t.Fatalf("duplicate key %s", c.Key())
		}
		keys[c.Key()] = true
		if c.Repeat == 0 && c.Seed != cfg.Seed {
			t.Fatalf("repeat 0 seed = %d, want base seed %d", c.Seed, cfg.Seed)
		}
		if c.Repeat == 1 && c.Seed == cfg.Seed {
			t.Fatalf("repeat 1 reused the base seed")
		}
	}
	// Repeat varies fastest; operator slowest.
	if cells[0].Operator != "OpX" || cells[1].Repeat != 1 || cells[4].Operator != "OpZ" {
		t.Fatalf("expansion order wrong: %+v", cells[:5])
	}
	// All cells at one repeat share the derived seed (the seed is an axis
	// value, not per-cell noise).
	if cells[1].Seed != cells[3].Seed {
		t.Fatalf("repeat-1 seeds differ across axis points: %d vs %d", cells[1].Seed, cells[3].Seed)
	}
}

// TestExpandEdgeCases covers single-value axes, zero repeats and explicit
// seed lists.
func TestExpandEdgeCases(t *testing.T) {
	def := &Config{Seed: 3}
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	cells := Expand(def)
	if len(cells) != 1 {
		t.Fatalf("default config expands to %d cells, want 1", len(cells))
	}
	if cells[0].Seed != 3 || cells[0].App != AppPredict || cells[0].Direction != DirDL {
		t.Fatalf("default cell wrong: %+v", cells[0])
	}

	seeds := &Config{Seeds: []uint64{9, 13, 21}}
	if err := seeds.Validate(); err != nil {
		t.Fatal(err)
	}
	cells = Expand(seeds)
	if len(cells) != 3 {
		t.Fatalf("explicit seeds expand to %d cells, want 3", len(cells))
	}
	for i, want := range []uint64{9, 13, 21} {
		if cells[i].Seed != want {
			t.Fatalf("cell %d seed = %d, want %d", i, cells[i].Seed, want)
		}
	}
}

// TestParseRejects pins the typed-error contract on bad configs.
func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, in string
		parseErr bool // else ValidationError
	}{
		{"malformed", `{`, true},
		{"unknown field", `{"axes": {"planets": ["mars"]}}`, true},
		{"unknown axis value", `{"axes": {"operators": ["OpQ"]}}`, false},
		{"trailing garbage", `{} {}`, true},
		{"nan severity", `{"axes": {"severities": [NaN]}}`, true},
		{"huge severity literal", `{"axes": {"severities": [1e999]}}`, true},
		{"severity above one", `{"axes": {"severities": [1.5]}}`, false},
		{"negative severity", `{"axes": {"severities": [-0.1]}}`, false},
		{"empty axis", `{"axes": {"operators": []}}`, false},
		{"duplicate axis value", `{"axes": {"mobilities": ["walking", "walking"]}}`, false},
		{"duplicate seeds", `{"seeds": [4, 4]}`, false},
		{"seeds and repeats", `{"seeds": [4, 5], "repeats": 3}`, false},
		{"seed and seeds", `{"seed": 1, "seeds": [4]}`, false},
		{"negative repeats", `{"repeats": -1}`, false},
		{"bad direction", `{"axes": {"directions": ["sideways"]}}`, false},
		{"bad app", `{"axes": {"apps": ["doom"]}}`, false},
		{"qoe app with model predictor", `{"axes": {"apps": ["vivo"], "predictors": ["LSTM"]}}`, false},
		{"predict app with estimator", `{"axes": {"predictors": ["Ideal"]}}`, false},
		{"grant ratio above one", `{"ul_grant_ratio": 1.5}`, false},
		{"negative ml knob", `{"ml": {"epochs": -2}}`, false},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.in))
		if err == nil {
			t.Errorf("%s: Parse accepted %q", tc.name, tc.in)
			continue
		}
		var pe *ParseError
		var ve *ValidationError
		switch {
		case tc.parseErr && !errors.As(err, &pe):
			t.Errorf("%s: got %T (%v), want *ParseError", tc.name, err, err)
		case !tc.parseErr && !errors.As(err, &ve):
			t.Errorf("%s: got %T (%v), want *ValidationError", tc.name, err, err)
		}
	}
}

// TestParseAccepts pins that a full-featured valid config parses and
// normalizes.
func TestParseAccepts(t *testing.T) {
	cfg, err := Parse([]byte(`{
		"name": "ok", "seed": 9, "repeats": 2,
		"ml": {"traces": 3},
		"axes": {
			"operators": ["OpZ", "OpX"],
			"mobilities": ["driving"],
			"granularities": ["long"],
			"bands": [[], ["n41", "n25"]],
			"severities": [0, 0.25],
			"predictors": ["LSTM", "Prism5G"],
			"directions": ["dl", "ul"]
		}
	}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if cfg.ML.Traces != 3 || cfg.ML.Epochs == 0 {
		t.Fatalf("ML defaults not applied: %+v", cfg.ML)
	}
	if got := len(Expand(cfg)); got != 2*1*1*2*2*2*1*2*2 {
		t.Fatalf("expanded %d cells", got)
	}
}

// TestGridDeterminismAcrossWorkers pins the tentpole law: the full output
// tree — cell files, manifest, summaries — is byte-identical at workers
// 1, 4 and 8.
func TestGridDeterminismAcrossWorkers(t *testing.T) {
	base := t.TempDir()
	dirs := map[int]string{1: filepath.Join(base, "w1"), 4: filepath.Join(base, "w4"), 8: filepath.Join(base, "w8")}
	for _, w := range []int{1, 4, 8} {
		rep, err := Run(context.Background(), tinyQoEConfig(), dirs[w], RunOpts{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if rep.Computed != 8 || rep.Cached != 0 {
			t.Fatalf("workers=%d: computed=%d cached=%d, want 8/0", w, rep.Computed, rep.Cached)
		}
	}
	sameTree(t, dirs[1], dirs[4])
	sameTree(t, dirs[1], dirs[8])
}

// TestGridPredictDeterminism runs the training grid at two worker counts
// and pins byte identity plus the clean/degraded protocol split.
func TestGridPredictDeterminism(t *testing.T) {
	base := t.TempDir()
	a, b := filepath.Join(base, "a"), filepath.Join(base, "b")
	repA, err := Run(context.Background(), tinyPredictConfig(), a, RunOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), tinyPredictConfig(), b, RunOpts{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	sameTree(t, a, b)
	if len(repA.Outcomes) != 2 {
		t.Fatalf("outcomes = %d", len(repA.Outcomes))
	}
	clean, degraded := repA.Outcomes[0].Predict, repA.Outcomes[1].Predict
	if clean == nil || degraded == nil {
		t.Fatal("predict outcomes missing")
	}
	if clean.Injected != 0 || degraded.Injected == 0 {
		t.Fatalf("fault counters wrong: clean %d, degraded %d", clean.Injected, degraded.Injected)
	}
	if degraded.Repaired == 0 {
		t.Fatalf("degraded cell repaired nothing: %+v", degraded)
	}
	if clean.Repaired != 0 || clean.Retries != 0 || clean.Fallback || clean.SkippedWindows != 0 {
		t.Fatalf("clean cell shows interventions: %+v", clean)
	}
	for _, rmse := range []float64{clean.RMSE, degraded.RMSE} {
		if !(rmse > 0) || math.IsInf(rmse, 0) {
			t.Fatalf("RMSE not finite and positive: clean %v, degraded %v", clean.RMSE, degraded.RMSE)
		}
	}
}

// TestGridResumeAfterAbort kills a run mid-flight via the abort hook,
// resumes it and asserts the merged outputs are byte-identical to an
// uninterrupted run.
func TestGridResumeAfterAbort(t *testing.T) {
	base := t.TempDir()
	ref, resumed := filepath.Join(base, "ref"), filepath.Join(base, "resumed")
	if _, err := Run(context.Background(), tinyQoEConfig(), ref, RunOpts{Workers: 2}); err != nil {
		t.Fatal(err)
	}

	rep, err := Run(context.Background(), tinyQoEConfig(), resumed, RunOpts{Workers: 2, AbortAfterCells: 3})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("abort hook: err = %v, want ErrAborted", err)
	}
	if rep.Computed != 3 {
		t.Fatalf("aborted run computed %d cells, want 3", rep.Computed)
	}
	rep, err = Run(context.Background(), tinyQoEConfig(), resumed, RunOpts{Workers: 2})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rep.Cached != 3 || rep.Computed != 5 {
		t.Fatalf("resume computed=%d cached=%d, want 5/3", rep.Computed, rep.Cached)
	}
	sameTree(t, ref, resumed)
}

// TestGridCorruptCellReruns corrupts one cell's bytes and asserts only that
// cell recomputes, restoring the reference tree.
func TestGridCorruptCellReruns(t *testing.T) {
	base := t.TempDir()
	ref, dir := filepath.Join(base, "ref"), filepath.Join(base, "run")
	if _, err := Run(context.Background(), tinyQoEConfig(), ref, RunOpts{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), tinyQoEConfig(), dir, RunOpts{Workers: 2}); err != nil {
		t.Fatal(err)
	}

	man, err := loadManifest(dir)
	if err != nil || len(man.Cells) != 8 {
		t.Fatalf("manifest: %v (%d cells)", err, len(man.Cells))
	}
	victim := filepath.Join(dir, man.Cells[4].File)
	if err := os.WriteFile(victim, []byte("corrupt\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Run(context.Background(), tinyQoEConfig(), dir, RunOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Computed != 1 || rep.Cached != 7 {
		t.Fatalf("after corruption computed=%d cached=%d, want 1/7", rep.Computed, rep.Cached)
	}
	sameTree(t, ref, dir)
}

// TestGridConfigChangeInvalidates pins that an edited config (different
// hash) recomputes every cell rather than trusting stale files.
func TestGridConfigChangeInvalidates(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(context.Background(), tinyQoEConfig(), dir, RunOpts{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	changed := tinyQoEConfig()
	changed.Seed = 6
	rep, err := Run(context.Background(), changed, dir, RunOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cached != 0 || rep.Computed != 8 {
		t.Fatalf("changed config computed=%d cached=%d, want 8/0", rep.Computed, rep.Cached)
	}
}

// TestGridCachedRunIsNoop reruns a completed grid and pins the all-cached
// fast path.
func TestGridCachedRunIsNoop(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(context.Background(), tinyQoEConfig(), dir, RunOpts{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	before := readTree(t, dir)
	rep, err := Run(context.Background(), tinyQoEConfig(), dir, RunOpts{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Computed != 0 || rep.Cached != 8 {
		t.Fatalf("rerun computed=%d cached=%d, want 0/8", rep.Computed, rep.Cached)
	}
	after := readTree(t, dir)
	if len(before) != len(after) {
		t.Fatalf("file count changed: %d -> %d", len(before), len(after))
	}
	for name, b := range before {
		if after[name] != b {
			t.Errorf("file %s changed on a fully cached rerun", name)
		}
	}
}
