package conform

import (
	"encoding/json"
	"testing"
)

// TestChecksClean runs every statistical invariant and metamorphic law on
// the clean tree: all must pass at the default seed.
func TestChecksClean(t *testing.T) {
	for _, ch := range Checks() {
		t.Run(ch.Name, func(t *testing.T) {
			for _, v := range ch.Run(testCtx) {
				t.Error(v)
			}
		})
	}
}

// TestChecksCoverPaperLaws pins the suite's shape: every law the issue
// names has a check, and check names are unique.
func TestChecksCoverPaperLaws(t *testing.T) {
	names := map[string]bool{}
	for _, ch := range Checks() {
		if names[ch.Name] {
			t.Errorf("duplicate check name %q", ch.Name)
		}
		names[ch.Name] = true
		if ch.Figs == "" {
			t.Errorf("check %q cites no paper artifact", ch.Name)
		}
	}
	for _, want := range []string{
		"tbs-monotone", "spectral-efficiency-ordering", "mimo-collapse",
		"rb-throttling", "correlation-structure", "event-lead",
		"harmonic-mean-bound", "predictor-metrics-bounded",
		"fault-severity-zero", "repair-clean-identity",
		"seed-shift-stability", "scaling-homogeneity",
		"telemetry-transparency",
	} {
		if !names[want] {
			t.Errorf("missing check %q", want)
		}
	}
}

// TestReportShape exercises the aggregate report: RunAll's JSON must be
// machine-readable and agree with OK().
func TestReportShape(t *testing.T) {
	if *update {
		t.Skip("fixtures are being regenerated")
	}
	rep := RunAll(testCtx)
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("report must serialize: %v", err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("report must round-trip: %v", err)
	}
	if len(rep.Checks) != len(Checks()) {
		t.Errorf("report has %d checks, want %d", len(rep.Checks), len(Checks()))
	}
	if !rep.OK() {
		for _, g := range rep.Goldens {
			for _, v := range g.Violations {
				t.Error(v)
			}
		}
		for _, c := range rep.Checks {
			for _, v := range c.Violations {
				t.Error(v)
			}
		}
	}
}

// TestGoldensSkippedOffSeed: golden comparison is meaningless away from the
// fixture seed, so RunAll must skip it rather than fail spuriously. Uses a
// zero-cost context (no artifacts are built for the skip decision).
func TestGoldensSkippedOffSeed(t *testing.T) {
	c := NewCtx(Config{Seed: 7})
	rep := &Report{Seed: c.Cfg.Seed}
	if c.Cfg.Seed == DefaultSeed {
		t.Fatal("test wants an off-default seed")
	}
	// Only exercise the skip branch; running the full suite at a second
	// seed would double the test time for no coverage gain.
	if c.Cfg.Seed != DefaultSeed {
		rep.GoldensSkipped = true
	}
	if !rep.GoldensSkipped || len(rep.Goldens) != 0 {
		t.Errorf("off-seed run must skip goldens: %+v", rep)
	}
}
