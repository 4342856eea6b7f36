package conform

import "testing"

// The negative self-tests: a conformance suite that cannot fail is
// decoration. Each test corrupts the harness's view of one artifact via
// TestHooks and demands that both the invariant check and the golden
// comparison actually flag it.

// TestNegativeTBSPerturbation: biasing one TBS entry must break the Fig 9
// monotonicity check and the fig9 fixture.
func TestNegativeTBSPerturbation(t *testing.T) {
	if *update {
		t.Skip("fixtures are being regenerated")
	}
	Hooks = TestHooks{TBSDelta: -123456}
	defer func() { Hooks = TestHooks{} }()
	ctx := NewCtx(Config{Seed: DefaultSeed}) // fresh: testCtx has unperturbed memos
	vs := checkTBSMonotone(ctx)
	if len(vs) == 0 {
		t.Error("tbs-monotone did not flag a perturbed TBS entry")
	}
	gvs := compareGoldenDir(ctx, goldenDir, "fig9")
	if len(gvs) == 0 {
		t.Error("fig9 golden did not flag a perturbed TBS entry")
	}
	for _, v := range gvs {
		if v.Path == "" || v.Got == "" || v.Want == "" {
			t.Errorf("golden violation must carry path and both values: %+v", v)
		}
	}
}

// TestNegativeCorrelationFlip: negating the intra-band cross-RSRP
// correlation must break the correlation-structure check and the fig11_13
// fixture.
func TestNegativeCorrelationFlip(t *testing.T) {
	if *update {
		t.Skip("fixtures are being regenerated")
	}
	if testing.Short() {
		t.Skip("rebuilds the correlation experiment")
	}
	Hooks = TestHooks{CorrFlip: true}
	defer func() { Hooks = TestHooks{} }()
	ctx := NewCtx(Config{Seed: DefaultSeed})
	if vs := checkCorrelationStructure(ctx); len(vs) == 0 {
		t.Error("correlation-structure did not flag a flipped correlation sign")
	}
	if gvs := compareGoldenDir(ctx, goldenDir, "fig11_13"); len(gvs) == 0 {
		t.Error("fig11_13 golden did not flag a flipped correlation sign")
	}
}

// TestHooksAreInert: the zero-value hooks must not alter the artifacts the
// shared context observed (guards against a hook accidentally engaging in
// production paths).
func TestHooksAreInert(t *testing.T) {
	if Hooks != (TestHooks{}) {
		t.Fatalf("hooks leaked into the package state: %+v", Hooks)
	}
	rows := testCtx.Fig9()
	fresh := NewCtx(Config{Seed: DefaultSeed}).Fig9()
	if len(rows) != len(fresh) {
		t.Fatalf("Fig9 row count changed: %d vs %d", len(rows), len(fresh))
	}
	for i := range rows {
		if rows[i] != fresh[i] {
			t.Fatalf("Fig9 row %d differs between contexts: %+v vs %+v", i, rows[i], fresh[i])
		}
	}
}
