package ml

import (
	"math"
	"testing"

	"prism5g/internal/rng"
)

// Depth returns the maximum depth of the tree (root = 0).
func (t *Tree) Depth() int {
	var walk func(ni, d int) int
	walk = func(ni, d int) int {
		n := t.nodes[ni]
		if n.feature < 0 {
			return d
		}
		l := walk(n.left, d+1)
		r := walk(n.right, d+1)
		if l > r {
			return l
		}
		return r
	}
	return walk(0, 0)
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// NumTrees returns the number of boosting stages.
func (g *GBDT) NumTrees() int { return len(g.trees) }

// stepData is a dataset where y depends on a threshold of feature 0.
func stepData(src *rng.Source, n int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{src.Range(0, 1), src.Range(0, 1), src.Range(0, 1)}
		if X[i][0] > 0.5 {
			y[i] = 10 + src.NormMS(0, 0.1)
		} else {
			y[i] = 2 + src.NormMS(0, 0.1)
		}
	}
	return X, y
}

func TestTreeLearnsStepFunction(t *testing.T) {
	src := rng.New(1)
	X, y := stepData(src, 400)
	tree := FitTree(X, y, DefaultTreeOpts(), src)
	if got := tree.Predict([]float64{0.9, 0.5, 0.5}); math.Abs(got-10) > 0.5 {
		t.Fatalf("high side = %f", got)
	}
	if got := tree.Predict([]float64{0.1, 0.5, 0.5}); math.Abs(got-2) > 0.5 {
		t.Fatalf("low side = %f", got)
	}
}

func TestTreeRespectsDepthAndLeafLimits(t *testing.T) {
	src := rng.New(2)
	X, y := stepData(src, 300)
	opts := TreeOpts{MaxDepth: 2, MinLeaf: 30, FeatureFrac: 1}
	tree := FitTree(X, y, opts, src)
	if d := tree.Depth(); d > 2 {
		t.Fatalf("depth = %d", d)
	}
}

func TestTreeConstantTarget(t *testing.T) {
	src := rng.New(3)
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{5, 5, 5, 5}
	tree := FitTree(X, y, DefaultTreeOpts(), src)
	if got := tree.Predict([]float64{2.5}); got != 5 {
		t.Fatalf("constant pred = %f", got)
	}
	if tree.Depth() != 0 {
		t.Fatal("constant target should not split")
	}
}

func TestTreePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	FitTree(nil, nil, DefaultTreeOpts(), rng.New(1))
}

func TestTreeDeterminism(t *testing.T) {
	X, y := stepData(rng.New(4), 200)
	t1 := FitTree(X, y, DefaultTreeOpts(), rng.New(7))
	t2 := FitTree(X, y, DefaultTreeOpts(), rng.New(7))
	for i := 0; i < 50; i++ {
		x := []float64{float64(i) / 50, 0.5, 0.5}
		if t1.Predict(x) != t2.Predict(x) {
			t.Fatal("trees differ for same seed")
		}
	}
}

func TestForestBeatsNoiseAndAverages(t *testing.T) {
	src := rng.New(5)
	X, y := stepData(src, 500)
	f := FitForest(X, y, DefaultForestOpts(), src)
	if f.NumTrees() != 50 {
		t.Fatalf("trees = %d", f.NumTrees())
	}
	var se float64
	n := 0
	test, ty := stepData(rng.New(6), 200)
	for i := range test {
		d := f.Predict(test[i]) - ty[i]
		se += d * d
		n++
	}
	rmse := math.Sqrt(se / float64(n))
	if rmse > 1.0 {
		t.Fatalf("forest RMSE = %f", rmse)
	}
}

func TestForestDefaultsOnZeroOpts(t *testing.T) {
	src := rng.New(7)
	X, y := stepData(src, 100)
	f := FitForest(X, y, ForestOpts{}, src)
	if f.NumTrees() == 0 {
		t.Fatal("no trees with default opts")
	}
}

func TestGBDTFitsResiduals(t *testing.T) {
	src := rng.New(8)
	// Smooth nonlinear target: y = sin(4x) + x.
	n := 500
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		v := src.Range(0, 1)
		X[i] = []float64{v}
		y[i] = math.Sin(4*v) + v
	}
	g := FitGBDT(X, y, DefaultGBDTOpts(), src)
	if g.NumTrees() != 100 {
		t.Fatalf("stages = %d", g.NumTrees())
	}
	var se float64
	for i := 0; i < 100; i++ {
		v := float64(i) / 100
		d := g.Predict([]float64{v}) - (math.Sin(4*v) + v)
		se += d * d
	}
	rmse := math.Sqrt(se / 100)
	if rmse > 0.1 {
		t.Fatalf("GBDT RMSE = %f", rmse)
	}
}

func TestGBDTBeatsSingleTreeOnSmoothTarget(t *testing.T) {
	src := rng.New(9)
	n := 400
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		v := src.Range(0, 1)
		X[i] = []float64{v}
		y[i] = math.Sin(6 * v)
	}
	tree := FitTree(X, y, TreeOpts{MaxDepth: 3, MinLeaf: 5, FeatureFrac: 1}, src)
	g := FitGBDT(X, y, GBDTOpts{Trees: 80, Shrinkage: 0.1, Tree: TreeOpts{MaxDepth: 3, MinLeaf: 5, FeatureFrac: 1}}, src)
	var seTree, seG float64
	for i := 0; i < 200; i++ {
		v := float64(i) / 200
		want := math.Sin(6 * v)
		dt := tree.Predict([]float64{v}) - want
		dg := g.Predict([]float64{v}) - want
		seTree += dt * dt
		seG += dg * dg
	}
	if seG >= seTree {
		t.Fatalf("GBDT (%f) not better than single tree (%f)", seG, seTree)
	}
}

func TestSolveRidgeRecoversCoefficients(t *testing.T) {
	src := rng.New(10)
	// y = 3 x1 - 2 x2 + 1.
	n := 200
	A := make([][]float64, n)
	y := make([]float64, n)
	for i := range A {
		x1, x2 := src.NormMS(0, 1), src.NormMS(0, 1)
		A[i] = []float64{1, x1, x2}
		y[i] = 1 + 3*x1 - 2*x2
	}
	w, err := SolveRidge(A, y, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, -2}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-3 {
			t.Fatalf("w = %v", w)
		}
	}
}

func TestSolveRidgeSingularFallback(t *testing.T) {
	// Perfectly collinear columns with zero ridge are singular; with
	// ridge they are solvable.
	A := [][]float64{{1, 1}, {2, 2}, {3, 3}}
	y := []float64{1, 2, 3}
	if _, err := SolveRidge(A, y, 0); err == nil {
		t.Fatal("singular system solved without ridge")
	}
	if _, err := SolveRidge(A, y, 0.1); err != nil {
		t.Fatalf("ridge failed: %v", err)
	}
	if _, err := SolveRidge(nil, nil, 1); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestProphetFitsTrend(t *testing.T) {
	// Linear ramp: forecasts should continue the ramp.
	series := make([]float64, 100)
	for i := range series {
		series[i] = 2 * float64(i)
	}
	fc := Forecast(series, 5, DefaultProphetOpts())
	for h, v := range fc {
		want := 2 * float64(100+h)
		if math.Abs(v-want) > 12 {
			t.Fatalf("forecast[%d] = %f, want ~%f", h, v, want)
		}
	}
}

func TestProphetFitsSeasonality(t *testing.T) {
	opts := DefaultProphetOpts()
	opts.Period = 20
	opts.Ridge = 0.01
	series := make([]float64, 120)
	for i := range series {
		series[i] = 50 + 10*math.Sin(2*math.Pi*float64(i)/20)
	}
	fc := Forecast(series, 10, opts)
	var se float64
	for h, v := range fc {
		want := 50 + 10*math.Sin(2*math.Pi*float64(120+h)/20)
		se += (v - want) * (v - want)
	}
	if rmse := math.Sqrt(se / 10); rmse > 3 {
		t.Fatalf("seasonal forecast RMSE = %f", rmse)
	}
}

func TestProphetOvershootsAtLevelDrop(t *testing.T) {
	// The paper's Fig 35 behaviour: a trend model keeps predicting high
	// right after an abrupt drop.
	series := make([]float64, 100)
	for i := range series {
		if i < 95 {
			series[i] = 100
		} else {
			series[i] = 30 // drop at the very end
		}
	}
	fc := Forecast(series, 5, DefaultProphetOpts())
	if fc[0] < 40 {
		t.Fatalf("Prophet adapted implausibly fast: %f", fc[0])
	}
}

func TestProphetDegenerateInputs(t *testing.T) {
	if got := FitProphet(nil, DefaultProphetOpts()).Predict(0); got != 0 {
		t.Fatalf("empty series pred = %f", got)
	}
	p := FitProphet([]float64{5, 5}, DefaultProphetOpts())
	if got := p.Predict(2); got != 5 {
		t.Fatalf("tiny series pred = %f", got)
	}
}

func TestProphetMaxHistoryWindow(t *testing.T) {
	opts := DefaultProphetOpts()
	opts.MaxHistory = 50
	// Old regime (0..949 at level 0) must be forgotten; recent level 80.
	series := make([]float64, 1000)
	for i := 950; i < 1000; i++ {
		series[i] = 80
	}
	fc := Forecast(series, 3, opts)
	if fc[0] < 60 {
		t.Fatalf("window ignored recent level: %f", fc[0])
	}
}
