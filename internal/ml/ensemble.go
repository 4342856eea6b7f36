package ml

import "prism5g/internal/rng"

// ForestOpts configures random-forest fitting.
type ForestOpts struct {
	Trees int
	Tree  TreeOpts
	// SampleFrac is the bootstrap sample fraction per tree.
	SampleFrac float64
}

// DefaultForestOpts mirrors common RF regression settings.
func DefaultForestOpts() ForestOpts {
	t := DefaultTreeOpts()
	t.FeatureFrac = 0.6
	return ForestOpts{Trees: 50, Tree: t, SampleFrac: 1}
}

// Forest is a fitted random-forest regressor (the RF baseline [4]).
type Forest struct {
	trees []*Tree
}

// FitForest fits a random forest with bootstrap sampling and per-split
// feature subsampling.
func FitForest(X [][]float64, y []float64, opts ForestOpts, src *rng.Source) *Forest {
	if opts.Trees < 1 {
		opts = DefaultForestOpts()
	}
	s := src.Split()
	f := &Forest{}
	n := len(X)
	sampleN := int(opts.SampleFrac * float64(n))
	if sampleN < 1 {
		sampleN = n
	}
	for t := 0; t < opts.Trees; t++ {
		bx := make([][]float64, sampleN)
		by := make([]float64, sampleN)
		for i := 0; i < sampleN; i++ {
			j := s.Intn(n)
			bx[i] = X[j]
			by[i] = y[j]
		}
		f.trees = append(f.trees, FitTree(bx, by, opts.Tree, s))
	}
	return f
}

// Predict averages the trees.
func (f *Forest) Predict(x []float64) float64 {
	s := 0.0
	for _, t := range f.trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.trees))
}

// GBDTOpts configures gradient boosting.
type GBDTOpts struct {
	Trees     int
	Shrinkage float64
	Tree      TreeOpts
}

// DefaultGBDTOpts mirrors common GBDT regression settings (shallow trees,
// small learning rate).
func DefaultGBDTOpts() GBDTOpts {
	t := DefaultTreeOpts()
	t.MaxDepth = 4
	return GBDTOpts{Trees: 100, Shrinkage: 0.1, Tree: t}
}

// GBDT is a fitted gradient-boosted decision-tree regressor (the GBDT
// baseline used by Lumos5G [32]).
type GBDT struct {
	base      float64
	shrinkage float64
	trees     []*Tree
}

// FitGBDT fits stage-wise trees on squared-loss residuals.
func FitGBDT(X [][]float64, y []float64, opts GBDTOpts, src *rng.Source) *GBDT {
	if opts.Trees < 1 {
		opts = DefaultGBDTOpts()
	}
	s := src.Split()
	g := &GBDT{shrinkage: opts.Shrinkage}
	// Base prediction: mean.
	for _, v := range y {
		g.base += v
	}
	g.base /= float64(len(y))
	residual := make([]float64, len(y))
	pred := make([]float64, len(y))
	for i := range pred {
		pred[i] = g.base
	}
	for t := 0; t < opts.Trees; t++ {
		for i := range residual {
			residual[i] = y[i] - pred[i]
		}
		tree := FitTree(X, residual, opts.Tree, s)
		g.trees = append(g.trees, tree)
		for i := range pred {
			pred[i] += opts.Shrinkage * tree.Predict(X[i])
		}
	}
	return g
}

// Predict sums the boosted stages.
func (g *GBDT) Predict(x []float64) float64 {
	s := g.base
	for _, t := range g.trees {
		s += g.shrinkage * t.Predict(x)
	}
	return s
}
