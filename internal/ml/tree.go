// Package ml implements the classical machine-learning baselines the paper
// compares against: CART regression trees, random forests (RF [4]),
// gradient-boosted decision trees (GBDT [32]), and a Prophet-style [44]
// decomposable time-series forecaster, plus the small linear-algebra
// routines they need. Everything is deterministic given an rng.Source.
package ml

import (
	"math"
	"sort"

	"prism5g/internal/rng"
)

// TreeOpts configures regression-tree fitting.
type TreeOpts struct {
	// MaxDepth bounds the tree depth (root = depth 0).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf.
	MinLeaf int
	// FeatureFrac is the fraction of features tried per split (1 = all);
	// random forests use < 1.
	FeatureFrac float64
}

// DefaultTreeOpts returns reasonable regression-tree settings.
func DefaultTreeOpts() TreeOpts {
	return TreeOpts{MaxDepth: 6, MinLeaf: 5, FeatureFrac: 1}
}

// treeNode is one node of a regression tree, stored in a flat slice.
type treeNode struct {
	feature     int // -1 for leaf
	threshold   float64
	left, right int
	value       float64
}

// Tree is a fitted CART regression tree.
type Tree struct {
	nodes []treeNode
}

// FitTree fits a CART regression tree minimizing squared error.
func FitTree(X [][]float64, y []float64, opts TreeOpts, src *rng.Source) *Tree {
	if len(X) == 0 || len(X) != len(y) {
		panic("ml: FitTree needs non-empty X with matching y")
	}
	if opts.MinLeaf < 1 {
		opts.MinLeaf = 1
	}
	if opts.FeatureFrac <= 0 || opts.FeatureFrac > 1 {
		opts.FeatureFrac = 1
	}
	t := &Tree{}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t.build(X, y, idx, 0, opts, src)
	return t
}

func mean(y []float64, idx []int) float64 {
	s := 0.0
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

// build grows the subtree over idx and returns its node index.
func (t *Tree) build(X [][]float64, y []float64, idx []int, depth int, opts TreeOpts, src *rng.Source) int {
	nodeIdx := len(t.nodes)
	t.nodes = append(t.nodes, treeNode{feature: -1, value: mean(y, idx)})
	if depth >= opts.MaxDepth || len(idx) < 2*opts.MinLeaf {
		return nodeIdx
	}
	feat, thr, ok := t.bestSplit(X, y, idx, opts, src)
	if !ok {
		return nodeIdx
	}
	var left, right []int
	for _, i := range idx {
		if X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < opts.MinLeaf || len(right) < opts.MinLeaf {
		return nodeIdx
	}
	l := t.build(X, y, left, depth+1, opts, src)
	r := t.build(X, y, right, depth+1, opts, src)
	t.nodes[nodeIdx].feature = feat
	t.nodes[nodeIdx].threshold = thr
	t.nodes[nodeIdx].left = l
	t.nodes[nodeIdx].right = r
	return nodeIdx
}

// bestSplit finds the SSE-minimizing (feature, threshold) over a feature
// subsample.
func (t *Tree) bestSplit(X [][]float64, y []float64, idx []int, opts TreeOpts, src *rng.Source) (int, float64, bool) {
	nFeat := len(X[0])
	feats := make([]int, nFeat)
	for i := range feats {
		feats[i] = i
	}
	if opts.FeatureFrac < 1 {
		k := int(math.Ceil(opts.FeatureFrac * float64(nFeat)))
		if k < 1 {
			k = 1
		}
		src.Shuffle(nFeat, func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })
		feats = feats[:k]
	}
	bestGain := 1e-12
	bestFeat, bestThr := -1, 0.0

	// Total sum/sumsq for parent SSE.
	var tot, totSq float64
	for _, i := range idx {
		tot += y[i]
		totSq += y[i] * y[i]
	}
	n := float64(len(idx))
	parentSSE := totSq - tot*tot/n

	type pair struct{ x, y float64 }
	ps := make([]pair, len(idx))
	for _, f := range feats {
		for k, i := range idx {
			ps[k] = pair{X[i][f], y[i]}
		}
		sort.Slice(ps, func(a, b int) bool { return ps[a].x < ps[b].x })
		var leftSum, leftSq float64
		for k := 0; k < len(ps)-1; k++ {
			leftSum += ps[k].y
			leftSq += ps[k].y * ps[k].y
			if ps[k].x == ps[k+1].x {
				continue // cannot split between equal values
			}
			nl := float64(k + 1)
			nr := n - nl
			if int(nl) < opts.MinLeaf || int(nr) < opts.MinLeaf {
				continue
			}
			rightSum := tot - leftSum
			rightSq := totSq - leftSq
			sse := (leftSq - leftSum*leftSum/nl) + (rightSq - rightSum*rightSum/nr)
			gain := parentSSE - sse
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThr = (ps[k].x + ps[k+1].x) / 2
			}
		}
	}
	return bestFeat, bestThr, bestFeat >= 0
}

// Predict returns the tree's output for one feature vector.
func (t *Tree) Predict(x []float64) float64 {
	ni := 0
	for {
		n := t.nodes[ni]
		if n.feature < 0 {
			return n.value
		}
		if x[n.feature] <= n.threshold {
			ni = n.left
		} else {
			ni = n.right
		}
	}
}
