// Package c45 implements a C4.5-style decision-tree learner (Quinlan):
// information-gain-ratio splits on continuous features with pessimistic
// error pruning. The two tunable parameters are the pruning confidence
// factor and the minimum examples per split; tuning uses cross-validation
// (RAND+CV in Table I) because the training error alone overfits.
package c45

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/dist"
)

// Params are the learner's tunables.
type Params struct {
	Confidence float64 // pruning confidence factor in (0, 1]; smaller prunes more
	MinSplit   int     // minimum examples required to split a node
}

// DefaultParams is C4.5's traditional default.
func DefaultParams() Params { return Params{Confidence: 0.25, MinSplit: 2} }

// Work-unit costs: loading/preprocessing dominates, training is moderate.
const (
	WorkLoad     = 12.0
	WorkPerTrain = 1.0
)

// Dataset is a classification workload.
type Dataset struct {
	X       [][]float64
	Y       []int
	Classes int
}

// Gen builds a noisy classification task: class regions are axis-aligned
// boxes over a few informative features plus label noise, so an unpruned
// tree memorizes noise and pruning pays off.
func Gen(seed int64, n, dim, classes int, labelNoise float64) Dataset {
	if n < classes*4 || dim < 2 {
		panic("c45: workload too small")
	}
	r := rand.New(rand.NewSource(int64(dist.Mix(uint64(seed), 0xC45))))
	ds := Dataset{Classes: classes}
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		for d := range x {
			x[d] = r.Float64()
		}
		// True label from the first two features: a classes-way grid.
		cells := int(math.Ceil(math.Sqrt(float64(classes))))
		cx := int(x[0] * float64(cells))
		cy := int(x[1] * float64(cells))
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		y := (cy*cells + cx) % classes
		if r.Float64() < labelNoise {
			y = r.Intn(classes)
		}
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, y)
	}
	return ds
}

// Subset returns the dataset restricted to the given indices.
func (ds Dataset) Subset(idx []int) Dataset {
	out := Dataset{Classes: ds.Classes}
	for _, i := range idx {
		out.X = append(out.X, ds.X[i])
		out.Y = append(out.Y, ds.Y[i])
	}
	return out
}

// Node is a decision-tree node.
type Node struct {
	Feature  int     // split feature (-1 for leaves)
	Thr      float64 // split threshold: left if x[Feature] <= Thr
	Class    int     // majority class at this node
	ErrCount float64 // training errors if this node were a leaf
	N        int     // examples reaching this node
	Left     *Node
	Right    *Node
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Left == nil }

// Size counts the nodes of the subtree.
func (n *Node) Size() int {
	if n.IsLeaf() {
		return 1
	}
	return 1 + n.Left.Size() + n.Right.Size()
}

// Train grows a tree with gain-ratio splits and then applies pessimistic
// pruning with the configured confidence factor.
func Train(ds Dataset, p Params) *Node {
	if p.MinSplit < 2 {
		p.MinSplit = 2
	}
	if p.Confidence <= 0 {
		p.Confidence = 0.01
	}
	if p.Confidence > 1 {
		p.Confidence = 1
	}
	idx := make([]int, len(ds.X))
	for i := range idx {
		idx[i] = i
	}
	root := grow(ds, idx, p)
	prune(root, p.Confidence)
	return root
}

func majority(ds Dataset, idx []int) (class int, errs float64) {
	counts := make([]int, ds.Classes)
	for _, i := range idx {
		counts[ds.Y[i]]++
	}
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	return best, float64(len(idx) - counts[best])
}

// tableN bounds the node sizes whose entropy terms come from plogpTab.
const tableN = 64

// plogpTab holds plogp(c, n) and splitInfo(c, n) at n*(n+1)/2+c for
// 0 < c <= n <= tableN, built on first use.
var plogpTab = sync.OnceValue(func() [][2]float64 {
	tab := make([][2]float64, (tableN+1)*(tableN+2)/2)
	for n := 1; n <= tableN; n++ {
		for c := 1; c <= n; c++ {
			p := float64(c) / float64(n)
			tab[n*(n+1)/2+c] = [2]float64{p * math.Log2(p), -p*math.Log2(p) - (1-p)*math.Log2(1-p)}
		}
	}
	return tab
})

// plogp is p*Log2(p) with p = c/n.
func plogp(c, n int) float64 {
	if n <= tableN {
		return plogpTab()[n*(n+1)/2+c][0]
	}
	p := float64(c) / float64(n)
	return p * math.Log2(p)
}

// splitInfo is the split information, in bits, of sending c of n
// examples left.
func splitInfo(c, n int) float64 {
	if n <= tableN {
		return plogpTab()[n*(n+1)/2+c][1]
	}
	p := float64(c) / float64(n)
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// countEntropy is the class entropy, in bits, of n examples with the given
// per-class counts.
func countEntropy(counts []int, n int) float64 {
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		h -= plogp(c, n)
	}
	return h
}

func grow(ds Dataset, idx []int, p Params) *Node {
	class, errs := majority(ds, idx)
	node := &Node{Feature: -1, Class: class, ErrCount: errs, N: len(idx)}
	if len(idx) < p.MinSplit || errs == 0 {
		return node
	}
	total := make([]int, ds.Classes)
	for _, i := range idx {
		total[ds.Y[i]]++
	}
	// Best gain-ratio split across features and thresholds: sweep each
	// feature's distinct-value midpoints in sorted order, carrying the
	// class counts of the examples at or below the threshold.
	baseH := countEntropy(total, len(idx))
	bestGR := 0.0
	bestF, bestThr := -1, 0.0
	dim := len(ds.X[0])
	order := make([]int, len(idx))
	left := make([]int, ds.Classes)
	right := make([]int, ds.Classes)
	for f := 0; f < dim; f++ {
		copy(order, idx)
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(ds.X[a][f], ds.X[b][f]) })
		clear(left)
		k := 0
		for v := 0; v < len(order)-1; v++ {
			a, b := ds.X[order[v]][f], ds.X[order[v+1]][f]
			if a == b {
				continue
			}
			// (a+b)/2 may round onto b: the partition is by value, as
			// x <= thr, not by position.
			thr := (a + b) / 2
			for ; k < len(order) && ds.X[order[k]][f] <= thr; k++ {
				left[ds.Y[order[k]]]++
			}
			nl, nr := k, len(order)-k
			if nl == 0 || nr == 0 {
				continue
			}
			for c := range right {
				right[c] = total[c] - left[c]
			}
			pl := float64(nl) / float64(len(idx))
			gain := baseH - pl*countEntropy(left, nl) - (1-pl)*countEntropy(right, nr)
			si := splitInfo(nl, len(idx))
			if si < 1e-9 {
				continue
			}
			if gr := gain / si; gr > bestGR {
				bestGR, bestF, bestThr = gr, f, thr
			}
		}
	}
	if bestF < 0 || bestGR < 1e-9 {
		return node
	}
	var li, ri []int
	for _, i := range idx {
		if ds.X[i][bestF] <= bestThr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	node.Feature = bestF
	node.Thr = bestThr
	node.Left = grow(ds, li, p)
	node.Right = grow(ds, ri, p)
	return node
}

// prune applies C4.5's pessimistic error pruning: replace a subtree with a
// leaf when the leaf's pessimistic error estimate does not exceed the
// subtree's. Smaller confidence inflates the estimates more aggressively
// for small nodes, pruning harder.
func prune(n *Node, confidence float64) float64 {
	pess := func(errs float64, count int) float64 {
		if count == 0 {
			return 0
		}
		// Upper confidence bound on the error rate: the classic C4.5
		// approximation via a z-score of the (1-confidence) quantile.
		f := errs / float64(count)
		z := zFor(1 - confidence)
		nn := float64(count)
		num := f + z*z/(2*nn) + z*math.Sqrt(f/nn-f*f/nn+z*z/(4*nn*nn))
		den := 1 + z*z/nn
		return num / den * nn
	}
	if n.IsLeaf() {
		return pess(n.ErrCount, n.N)
	}
	sub := prune(n.Left, confidence) + prune(n.Right, confidence)
	leaf := pess(n.ErrCount, n.N)
	if leaf <= sub+1e-12 {
		n.Left, n.Right = nil, nil
		n.Feature = -1
		return leaf
	}
	return sub
}

// zFor approximates the standard normal quantile for p in (0.5, 1).
func zFor(p float64) float64 {
	if p <= 0.5 {
		return 0
	}
	// Beasley-Springer-Moro-lite rational approximation, good to ~1e-3.
	t := math.Sqrt(-2 * math.Log(1-p))
	return t - (2.30753+0.27061*t)/(1+0.99229*t+0.04481*t*t)
}

// Predict classifies one example.
func (n *Node) Predict(x []float64) int {
	for !n.IsLeaf() {
		if x[n.Feature] <= n.Thr {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Class
}

// ErrorRate is the misclassification rate of the tree on a dataset.
func ErrorRate(tree *Node, ds Dataset) float64 {
	if len(ds.X) == 0 {
		return 0
	}
	wrong := 0
	for i, x := range ds.X {
		if tree.Predict(x) != ds.Y[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(len(ds.X))
}
