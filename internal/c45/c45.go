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
// pruning with the configured confidence factor. It is Grow(ds).Fit(p).
func Train(ds Dataset, p Params) *Node { return Grow(ds).Fit(p) }

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

// Grow grows the unpruned tree at MinSplit 2: every node splits unless it
// is pure or no split gains. A node's split depends only on the examples
// reaching it, never on MinSplit, so Fit can cut this one tree for any
// MinSplit. Each feature is sorted once, here; a split stably partitions
// every feature's order in place, so each node sees its examples in the
// order (value, index) that sorting them afresh would give.
func Grow(ds Dataset) *Node {
	if len(ds.X) == 0 {
		return &Node{Feature: -1}
	}
	g := grower{
		ds:     ds,
		orders: make([][]int, len(ds.X[0])),
		goLeft: make([]bool, len(ds.X)),
		buf:    make([]int, 0, len(ds.X)),
		total:  make([]int, ds.Classes),
		left:   make([]int, ds.Classes),
		right:  make([]int, ds.Classes),
	}
	for f := range g.orders {
		order := make([]int, len(ds.X))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(ds.X[a][f], ds.X[b][f]) })
		g.orders[f] = order
	}
	return g.grow(0, len(ds.X))
}

// grower holds the per-feature sorted orders and the scratch Grow reuses
// at every node.
type grower struct {
	ds                 Dataset
	orders             [][]int // orders[f][lo:hi]: a node's examples sorted by feature f
	goLeft             []bool
	buf                []int
	total, left, right []int
}

// grow grows the subtree of the examples in orders[*][lo:hi].
func (g *grower) grow(lo, hi int) *Node {
	ds := g.ds
	n := hi - lo
	clear(g.total)
	for _, i := range g.orders[0][lo:hi] {
		g.total[ds.Y[i]]++
	}
	class := 0
	for c, k := range g.total {
		if k > g.total[class] {
			class = c
		}
	}
	errs := float64(n - g.total[class])
	node := &Node{Feature: -1, Class: class, ErrCount: errs, N: n}
	if errs == 0 { // pure, which every node of fewer than 2 examples is
		return node
	}
	// Best gain-ratio split across features and thresholds: sweep each
	// feature's distinct-value midpoints in sorted order, carrying the
	// class counts of the examples at or below the threshold.
	baseH := countEntropy(g.total, n)
	bestGR := 0.0
	bestF, bestThr := -1, 0.0
	for f, o := range g.orders {
		order := o[lo:hi]
		clear(g.left)
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
				g.left[ds.Y[order[k]]]++
			}
			nl, nr := k, len(order)-k
			if nl == 0 || nr == 0 {
				continue
			}
			for c := range g.right {
				g.right[c] = g.total[c] - g.left[c]
			}
			pl := float64(nl) / float64(n)
			gain := baseH - pl*countEntropy(g.left, nl) - (1-pl)*countEntropy(g.right, nr)
			si := splitInfo(nl, n)
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
	for _, i := range g.orders[0][lo:hi] {
		g.goLeft[i] = ds.X[i][bestF] <= bestThr
	}
	nl := 0
	for _, o := range g.orders {
		order := o[lo:hi]
		nl = 0
		right := g.buf[:0]
		for _, i := range order {
			if g.goLeft[i] {
				order[nl] = i
				nl++
			} else {
				right = append(right, i)
			}
		}
		copy(order[nl:], right)
	}
	node.Feature = bestF
	node.Thr = bestThr
	node.Left = g.grow(lo, lo+nl)
	node.Right = g.grow(lo+nl, hi)
	return node
}

// Fit returns the tree Train would give for p: the grown tree n cut
// wherever fewer than p.MinSplit examples arrive, then pruned at
// p.Confidence. n is only read, so any number of Fit calls may share one
// grown tree.
func (n *Node) Fit(p Params) *Node {
	if p.MinSplit < 2 {
		p.MinSplit = 2
	}
	if p.Confidence <= 0 {
		p.Confidence = 0.01
	}
	if p.Confidence > 1 {
		p.Confidence = 1
	}
	t, _ := fit(n, p.MinSplit, zFor(1-p.Confidence))
	return t
}

// fit copies the subtree n, cut at minSplit, and applies C4.5's
// pessimistic error pruning to the copy: replace a subtree with a leaf
// when the leaf's pessimistic error estimate does not exceed the
// subtree's. Smaller confidence inflates the estimates more aggressively
// for small nodes, pruning harder. It returns the copy and its estimate.
// A pruned node keeps its threshold; a cut node, like a grown leaf, has
// none.
func fit(n *Node, minSplit int, z float64) (*Node, float64) {
	leaf := pessimistic(n.ErrCount, n.N, z)
	if n.IsLeaf() || n.N < minSplit {
		return &Node{Feature: -1, Class: n.Class, ErrCount: n.ErrCount, N: n.N}, leaf
	}
	l, le := fit(n.Left, minSplit, z)
	r, re := fit(n.Right, minSplit, z)
	out := &Node{Feature: -1, Thr: n.Thr, Class: n.Class, ErrCount: n.ErrCount, N: n.N}
	sub := le + re
	if leaf <= sub+1e-12 {
		return out, leaf
	}
	out.Feature, out.Left, out.Right = n.Feature, l, r
	return out, sub
}

// pessimistic is the upper confidence bound on a node's error count: the
// classic C4.5 approximation via the z-score of the (1-confidence)
// quantile.
func pessimistic(errs float64, count int, z float64) float64 {
	if count == 0 {
		return 0
	}
	f := errs / float64(count)
	nn := float64(count)
	num := f + z*z/(2*nn) + z*math.Sqrt(f/nn-f*f/nn+z*z/(4*nn*nn))
	den := 1 + z*z/nn
	return num / den * nn
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
