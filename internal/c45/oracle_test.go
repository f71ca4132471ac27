package c45

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// log2Entropy is countEntropy as it was before the p*Log2(p) table: it
// calls math.Log2 for every class.
func log2Entropy(counts []int, n int) float64 {
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(n)
		h -= p * math.Log2(p)
	}
	return h
}

// TestPlogpMatchesLog2 compares every table entry, and the direct
// expressions beyond the table, with math.Log2 as grow used to call it,
// bit for bit: the entropy term for 0 < c <= n and the split information
// for 0 < c < n, for n up to three times the table bound.
func TestPlogpMatchesLog2(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	counts := make([]int, 3)
	for n := 1; n <= 3*tableN; n++ {
		for c := 1; c <= n; c++ {
			pl := float64(c) / float64(n)
			if got, want := plogp(c, n), pl*math.Log2(pl); !same(got, want) {
				t.Fatalf("n %d c %d: entropy term %v, Log2 %v", n, c, got, want)
			}
			if c < n {
				if got, want := splitInfo(c, n), -pl*math.Log2(pl)-(1-pl)*math.Log2(1-pl); !same(got, want) {
					t.Fatalf("n %d c %d: split information %v, Log2 %v", n, c, got, want)
				}
			}
			// Three classes with counts c, n-c and 0 in every order.
			counts[0], counts[1], counts[2] = c, n-c, 0
			for k := 0; k < 3; k++ {
				if got, want := countEntropy(counts, n), log2Entropy(counts, n); !same(got, want) {
					t.Fatalf("countEntropy(%v, %d) = %v, Log2 %v", counts, n, got, want)
				}
				counts[0], counts[1], counts[2] = counts[1], counts[2], counts[0]
			}
		}
	}
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

// partitionGrow is the obvious split search grow replaced: for every
// distinct-value midpoint it re-partitions idx by x <= thr and counts both
// sides from scratch, with math.Log2 for every entropy. It is the
// reference TestGrowMatchesPartitionOracle holds grow to.
func partitionGrow(ds Dataset, idx []int, p Params) *Node {
	class, errs := majority(ds, idx)
	node := &Node{Feature: -1, Class: class, ErrCount: errs, N: len(idx)}
	if len(idx) < p.MinSplit || errs == 0 {
		return node
	}
	entropy := func(idx []int) float64 {
		counts := make([]int, ds.Classes)
		for _, i := range idx {
			counts[ds.Y[i]]++
		}
		return log2Entropy(counts, len(idx))
	}
	baseH := entropy(idx)
	bestGR := 0.0
	bestF, bestThr := -1, 0.0
	for f := 0; f < len(ds.X[0]); f++ {
		var vals []float64
		for _, i := range idx {
			vals = append(vals, ds.X[i][f])
		}
		sort.Float64s(vals)
		for v := 0; v < len(vals)-1; v++ {
			if vals[v] == vals[v+1] {
				continue
			}
			thr := (vals[v] + vals[v+1]) / 2
			var li, ri []int
			for _, i := range idx {
				if ds.X[i][f] <= thr {
					li = append(li, i)
				} else {
					ri = append(ri, i)
				}
			}
			if len(li) == 0 || len(ri) == 0 {
				continue
			}
			pl := float64(len(li)) / float64(len(idx))
			gain := baseH - pl*entropy(li) - (1-pl)*entropy(ri)
			splitInfo := -pl*math.Log2(pl) - (1-pl)*math.Log2(1-pl)
			if splitInfo < 1e-9 {
				continue
			}
			if gr := gain / splitInfo; gr > bestGR {
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
	node.Left = partitionGrow(ds, li, p)
	node.Right = partitionGrow(ds, ri, p)
	return node
}

// sameTree reports the first difference between two trees, comparing
// thresholds and error counts bit for bit.
func sameTree(t *testing.T, path string, got, want *Node) {
	t.Helper()
	if got.Feature != want.Feature || math.Float64bits(got.Thr) != math.Float64bits(want.Thr) ||
		got.Class != want.Class || math.Float64bits(got.ErrCount) != math.Float64bits(want.ErrCount) ||
		got.N != want.N || got.IsLeaf() != want.IsLeaf() {
		t.Fatalf("node %s: got {f=%d thr=%x class=%d errs=%g n=%d leaf=%v}, want {f=%d thr=%x class=%d errs=%g n=%d leaf=%v}",
			path, got.Feature, math.Float64bits(got.Thr), got.Class, got.ErrCount, got.N, got.IsLeaf(),
			want.Feature, math.Float64bits(want.Thr), want.Class, want.ErrCount, want.N, want.IsLeaf())
	}
	if !got.IsLeaf() {
		sameTree(t, path+"L", got.Left, want.Left)
		sameTree(t, path+"R", got.Right, want.Right)
	}
}

// randDataset draws a dataset whose feature values come from a small
// pool, so duplicates are common. The pool includes adjacent-ulp pairs
// whose midpoint may round onto the larger value; ulpTies counts those.
func randDataset(r *rand.Rand, ulpTies *int) Dataset {
	n, dim, classes := 8+r.Intn(120), 1+r.Intn(4), 2+r.Intn(4)
	ds := Dataset{Classes: classes}
	var pool []float64
	for len(pool) < 2+r.Intn(8) {
		a := math.Float64frombits(math.Float64bits(r.Float64()) | 1)
		b := math.Nextafter(a, 2)
		if (a+b)/2 == b {
			*ulpTies++
		}
		pool = append(pool, a, b, float64(r.Intn(4)))
	}
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		for d := range x {
			x[d] = pool[r.Intn(len(pool))]
		}
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, r.Intn(classes))
	}
	return ds
}

func allIdx(ds Dataset) []int {
	idx := make([]int, len(ds.X))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// TestGrowMatchesPartitionOracle holds the grown tree, with its features
// sorted once at the root, to the from-scratch split search at MinSplit 2.
func TestGrowMatchesPartitionOracle(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	ulpTies := 0
	for trial := 0; trial < 200; trial++ {
		ds := randDataset(r, &ulpTies)
		sameTree(t, "root", Grow(ds), partitionGrow(ds, allIdx(ds), Params{MinSplit: 2}))
	}
	if ulpTies == 0 {
		t.Fatal("no adjacent-ulp pair whose midpoint rounds onto the larger value")
	}
	// The bench workload itself, at the depth the learner reaches on it.
	ds := Gen(11, 360, 6, 4, 0.2)
	sameTree(t, "root", Grow(ds), partitionGrow(ds, allIdx(ds), DefaultParams()))
}

// earlyStopGrow is how Train grew a tree before Grow and Fit: it stops
// at every node of fewer than p.MinSplit examples and sorts each feature
// afresh at every node. It is the reference TestFitMatchesEarlyStopOracle
// holds Fit to.
func earlyStopGrow(ds Dataset, idx []int, p Params) *Node {
	class, errs := majority(ds, idx)
	node := &Node{Feature: -1, Class: class, ErrCount: errs, N: len(idx)}
	if len(idx) < p.MinSplit || errs == 0 {
		return node
	}
	total := make([]int, ds.Classes)
	for _, i := range idx {
		total[ds.Y[i]]++
	}
	baseH := countEntropy(total, len(idx))
	bestGR := 0.0
	bestF, bestThr := -1, 0.0
	order := make([]int, len(idx))
	left := make([]int, ds.Classes)
	right := make([]int, ds.Classes)
	for f := 0; f < len(ds.X[0]); f++ {
		copy(order, idx)
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(ds.X[a][f], ds.X[b][f]) })
		clear(left)
		k := 0
		for v := 0; v < len(order)-1; v++ {
			a, b := ds.X[order[v]][f], ds.X[order[v+1]][f]
			if a == b {
				continue
			}
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
	node.Left = earlyStopGrow(ds, li, p)
	node.Right = earlyStopGrow(ds, ri, p)
	return node
}

// inPlacePrune is the pessimistic pruning Fit replaced: it prunes the
// tree in place, computing the z-score at every node.
func inPlacePrune(n *Node, confidence float64) float64 {
	pess := func(errs float64, count int) float64 {
		if count == 0 {
			return 0
		}
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
	sub := inPlacePrune(n.Left, confidence) + inPlacePrune(n.Right, confidence)
	leaf := pess(n.ErrCount, n.N)
	if leaf <= sub+1e-12 {
		n.Left, n.Right = nil, nil
		n.Feature = -1
		return leaf
	}
	return sub
}

// earlyStopTrain is Train as it was: the early-stopping grow, then
// in-place pruning, with the same parameter clamps.
func earlyStopTrain(ds Dataset, p Params) *Node {
	if p.MinSplit < 2 {
		p.MinSplit = 2
	}
	if p.Confidence <= 0 {
		p.Confidence = 0.01
	}
	if p.Confidence > 1 {
		p.Confidence = 1
	}
	root := earlyStopGrow(ds, allIdx(ds), p)
	inPlacePrune(root, p.Confidence)
	return root
}

// TestFitMatchesEarlyStopOracle cuts and prunes one grown tree per
// dataset for many parameter pairs and holds each result, thresholds and
// error counts bit for bit, to the tree the early-stopping learner grows
// and prunes from scratch. MinSplit covers the tuned range 2-40 and
// beyond its clamp; Confidence covers both clamps and the tuned range.
// Fit must leave the grown tree as it found it.
func TestFitMatchesEarlyStopOracle(t *testing.T) {
	r := rand.New(rand.NewSource(4545))
	ulpTies := 0
	confs := []float64{-1, 0, 0.005, 0.01, 0.25, 0.5, 1, 99}
	check := func(ds Dataset) {
		t.Helper()
		grown := Grow(ds)
		before := Grow(ds)
		for _, ms := range []int{0, 1, 2, 3, 5, 8, 13, 21, 40, 2 + r.Intn(39)} {
			for _, conf := range append(confs, math.Exp(math.Log(0.005)*r.Float64())) {
				p := Params{Confidence: conf, MinSplit: ms}
				sameTree(t, fmt.Sprintf("root(%+v)", p), grown.Fit(p), earlyStopTrain(ds, p))
			}
		}
		sameTree(t, "grown", grown, before)
	}
	for trial := 0; trial < 60; trial++ {
		check(randDataset(r, &ulpTies))
	}
	if ulpTies == 0 {
		t.Fatal("no adjacent-ulp pair whose midpoint rounds onto the larger value")
	}
	// The bench workload's training folds.
	for seed := int64(1); seed <= 2; seed++ {
		check(Gen(seed, 240, 6, 4, 0.2))
	}
}

func TestTrainEmptyDatasetIsOneLeaf(t *testing.T) {
	for _, p := range []Params{DefaultParams(), {Confidence: 1, MinSplit: 40}} {
		tree := Train(Dataset{Classes: 3}, p)
		if !tree.IsLeaf() || tree.N != 0 || tree.Class != 0 || tree.ErrCount != 0 {
			t.Fatalf("Train on no examples with %+v = %+v, want one empty leaf", p, *tree)
		}
	}
}

// TestConcurrentFit shares one grown tree among goroutines that each fit
// it for their own parameters, as the samples of a C4.5 region do; under
// -race it fails if Fit writes to the grown tree.
func TestConcurrentFit(t *testing.T) {
	ds := Gen(9, 240, 6, 4, 0.2)
	grown := Grow(ds)
	params := func(g int) Params { return Params{Confidence: 0.005 + 0.1*float64(g), MinSplit: 2 + 4*g} }
	want := make([]*Node, 8)
	for g := range want {
		want[g] = earlyStopTrain(ds, params(g))
	}
	got := make([]*Node, len(want))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				got[g] = grown.Fit(params(g))
			}
		}()
	}
	wg.Wait()
	for g := range got {
		sameTree(t, fmt.Sprintf("goroutine %d", g), got[g], want[g])
	}
}

func BenchmarkGrow(b *testing.B) {
	ds := Gen(1, 360, 6, 4, 0.2) // the C4.5 bench dataset
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchTree = Grow(ds)
	}
}

// BenchmarkFit is one C4.5 sample's training: cutting and pruning a
// grown tree, with MinSplit and Confidence swept over their tuned ranges.
func BenchmarkFit(b *testing.B) {
	ds := Gen(1, 360, 6, 4, 0.2)
	grown := Grow(ds)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchTree = grown.Fit(Params{Confidence: 0.005 + float64(i%7)*0.15, MinSplit: 2 + i%39})
	}
}

var benchTree *Node
