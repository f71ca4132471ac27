package c45

import (
	"math"
	"math/rand"
	"sort"
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

func TestGrowMatchesPartitionOracle(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	ulpTies := 0
	for trial := 0; trial < 200; trial++ {
		n, dim, classes := 8+r.Intn(120), 1+r.Intn(4), 2+r.Intn(4)
		ds := Dataset{Classes: classes}
		// Feature values come from a small pool, so duplicates are common;
		// the pool includes adjacent-ulp pairs whose midpoint rounds onto
		// the larger value.
		var pool []float64
		for len(pool) < 2+r.Intn(8) {
			a := math.Float64frombits(math.Float64bits(r.Float64()) | 1)
			b := math.Nextafter(a, 2)
			if (a+b)/2 == b {
				ulpTies++
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
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		p := Params{MinSplit: 2 + r.Intn(6)}
		sameTree(t, "root", grow(ds, idx, p), partitionGrow(ds, idx, p))
	}
	if ulpTies == 0 {
		t.Fatal("no adjacent-ulp pair whose midpoint rounds onto the larger value")
	}
	// The bench workload itself, at the depth the learner reaches on it.
	ds := Gen(11, 360, 6, 4, 0.2)
	idx := make([]int, len(ds.X))
	for i := range idx {
		idx[i] = i
	}
	sameTree(t, "root", grow(ds, idx, DefaultParams()), partitionGrow(ds, idx, DefaultParams()))
}

func BenchmarkGrow(b *testing.B) {
	ds := Gen(1, 360, 6, 4, 0.2) // the C4.5 bench dataset
	idx := make([]int, len(ds.X))
	for i := range idx {
		idx[i] = i
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		grow(ds, idx, DefaultParams())
	}
}
