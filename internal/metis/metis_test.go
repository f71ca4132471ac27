package metis

import (
	"testing"
)

func genGraph() (Graph, []int) { return Gen(1, 4, 24, 0.35, 0.02) }

func TestGenPlantedStructure(t *testing.T) {
	g, truth := genGraph()
	if g.N != 96 || len(truth) != 96 {
		t.Fatalf("graph size %d", g.N)
	}
	// The planted partition must cut far fewer edges than a round-robin one.
	rr := make([]int, g.N)
	for i := range rr {
		rr[i] = i % 4
	}
	if Cut(g, truth) >= Cut(g, rr) {
		t.Fatal("planted partition is not better than round-robin; generator broken")
	}
}

func TestPartitionCoversAllVertices(t *testing.T) {
	g, _ := genGraph()
	part := Partition(g, 4, DefaultParams(), 1)
	if len(part) != g.N {
		t.Fatalf("partition length %d", len(part))
	}
	for v, k := range part {
		if k < 0 || k >= 4 {
			t.Fatalf("vertex %d in part %d", v, k)
		}
	}
}

func TestRefinementReducesCut(t *testing.T) {
	g, _ := genGraph()
	base := Partition(g, 4, Params{Imbalance: 1.05, Refine: 0, Greed: 0.5}, 2)
	refined := Partition(g, 4, Params{Imbalance: 1.05, Refine: 8, Greed: 0.5}, 2)
	if Cut(g, refined) > Cut(g, base) {
		t.Fatalf("refinement increased cut: %d -> %d", Cut(g, base), Cut(g, refined))
	}
}

func TestImbalanceRespected(t *testing.T) {
	g, _ := genGraph()
	p := Params{Imbalance: 1.10, Refine: 8, Greed: 0.8}
	part := Partition(g, 4, p, 3)
	if b := balance(g, part, 4); b > 1.30 {
		t.Fatalf("balance %g way over tolerance", b)
	}
}

func TestDeterministicInSeed(t *testing.T) {
	g, _ := genGraph()
	a := Partition(g, 4, DefaultParams(), 7)
	b := Partition(g, 4, DefaultParams(), 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Partition not deterministic")
		}
	}
}

func TestParamsMatterForCut(t *testing.T) {
	g, _ := genGraph()
	bad := Cut(g, Partition(g, 4, Params{Imbalance: 1.0, Refine: 0, Greed: 0}, 4))
	good := Cut(g, Partition(g, 4, Params{Imbalance: 1.1, Refine: 10, Greed: 0.9}, 4))
	if good >= bad {
		t.Fatalf("tuned params should cut less: good=%d bad=%d", good, bad)
	}
}

func TestCutCountsEachEdgeOnce(t *testing.T) {
	g := Graph{N: 2, Adj: [][]int{{1}, {0}}}
	if c := Cut(g, []int{0, 1}); c != 1 {
		t.Fatalf("Cut = %d, want 1", c)
	}
	if c := Cut(g, []int{0, 0}); c != 0 {
		t.Fatalf("Cut = %d, want 0", c)
	}
}

func TestPartitionValidation(t *testing.T) {
	g, _ := genGraph()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Partition(g, 1, DefaultParams(), 1)
}

// balance returns the maximum part size divided by the ideal size; 1.0 is
// perfectly balanced.
func balance(g Graph, part []int, nparts int) float64 {
	sizes := make([]int, nparts)
	for _, k := range part {
		sizes[k]++
	}
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	return float64(max) / (float64(g.N) / float64(nparts))
}
