package phylip

import (
	"math"
	"math/rand"
	"testing"
)

// mapDistances is the obvious tree-distance computation Distances replaced:
// a map adjacency and a map-backed BFS from every leaf. It is the reference
// TestDistancesMatchesMapOracle holds Distances to.
func mapDistances(t Tree) [][]float64 {
	adj := map[int][]TreeEdge{}
	for _, e := range t.Edges {
		adj[e.A] = append(adj[e.A], e)
		adj[e.B] = append(adj[e.B], TreeEdge{A: e.B, B: e.A, W: e.W})
	}
	out := mat(t.N)
	for s := 0; s < t.N; s++ {
		distTo := map[int]float64{s: 0}
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, e := range adj[v] {
				if _, ok := distTo[e.B]; !ok {
					distTo[e.B] = distTo[v] + e.W
					queue = append(queue, e.B)
				}
			}
		}
		for u := 0; u < t.N; u++ {
			out[s][u] = distTo[u]
		}
	}
	return out
}

// randomMatrix is a symmetric non-negative matrix, far from additive, with
// some zero entries, so neighbor joining clamps some branches to zero.
func randomMatrix(r *rand.Rand, n int) [][]float64 {
	d := mat(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := r.ExpFloat64()
			if r.Intn(5) == 0 {
				v = 0
			}
			d[i][j], d[j][i] = v, v
		}
	}
	return d
}

func TestDistancesMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	zeroEdges := 0
	for n := 3; n <= 12; n++ {
		for trial := 0; trial < 20; trial++ {
			d := randomMatrix(r, n)
			nj := neighborJoin(d)
			refined := BuildTree(d, 3*r.Float64())
			for _, tree := range []Tree{nj, refined} {
				for _, e := range tree.Edges {
					if e.W == 0 {
						zeroEdges++
					}
				}
				got, want := tree.Distances(), mapDistances(tree)
				for i := range want {
					for j := range want[i] {
						if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
							t.Fatalf("n=%d: Distances[%d][%d] = %x, oracle %x", n, i, j,
								math.Float64bits(got[i][j]), math.Float64bits(want[i][j]))
						}
					}
				}
			}
		}
	}
	if zeroEdges == 0 {
		t.Fatal("no zero-weight edge among the trees")
	}
}

// refRefine is the refinement refine replaced: every edge scans every leaf
// pair against a path-membership table, re-sums its weights each pass, and
// a changed branch length recomputes the whole distance matrix.
func refRefine(t *Tree, d [][]float64, power float64, iters int) {
	n := t.N
	paths := refPathEdges(*t)
	w := mat(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w[i][j] = 1.0
			if power != 0 {
				w[i][j] = 1 / math.Pow(math.Max(d[i][j], 1e-3), power)
			}
		}
	}
	for it := 0; it < iters; it++ {
		T := mapDistances(*t)
		changed := false
		for e := range t.Edges {
			num, den := 0.0, 0.0
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if !paths[i][j][e] {
						continue
					}
					num += w[i][j] * (d[i][j] - T[i][j])
					den += w[i][j]
				}
			}
			if den == 0 {
				continue
			}
			delta := num / den
			nw := math.Max(t.Edges[e].W+delta, 0)
			if math.Abs(nw-t.Edges[e].W) > 1e-9 {
				t.Edges[e].W = nw
				changed = true
				T = mapDistances(*t)
			}
		}
		if !changed {
			break
		}
	}
}

// refPathEdges[i][j][e] reports whether edge e lies on the i-j path, found
// by walking a map-backed DFS tree back from j to i.
func refPathEdges(t Tree) [][][]bool {
	adj := map[int][]int{} // node -> incident edge indices
	for k, e := range t.Edges {
		adj[e.A] = append(adj[e.A], k)
		adj[e.B] = append(adj[e.B], k)
	}
	out := make([][][]bool, t.N)
	for i := 0; i < t.N; i++ {
		out[i] = make([][]bool, t.N)
		via := map[int]int{i: -1} // node -> edge it was reached by
		from := map[int]int{}
		stack := []int{i}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, k := range adj[v] {
				u := t.Edges[k].A + t.Edges[k].B - v
				if _, ok := via[u]; !ok {
					via[u], from[u] = k, v
					stack = append(stack, u)
				}
			}
		}
		for j := 0; j < t.N; j++ {
			if j == i {
				continue
			}
			mark := make([]bool, len(t.Edges))
			for v := j; v != i; v = from[v] {
				mark[via[v]] = true
			}
			out[i][j] = mark
		}
	}
	return out
}

// TestRefineMatchesFullRecomputeOracle holds refine, which re-sums only
// the pairs and distances a branch change touches, to the full-scan,
// full-recompute refinement bit for bit: on random non-additive matrices,
// on the benchmark's own distance matrices, and on edge rows (power 0,
// additive input, a zero matrix, a single refinement pass).
func TestRefineMatchesFullRecomputeOracle(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	type input struct {
		d     [][]float64
		power float64
		iters int
	}
	var inputs []input
	for n := 3; n <= 14; n++ {
		for trial := 0; trial < 30; trial++ {
			inputs = append(inputs, input{randomMatrix(r, n), 3 * r.Float64(), 20})
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		ds := GenDataset(seed, 9)
		prm := Params{Ease: 0.3 + 2.2*r.Float64(), InvarFrac: 0.4 * r.Float64(), CVI: 0.5 + 1.5*r.Float64()}
		inputs = append(inputs, input{DistMatrix(ds.PObs, prm), 3 * r.Float64(), 20})
	}
	for _, n := range []int{3, 4, 9, 13} {
		ds := GenDataset(int64(n), max(n, 4))
		inputs = append(inputs,
			input{randomMatrix(r, n), 0, 20},
			input{ds.TrueD, 1.5, 20},
			input{mat(n), 2, 20},
			input{randomMatrix(r, n), 1, 1})
	}
	changedAny := 0
	for k, in := range inputs {
		nj := neighborJoin(in.d)
		got := Tree{N: nj.N, Edges: append([]TreeEdge(nil), nj.Edges...)}
		want := Tree{N: nj.N, Edges: append([]TreeEdge(nil), nj.Edges...)}
		got.refine(in.d, in.power, in.iters)
		refRefine(&want, in.d, in.power, in.iters)
		for e := range want.Edges {
			if math.Float64bits(got.Edges[e].W) != math.Float64bits(want.Edges[e].W) {
				t.Fatalf("input %d (n=%d, power %g): edge %d weight %v, oracle %v",
					k, len(in.d), in.power, e, got.Edges[e].W, want.Edges[e].W)
			}
			if want.Edges[e].W != nj.Edges[e].W {
				changedAny++
			}
		}
	}
	if changedAny == 0 {
		t.Fatal("refinement moved no branch on any input")
	}
}

// Distances allocates its n result rows plus a constant number of scratch
// slices, whatever the tree size.
func TestDistancesAllocs(t *testing.T) {
	tree := BuildTree(GenDataset(1, 9).TrueD, 1)
	allocs := testing.AllocsPerRun(100, func() { tree.Distances() })
	if limit := float64(tree.N + 8); allocs > limit {
		t.Fatalf("Distances on %d leaves allocates %.0f times, limit %.0f", tree.N, allocs, limit)
	}
}

// BuildTree allocates neighbor joining's distance rows and a constant
// number of slices besides: refinement's pair lists, hops and distances
// are each one flat slice, however many pairs a branch change touches.
func TestBuildTreeAllocs(t *testing.T) {
	for _, n := range []int{5, 9, 14} {
		ds := GenDataset(1, n)
		d := DistMatrix(ds.PObs, DefaultParams())
		allocs := testing.AllocsPerRun(20, func() { BuildTree(d, 1) })
		if limit := float64(3*n + 16); allocs > limit {
			t.Fatalf("BuildTree on %d species allocates %.0f times, limit %.0f", n, allocs, limit)
		}
	}
}

func BenchmarkTreeDistances(b *testing.B) {
	tree := BuildTree(GenDataset(1, 9).TrueD, 1) // 9 species, as the Phylip bench uses
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tree.Distances()
	}
}

func BenchmarkBuildTree(b *testing.B) {
	ds := GenDataset(1, 9)
	d := DistMatrix(ds.PObs, DefaultParams())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildTree(d, 1)
	}
}
