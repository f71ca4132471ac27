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

// Distances allocates its n result rows plus a constant number of scratch
// slices, whatever the tree size.
func TestDistancesAllocs(t *testing.T) {
	tree := BuildTree(GenDataset(1, 9).TrueD, 1)
	allocs := testing.AllocsPerRun(100, func() { tree.Distances() })
	if limit := float64(tree.N + 8); allocs > limit {
		t.Fatalf("Distances on %d leaves allocates %.0f times, limit %.0f", tree.N, allocs, limit)
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
