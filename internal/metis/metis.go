// Package metis implements k-way graph partitioning in the style of METIS
// (Karypis & Kumar): greedy region growing followed by Kernighan-Lin-style
// boundary refinement under a balance constraint. The three tunable
// parameters are the allowed imbalance (METIS's ubfactor), the number of
// refinement passes, and the seed-growth greediness. The score is the edge
// cut (lower is better, MIN aggregation — Table I lists MAX over the
// negated score; we report the cut directly with Minimize set).
package metis

import (
	"math/rand"

	"repro/internal/dist"
)

// Graph is an undirected graph in adjacency-list form with unit edge
// weights.
type Graph struct {
	N   int
	Adj [][]int
}

// Params are the partitioner's tunables.
type Params struct {
	Imbalance float64 // allowed part size factor over the ideal (>= 1.0)
	Refine    int     // Kernighan-Lin refinement passes
	Greed     float64 // in [0,1]: probability of greedy (vs BFS-order) growth
}

// DefaultParams is the untuned configuration.
func DefaultParams() Params { return Params{Imbalance: 1.03, Refine: 0, Greed: 0} }

// WorkPerPartition is the work-unit cost of a full partition run.
const WorkPerPartition = 2.0

// Gen builds a graph of nparts planted communities of the given size:
// dense within communities (pIn) and sparse across (pOut). The planted
// partition is the quality reference.
func Gen(seed int64, nparts, size int, pIn, pOut float64) (Graph, []int) {
	r := rand.New(rand.NewSource(int64(dist.Mix(uint64(seed), 0x6E71))))
	n := nparts * size
	g := Graph{N: n, Adj: make([][]int, n)}
	truth := make([]int, n)
	for i := range truth {
		truth[i] = i / size
	}
	addEdge := func(a, b int) {
		g.Adj[a] = append(g.Adj[a], b)
		g.Adj[b] = append(g.Adj[b], a)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			p := pOut
			if truth[a] == truth[b] {
				p = pIn
			}
			if r.Float64() < p {
				addEdge(a, b)
			}
		}
	}
	return g, truth
}

// Partition splits g into nparts parts and returns the assignment.
// Deterministic in seed.
func Partition(g Graph, nparts int, p Params, seed int64) []int {
	if nparts < 2 {
		panic("metis: nparts must be >= 2")
	}
	if p.Imbalance < 1 {
		p.Imbalance = 1
	}
	r := rand.New(rand.NewSource(int64(dist.Mix(uint64(seed), uint64(nparts)))))
	part := make([]int, g.N)
	for i := range part {
		part[i] = -1
	}
	ideal := g.N / nparts
	capacity := int(float64(ideal)*p.Imbalance) + 1

	// Region growing: each part grows from a random seed, preferring the
	// frontier vertex with the most internal neighbors (greedy) or plain
	// BFS order, mixed by Greed.
	sizes := make([]int, nparts)
	for k := 0; k < nparts; k++ {
		seedV := -1
		for tries := 0; tries < g.N; tries++ {
			v := r.Intn(g.N)
			if part[v] == -1 {
				seedV = v
				break
			}
		}
		if seedV == -1 {
			for v := 0; v < g.N; v++ {
				if part[v] == -1 {
					seedV = v
					break
				}
			}
		}
		if seedV == -1 {
			break
		}
		part[seedV] = k
		sizes[k]++
		frontier := []int{seedV}
		for sizes[k] < ideal && len(frontier) > 0 {
			// Collect unassigned neighbors of the frontier.
			var cands []int
			for _, f := range frontier {
				for _, nb := range g.Adj[f] {
					if part[nb] == -1 {
						cands = append(cands, nb)
					}
				}
			}
			if len(cands) == 0 {
				break
			}
			var pick int
			if r.Float64() < p.Greed {
				// Greedy: the candidate with the most neighbors already in k.
				best, bestGain := cands[0], -1
				for _, c := range cands {
					gain := 0
					for _, nb := range g.Adj[c] {
						if part[nb] == k {
							gain++
						}
					}
					if gain > bestGain {
						best, bestGain = c, gain
					}
				}
				pick = best
			} else {
				pick = cands[0]
			}
			part[pick] = k
			sizes[k]++
			frontier = append(frontier, pick)
		}
	}
	// Assign leftovers to the smallest part.
	for v := 0; v < g.N; v++ {
		if part[v] == -1 {
			smallest := 0
			for k := 1; k < nparts; k++ {
				if sizes[k] < sizes[smallest] {
					smallest = k
				}
			}
			part[v] = smallest
			sizes[smallest]++
		}
	}

	// Kernighan-Lin-flavored refinement: move boundary vertices to the
	// neighboring part with the largest cut gain, respecting capacity.
	for pass := 0; pass < p.Refine; pass++ {
		moved := false
		for v := 0; v < g.N; v++ {
			cur := part[v]
			if sizes[cur] <= 1 {
				continue
			}
			counts := map[int]int{}
			for _, nb := range g.Adj[v] {
				counts[part[nb]]++
			}
			bestK, bestGain := cur, 0
			for k, c := range counts {
				if k == cur || sizes[k] >= capacity {
					continue
				}
				gain := c - counts[cur]
				if gain > bestGain {
					bestK, bestGain = k, gain
				}
			}
			if bestK != cur {
				part[v] = bestK
				sizes[cur]--
				sizes[bestK]++
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	return part
}

// Cut counts the edges crossing the partition (each undirected edge once).
func Cut(g Graph, part []int) int {
	cut := 0
	for v := 0; v < g.N; v++ {
		for _, nb := range g.Adj[v] {
			if nb > v && part[v] != part[nb] {
				cut++
			}
		}
	}
	return cut
}
