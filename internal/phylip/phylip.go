// Package phylip implements the staged phylogenetic-tree pipeline of the
// paper's Phylip benchmark (Felsenstein's PHYLIP dnadist + fitch): five
// stages with tunable parameters in stages 1, 3 and 5 (Fig. 14):
//
//	stage 1  transition-probability model        — tunable ease
//	stage 2  load + preprocess sequences         — (expensive, untuned)
//	stage 3  distance matrix from the model      — tunable invarfrac, cvi
//	stage 4  tree initialization                 — (untuned)
//	stage 5  tree construction + branch fitting  — tunable power
//
// The observed data are pairwise substitution fractions generated from a
// hidden random tree through a saturating substitution model with hidden
// nuisance parameters; recovering a good tree requires inverting that model
// with well-chosen ease/invarfrac/cvi, then fitting branch lengths under
// the right least-squares weighting power. The default score is the sum of
// squares between tree distances and the distance matrix (lower is better).
package phylip

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dist"
)

// Params are the tunables across the three tuned stages.
type Params struct {
	Ease      float64 // stage 1: substitution rate scale
	InvarFrac float64 // stage 3: fraction of invariant sites
	CVI       float64 // stage 3: rate-variation correction factor
	Power     float64 // stage 5: least-squares weighting exponent
}

// DefaultParams is the untuned configuration.
func DefaultParams() Params {
	return Params{Ease: 1, InvarFrac: 0, CVI: 1, Power: 0}
}

// Work-unit costs per stage; loading dominates, as in the paper.
const (
	WorkLoad  = 25.0
	WorkTrans = 0.5
	WorkDist  = 1.0
	WorkTree  = 2.0
)

// Dataset is one Phylip workload: observed substitution fractions plus the
// hidden true tree distances used only for quality reporting.
type Dataset struct {
	N     int
	PObs  [][]float64 // observed substitution fraction per species pair
	TrueD [][]float64 // ground-truth tree path distances
}

// GenDataset builds a workload of n species: a random tree defines true
// distances; observations pass through a saturating substitution model
// p = (1-invar) * (1 - exp(-d / ease)) with hidden per-dataset ease and
// invariant fraction, plus observation noise.
func GenDataset(seed int64, n int) Dataset {
	if n < 4 {
		panic("phylip: need at least 4 species")
	}
	r := rand.New(rand.NewSource(int64(dist.Mix(uint64(seed), 0x9472))))
	trueD := randomTreeDistances(r, n)

	hiddenEase := 0.5 + 1.5*r.Float64()
	hiddenInvar := 0.05 + 0.3*r.Float64()
	pobs := mat(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := (1 - hiddenInvar) * (1 - math.Exp(-trueD[i][j]/hiddenEase))
			p += r.NormFloat64() * 0.004
			p = math.Min(1-hiddenInvar-1e-4, math.Max(1e-5, p))
			pobs[i][j], pobs[j][i] = p, p
		}
	}
	return Dataset{N: n, PObs: pobs, TrueD: trueD}
}

// randomTreeDistances samples a random binary tree over n leaves with
// exponential branch lengths and returns the leaf-to-leaf path distances.
func randomTreeDistances(r *rand.Rand, n int) [][]float64 {
	// Build by sequential attachment: leaf i joins a random existing edge.
	t := Tree{N: n}
	next := n // internal node ids from n upward
	bl := func() float64 { return 0.1 + r.ExpFloat64()*0.45 }
	t.Edges = append(t.Edges, TreeEdge{0, 1, bl()})
	nodes := []int{0, 1}
	for leaf := 2; leaf < n; leaf++ {
		// Attach via a new internal node spliced next to a random node.
		host := nodes[r.Intn(len(nodes))]
		inner := next
		next++
		t.Edges = append(t.Edges, TreeEdge{host, inner, bl()})
		t.Edges = append(t.Edges, TreeEdge{inner, leaf, bl()})
		nodes = append(nodes, leaf, inner)
	}
	return t.Distances()
}

func mat(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	return m
}

// TransMatrix is stage 1: the 4x4 nucleotide transition-probability model
// induced by ease at unit time (Jukes-Cantor form). It is the sample result
// variable aggregated with DEDUP: runs whose quantized matrices coincide
// are pruned to one.
func TransMatrix(ease float64) [4][4]float64 {
	if ease <= 0 {
		ease = 1e-3
	}
	var m [4][4]float64
	same := 0.25 + 0.75*math.Exp(-1/ease)
	diff := (1 - same) / 3
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				m[i][j] = same
			} else {
				m[i][j] = diff
			}
		}
	}
	return m
}

// QuantizeMatrix renders a transition matrix at 2-decimal precision — the
// DEDUP key for stage 1 (sample runs with indistinguishable models are
// duplicates).
func QuantizeMatrix(m [4][4]float64) string {
	return fmt.Sprintf("%.2f/%.2f", m[0][0], m[0][1])
}

// DistMatrix is stage 3: invert the substitution model to estimate
// evolutionary distances, d = -ease * cvi * ln(1 - p/(1-invarfrac)).
// Saturated pairs (p beyond the invertible range) are clamped to the
// largest finite estimate.
func DistMatrix(pobs [][]float64, p Params) [][]float64 {
	n := len(pobs)
	out := mat(n)
	ease := math.Max(p.Ease, 1e-3)
	invar := math.Min(0.95, math.Max(0, p.InvarFrac))
	cvi := math.Max(p.CVI, 1e-3)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			frac := pobs[i][j] / (1 - invar)
			var d float64
			if frac >= 1 {
				d = dMax
			} else {
				d = -ease * cvi * math.Log(1-frac)
				if d > dMax {
					d = dMax
				}
			}
			out[i][j], out[j][i] = d, d
		}
	}
	return out
}

// FourPointViolation measures how far a distance matrix is from being
// additive (tree-like): for every quartet {i,j,k,l}, the two largest of the
// three pairings of pairwise sums must be equal on a tree metric. The
// result is the mean relative gap between them — 0 for an exactly additive
// matrix. This is the internal stage-3 score: a well-inverted substitution
// model produces a near-additive matrix without ever looking at ground
// truth.
func FourPointViolation(d [][]float64) float64 {
	n := len(d)
	total, count := 0.0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := j + 1; k < n; k++ {
				for l := k + 1; l < n; l++ {
					s1 := d[i][j] + d[k][l]
					s2 := d[i][k] + d[j][l]
					s3 := d[i][l] + d[j][k]
					max1, max2 := s1, s2
					if max2 > max1 {
						max1, max2 = max2, max1
					}
					if s3 > max1 {
						max1, max2 = s3, max1
					} else if s3 > max2 {
						max2 = s3
					}
					if max1 > 0 {
						total += (max1 - max2) / max1
						count++
					}
				}
			}
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// Tree is an unrooted phylogenetic tree over n leaves (ids 0..n-1) with
// weighted edges; internal nodes have ids >= n.
type Tree struct {
	N     int
	Edges []TreeEdge
}

// TreeEdge is one weighted tree edge.
type TreeEdge struct {
	A, B int
	W    float64
}

// BuildTree is stage 5: neighbor joining over the distance matrix followed
// by weighted least-squares branch-length refinement with weight 1/d^power
// (Fitch-Margoliash). Higher power trusts short distances more.
func BuildTree(d [][]float64, power float64) Tree {
	t := neighborJoin(d)
	t.refine(d, power, 20)
	return t
}

// neighborJoin is the classic Saitou-Nei algorithm.
func neighborJoin(d [][]float64) Tree {
	n := len(d)
	if n < 3 {
		panic("phylip: neighbor joining needs >= 3 taxa")
	}
	// Working copies; active holds current node ids. Joins create ids n,
	// n+1, ..., 2n-3 (the last center), so dm and rs are indexed by id.
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	dm := mat(2*n - 2)
	set := func(a, b int, v float64) { dm[a][b], dm[b][a] = v, v }
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			set(i, j, d[i][j])
		}
	}
	rs := make([]float64, 2*n-2)
	tree := Tree{N: n}
	next := n
	for len(active) > 3 {
		m := len(active)
		// Row sums.
		for _, a := range active {
			s := 0.0
			for _, b := range active {
				if a != b {
					s += dm[a][b]
				}
			}
			rs[a] = s
		}
		// Minimize Q.
		bi, bj := -1, -1
		bestQ := math.Inf(1)
		for x := 0; x < m; x++ {
			for y := x + 1; y < m; y++ {
				a, b := active[x], active[y]
				q := float64(m-2)*dm[a][b] - rs[a] - rs[b]
				if q < bestQ {
					bestQ, bi, bj = q, x, y
				}
			}
		}
		a, b := active[bi], active[bj]
		u := next
		next++
		la := 0.5*dm[a][b] + (rs[a]-rs[b])/(2*float64(m-2))
		lb := dm[a][b] - la
		tree.Edges = append(tree.Edges,
			TreeEdge{A: a, B: u, W: math.Max(la, 0)},
			TreeEdge{A: b, B: u, W: math.Max(lb, 0)})
		for _, k := range active {
			if k == a || k == b {
				continue
			}
			set(u, k, 0.5*(dm[a][k]+dm[b][k]-dm[a][b]))
		}
		// Remove a, b; add u.
		na := active[:0]
		for _, k := range active {
			if k != a && k != b {
				na = append(na, k)
			}
		}
		active = append(na, u)
	}
	// Join the last three around one center.
	a, b, c := active[0], active[1], active[2]
	u := next
	la := 0.5 * (dm[a][b] + dm[a][c] - dm[b][c])
	lb := 0.5 * (dm[a][b] + dm[b][c] - dm[a][c])
	lc := 0.5 * (dm[a][c] + dm[b][c] - dm[a][b])
	tree.Edges = append(tree.Edges,
		TreeEdge{A: a, B: u, W: math.Max(la, 0)},
		TreeEdge{A: b, B: u, W: math.Max(lb, 0)},
		TreeEdge{A: c, B: u, W: math.Max(lc, 0)})
	return tree
}

// refine runs coordinate-descent weighted least squares on branch lengths:
// for each edge, the optimal adjustment given the paths through it.
//
// Only the leaf pairs whose path crosses an edge enter its sums, in i, j
// order as a full scan would visit them. A changed branch length re-sums
// only the leaf-to-node distances across it, each as distance-to-parent
// plus edge, which is how Distances reaches that node: every distance read
// is the one a fresh Distances would give, bit for bit. An incremental
// T += delta would not be.
func (t *Tree) refine(d [][]float64, power float64, iters int) {
	n := t.N
	start, arcs := t.adjacency()
	nodes := len(start) - 1
	dist := t.fromLeaves(start, arcs) // leaf i to node j at i*nodes+j
	cuts := t.cuts(start, arcs)
	// The pair terms share dist's layout, so a cut's pair index reads all three.
	dd := make([]float64, n*nodes)
	w := make([]float64, n*nodes)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			k := i*nodes + j
			dd[k] = d[i][j]
			w[k] = 1.0
			if power != 0 {
				w[k] = 1 / math.Pow(math.Max(d[i][j], 1e-3), power)
			}
		}
	}
	// The weights never change, so neither does an edge's denominator.
	den := make([]float64, len(t.Edges))
	for e, c := range cuts {
		for _, k := range c.pairs {
			den[e] += w[k]
		}
	}
	for it := 0; it < iters; it++ {
		changed := false
		for e, c := range cuts {
			if den[e] == 0 {
				continue
			}
			num := 0.0
			for _, k := range c.pairs {
				num += w[k] * (dd[k] - dist[k])
			}
			delta := num / den[e]
			nw := math.Max(t.Edges[e].W+delta, 0)
			if math.Abs(nw-t.Edges[e].W) > 1e-9 {
				t.Edges[e].W = nw
				changed = true
				// Each leaf re-sums the nodes beyond the edge from it.
				for near, hops := range c.sides {
					far := c.sides[1-near]
					for _, leaf := range hops {
						if leaf.node >= n {
							continue
						}
						row := dist[leaf.node*nodes : (leaf.node+1)*nodes]
						for _, h := range far {
							row[h.node] = row[h.from] + t.Edges[h.edge].W
						}
					}
				}
			}
		}
		if !changed {
			break
		}
	}
}

// cut is what one tree edge separates. sides[0] holds the nodes on its A
// end's side, sides[1] those on its B end's, each as the hops that reach
// them from the edge, parents first. pairs indexes, as leaf i*nodes+j, every
// leaf pair i < j whose path crosses the edge, in i, j order.
type cut struct {
	sides [2][]hop
	pairs []int
}

// hop reaches node from its parent along edge.
type hop struct{ node, from, edge int }

// cuts returns every edge's cut.
func (t *Tree) cuts(start []int, arcs []arc) []cut {
	n, nodes := t.N, len(start)-1
	out := make([]cut, len(t.Edges))
	// The two sides of an edge hold every node once.
	hops := make([]hop, 0, len(t.Edges)*nodes)
	// An edge with a leaves on one side crosses a*(n-a) <= n*n/4 pairs.
	pairs := make([]int, 0, len(t.Edges)*(n*n/4))
	side := make([]int, nodes)
	for e, te := range t.Edges {
		for s, root := range [2]hop{{te.A, te.B, e}, {te.B, te.A, e}} {
			first := len(hops)
			hops = append(hops, root)
			for k := first; k < len(hops); k++ {
				h := hops[k]
				side[h.node] = s
				for _, a := range arcs[start[h.node]:start[h.node+1]] {
					if a.edge != h.edge {
						hops = append(hops, hop{a.to, h.node, a.edge})
					}
				}
			}
			out[e].sides[s] = hops[first:len(hops):len(hops)]
		}
		first := len(pairs)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if side[i] != side[j] {
					pairs = append(pairs, i*nodes+j)
				}
			}
		}
		out[e].pairs = pairs[first:len(pairs):len(pairs)]
	}
	return out
}

// arc is one direction of a tree edge in the CSR adjacency.
type arc struct{ to, edge int }

// adjacency returns the tree's CSR adjacency: node v's arcs are
// arcs[start[v]:start[v+1]], in t.Edges order.
func (t *Tree) adjacency() (start []int, arcs []arc) {
	nodes := t.N
	for _, e := range t.Edges {
		nodes = max(nodes, e.A+1, e.B+1)
	}
	start = make([]int, nodes+1)
	for _, e := range t.Edges {
		start[e.A+1]++
		start[e.B+1]++
	}
	for v := 0; v < nodes; v++ {
		start[v+1] += start[v]
	}
	arcs = make([]arc, 2*len(t.Edges))
	fill := append([]int(nil), start[:nodes]...)
	for k, e := range t.Edges {
		arcs[fill[e.A]] = arc{e.B, k}
		fill[e.A]++
		arcs[fill[e.B]] = arc{e.A, k}
		fill[e.B]++
	}
	return start, arcs
}

// Distances returns the leaf-to-leaf path-length matrix of the tree.
func (t *Tree) Distances() [][]float64 {
	start, arcs := t.adjacency()
	nodes := len(start) - 1
	dist := t.fromLeaves(start, arcs)
	out := mat(t.N)
	for s, row := range out {
		copy(row, dist[s*nodes:])
	}
	return out
}

// fromLeaves returns the path length from every leaf s to every node v, at
// s*nodes+v. Each is one sum along the unique path from the leaf, so the
// traversal order does not change a bit of it.
func (t *Tree) fromLeaves(start []int, arcs []arc) []float64 {
	nodes := len(start) - 1
	dist := make([]float64, t.N*nodes)
	seen := make([]bool, nodes)
	queue := make([]int, 0, nodes)
	for s := 0; s < t.N; s++ {
		distTo := dist[s*nodes : (s+1)*nodes]
		clear(seen)
		seen[s] = true
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, a := range arcs[start[v]:start[v+1]] {
				if !seen[a.to] {
					seen[a.to] = true
					distTo[a.to] = distTo[v] + t.Edges[a.edge].W
					queue = append(queue, a.to)
				}
			}
		}
	}
	return dist
}

// SumOfSquares is Phylip's default score: Σ (d_ij - t_ij)² over pairs,
// lower is better. Used both as the internal tuning score (against the
// computed distance matrix) and the quality score (against the true
// distances).
func SumOfSquares(d [][]float64, t Tree) float64 {
	T := t.Distances()
	n := len(d)
	s := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			diff := d[i][j] - T[i][j]
			s += diff * diff
		}
	}
	return s
}

// SaturatedEntries counts the pairs whose distance hit the saturation
// clamp in DistMatrix — the substitution model could not be inverted for
// them under the given parameters. A matrix with saturated entries is
// degenerate: its many equal clamped distances mimic additivity and fool
// tree-likeness scores, so tuning programs prune such samples.
func SaturatedEntries(d [][]float64) int {
	n := len(d)
	c := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d[i][j] >= dMax-1e-9 {
				c++
			}
		}
	}
	return c
}

// dMax is the saturation clamp of DistMatrix.
const dMax = 12.0

// NormalizedSS is the scale-free variant of SumOfSquares: the raw sum of
// squares divided by the squared mean off-diagonal distance. Comparing raw
// sums across parameter settings is biased — a small ease shrinks every
// distance and with it the absolute error — so tuning drives the
// normalized score instead.
func NormalizedSS(d [][]float64, t Tree) float64 {
	n := len(d)
	mean := 0.0
	pairs := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mean += d[i][j]
			pairs++
		}
	}
	if pairs == 0 {
		return 0
	}
	mean /= float64(pairs)
	if mean <= 0 {
		return math.Inf(1)
	}
	return SumOfSquares(d, t) / (mean * mean)
}

// ScaleFreeSS compares a tree against a reference distance matrix up to a
// global scale: it fits the least-squares optimal scale s for the tree
// distances and returns Σ (d_ij - s·t_ij)² / Σ d_ij². The substitution
// model leaves the absolute distance scale unidentifiable (ease and cvi
// multiply freely), so judging an estimated tree against the true tree must
// be scale-invariant; topology and relative branch lengths are what can be
// recovered.
func ScaleFreeSS(d [][]float64, t Tree) float64 {
	T := t.Distances()
	n := len(d)
	var dot, tt, dd float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dot += d[i][j] * T[i][j]
			tt += T[i][j] * T[i][j]
			dd += d[i][j] * d[i][j]
		}
	}
	if dd == 0 {
		return 0
	}
	s := 0.0
	if tt > 0 {
		s = dot / tt
	}
	ss := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			diff := d[i][j] - s*T[i][j]
			ss += diff * diff
		}
	}
	return ss / dd
}

// Run executes stages 1-5 for one parameter configuration and returns the
// tree plus the distance matrix it was built from.
func Run(ds Dataset, p Params) (Tree, [][]float64) {
	_ = TransMatrix(p.Ease) // stage 1 (the model feeding stage 3's inversion)
	d := DistMatrix(ds.PObs, p)
	t := BuildTree(d, p.Power)
	return t, d
}

// Quality scores a tree against the hidden true distances (reporting
// only), up to the unidentifiable global scale.
func Quality(ds Dataset, t Tree) float64 {
	return ScaleFreeSS(ds.TrueD, t)
}
