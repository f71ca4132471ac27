// Package topn implements an item-based k-nearest-neighbor top-N
// recommender in the spirit of SLIM (Ning & Karypis), the paper's TOPN Rec
// benchmark. The three tunable parameters are the neighborhood size k, the
// similarity shrinkage term, and the popularity-discount exponent alpha.
// The internal tuning score is hit-rate@N on a validation holdout; the
// external quality score is hit-rate@N on a disjoint test holdout.
package topn

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/dist"
)

// Params are the recommender tunables.
type Params struct {
	K      int     // neighbors per item
	Shrink float64 // similarity shrinkage (damps low-support similarities)
	Alpha  float64 // popularity discount exponent in [0, 1]
}

// DefaultParams is the untuned configuration.
func DefaultParams() Params { return Params{K: 50, Shrink: 0, Alpha: 0} }

// Work-unit costs: building the similarity model dominates.
const (
	WorkModel   = 20.0
	WorkPerUser = 0.02
)

// Dataset is a top-N recommendation workload with per-user holdouts.
type Dataset struct {
	Users    int
	Items    int
	Train    [][]int // items each user interacted with (training)
	Validate []int   // one held-out item per user, for tuning
	Test     []int   // one held-out item per user, for reporting
}

// Gen builds a taste-group workload: users and items belong to groups;
// interactions fall mostly within the user's group, with cross-group noise.
// Two holdout items per user are split between validation and test.
func Gen(seed int64, users, items, groups int) Dataset {
	if users < groups*2 || items < groups*4 {
		panic("topn: workload too small for the group structure")
	}
	r := rand.New(rand.NewSource(int64(dist.Mix(uint64(seed), 0x709))))
	ds := Dataset{Users: users, Items: items}
	itemGroup := make([]int, items)
	for i := range itemGroup {
		itemGroup[i] = i % groups
	}
	perUser := 8 + r.Intn(5)
	for u := 0; u < users; u++ {
		g := u % groups
		seen := map[int]bool{}
		var basket []int
		for len(basket) < perUser+2 {
			var it int
			if r.Float64() < 0.85 {
				it = r.Intn(items/groups)*groups + g // in-group item
			} else {
				it = r.Intn(items)
			}
			if !seen[it] {
				seen[it] = true
				basket = append(basket, it)
			}
		}
		ds.Validate = append(ds.Validate, basket[perUser])
		ds.Test = append(ds.Test, basket[perUser+1])
		ds.Train = append(ds.Train, basket[:perUser])
	}
	return ds
}

// Model holds the top-k similar items per item.
type Model struct {
	sims [][]simEntry
	p    Params
}

type simEntry struct {
	item int
	sim  float64
}

// Train builds the item-item cosine similarity model with shrinkage and
// popularity discount. This is the expensive preprocessing stage white-box
// tuning would like to reuse — but the similarity depends on Shrink and
// Alpha, so only the co-occurrence counting (the truly dominant part) is
// stage 1; Build applies the parameters to precomputed counts.
func Train(ds Dataset, p Params) *Model {
	return BuildModel(CountCooccur(ds), ds, p)
}

// Cooccur holds the parameter-independent sufficient statistics: item
// popularity and pairwise co-occurrence counts.
type Cooccur struct {
	Pop [][]float64 // singleton: Pop[0][i] = popularity of item i
	Co  []map[int]float64
}

// CountCooccur scans the training data once (stage 1, expensive).
func CountCooccur(ds Dataset) *Cooccur {
	pop := make([]float64, ds.Items)
	co := make([]map[int]float64, ds.Items)
	for i := range co {
		co[i] = map[int]float64{}
	}
	for _, basket := range ds.Train {
		for _, a := range basket {
			pop[a]++
			for _, b := range basket {
				if a != b {
					co[a][b]++
				}
			}
		}
	}
	return &Cooccur{Pop: [][]float64{pop}, Co: co}
}

// BuildModel applies the tunable parameters to the counted statistics
// (stage 2, cheap): sim(a,b) = co(a,b) / ((pop(a)*pop(b))^alpha + shrink),
// keeping the top K per item.
func BuildModel(c *Cooccur, ds Dataset, p Params) *Model {
	if p.K < 1 {
		p.K = 1
	}
	if p.Alpha < 0 {
		p.Alpha = 0
	}
	if p.Shrink < 0 {
		p.Shrink = 0
	}
	pop := c.Pop[0]
	m := &Model{p: p, sims: make([][]simEntry, ds.Items)}
	for a := 0; a < ds.Items; a++ {
		var entries []simEntry
		for b, cnt := range c.Co[a] {
			den := math.Pow(pop[a]*pop[b], p.Alpha) + p.Shrink
			if den <= 0 {
				den = 1
			}
			entries = append(entries, simEntry{item: b, sim: cnt / den})
		}
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].sim != entries[j].sim {
				return entries[i].sim > entries[j].sim
			}
			return entries[i].item < entries[j].item
		})
		if len(entries) > p.K {
			entries = entries[:p.K]
		}
		m.sims[a] = entries
	}
	return m
}

// Recommend returns the top-n items for a user (excluding items already in
// the basket), scored by summed similarity to the basket.
func (m *Model) Recommend(basket []int, n int) []int {
	return m.recommend(basket, n, &recScratch{})
}

// recScratch is recommend's dense per-item scratch. HitRate reuses one
// across users: recommend leaves it cleared, and its result is a prefix
// of touched, valid until the next call.
type recScratch struct {
	inBasket, scored []bool
	score            []float64
	touched          []int // the scored items
}

// recommend is Recommend over sc. Each score is summed in the same order
// from 0 as a map would sum it, and (score desc, item asc) is a total
// order, so the result does not depend on the order of touched.
func (m *Model) recommend(basket []int, n int, sc *recScratch) []int {
	if len(sc.score) < len(m.sims) {
		*sc = recScratch{make([]bool, len(m.sims)), make([]bool, len(m.sims)), make([]float64, len(m.sims)), nil}
	}
	for _, it := range basket {
		sc.inBasket[it] = true
	}
	touched := sc.touched[:0]
	for _, it := range basket {
		for _, e := range m.sims[it] {
			if sc.inBasket[e.item] {
				continue
			}
			if !sc.scored[e.item] {
				sc.scored[e.item] = true
				touched = append(touched, e.item)
			}
			sc.score[e.item] += e.sim
		}
	}
	slices.SortFunc(touched, func(a, b int) int {
		return cmp.Or(cmp.Compare(sc.score[b], sc.score[a]), cmp.Compare(a, b))
	})
	for _, it := range touched {
		sc.scored[it], sc.score[it] = false, 0
	}
	for _, it := range basket {
		sc.inBasket[it] = false
	}
	sc.touched = touched
	return touched[:min(n, len(touched))]
}

// TopN is the recommendation list length used by the experiments.
const TopN = 10

// HitRate computes hit-rate@TopN against a holdout (one item per user).
func HitRate(ds Dataset, m *Model, holdout []int) float64 {
	hits := 0
	var sc recScratch
	for u, basket := range ds.Train {
		for _, rec := range m.recommend(basket, TopN, &sc) {
			if rec == holdout[u] {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(len(ds.Train))
}
