package topn

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// mapRecommend is Recommend as it was before the dense scratch: the basket
// and the scores live in maps. It is the oracle
// TestRecommendMatchesMapOracle holds Recommend and HitRate to.
func mapRecommend(m *Model, basket []int, n int) []int {
	inBasket := map[int]bool{}
	for _, it := range basket {
		inBasket[it] = true
	}
	scores := map[int]float64{}
	for _, it := range basket {
		for _, e := range m.sims[it] {
			if !inBasket[e.item] {
				scores[e.item] += e.sim
			}
		}
	}
	type cand struct {
		item  int
		score float64
	}
	var cands []cand
	for it, s := range scores {
		cands = append(cands, cand{it, s})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].item < cands[j].item
	})
	if len(cands) > n {
		cands = cands[:n]
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.item
	}
	return out
}

// TestRecommendMatchesMapOracle compares Recommend, and recommend on one
// scratch reused across users as HitRate reuses it, with the map oracle on
// the TOPN Rec datasets of seeds 1-4. Alpha 0 and Shrink 0 make every
// similarity an integer count, so equal scores are common and the item
// tie-break is exercised.
func TestRecommendMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	params := []Params{DefaultParams(), {K: 3, Shrink: 0, Alpha: 0}, {K: 1, Shrink: 100, Alpha: 1}}
	for i := 0; i < 8; i++ {
		params = append(params, Params{K: 1 + r.Intn(60), Shrink: 50 * r.Float64(), Alpha: r.Float64()})
	}
	for seed := int64(1); seed <= 4; seed++ {
		ds := Gen(seed, 120, 40, 4)
		c := CountCooccur(ds)
		for _, p := range params {
			m := BuildModel(c, ds, p)
			var sc recScratch
			for u, basket := range ds.Train {
				for _, n := range []int{0, 3, TopN, 100} {
					want := mapRecommend(m, basket, n)
					if got := m.Recommend(basket, n); !slices.Equal(got, want) {
						t.Fatalf("seed %d %+v user %d n %d: Recommend %v, map oracle %v", seed, p, u, n, got, want)
					}
					if got := m.recommend(basket, n, &sc); !slices.Equal(got, want) {
						t.Fatalf("seed %d %+v user %d n %d: reused scratch %v, map oracle %v", seed, p, u, n, got, want)
					}
				}
			}
			hits := 0
			for u, basket := range ds.Train {
				if slices.Contains(mapRecommend(m, basket, TopN), ds.Validate[u]) {
					hits++
				}
			}
			if got, want := HitRate(ds, m, ds.Validate), float64(hits)/float64(len(ds.Train)); got != want {
				t.Fatalf("seed %d %+v: HitRate %v, map oracle %v", seed, p, got, want)
			}
		}
	}
}

func BenchmarkHitRate(b *testing.B) {
	ds := Gen(1, 120, 40, 4)
	m := Train(ds, DefaultParams())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchHits = HitRate(ds, m, ds.Validate)
	}
}

var benchHits float64
