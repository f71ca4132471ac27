package topn

import (
	"testing"
)

func gen() Dataset { return Gen(1, 60, 40, 4) }

func TestGenShape(t *testing.T) {
	ds := gen()
	if ds.Users != 60 || ds.Items != 40 {
		t.Fatal("shape wrong")
	}
	if len(ds.Train) != 60 || len(ds.Validate) != 60 || len(ds.Test) != 60 {
		t.Fatal("holdouts wrong")
	}
	for u, basket := range ds.Train {
		seen := map[int]bool{}
		for _, it := range basket {
			if it < 0 || it >= ds.Items {
				t.Fatalf("item %d out of range", it)
			}
			if seen[it] {
				t.Fatalf("duplicate item in user %d's basket", u)
			}
			seen[it] = true
		}
		if seen[ds.Validate[u]] || seen[ds.Test[u]] {
			t.Fatalf("holdout leaked into user %d's training basket", u)
		}
	}
}

func TestGenDeterministic(t *testing.T) {
	a, b := Gen(2, 40, 24, 4), Gen(2, 40, 24, 4)
	for u := range a.Train {
		if a.Validate[u] != b.Validate[u] {
			t.Fatal("not deterministic")
		}
	}
}

func TestRecommendExcludesBasket(t *testing.T) {
	ds := gen()
	m := Train(ds, Params{K: 20, Shrink: 5, Alpha: 0.5})
	for u, basket := range ds.Train[:10] {
		recs := m.recommend(basket, TopN, &recScratch{})
		inBasket := map[int]bool{}
		for _, it := range basket {
			inBasket[it] = true
		}
		for _, rec := range recs {
			if inBasket[rec] {
				t.Fatalf("user %d recommended an item already in the basket", u)
			}
		}
		if len(recs) > TopN {
			t.Fatal("too many recommendations")
		}
	}
}

func TestModelBeatsRandomBaseline(t *testing.T) {
	ds := gen()
	m := Train(ds, Params{K: 20, Shrink: 2, Alpha: 0.4})
	hr := HitRate(ds, m, ds.Test)
	// Random top-10 of 40 items would hit ~25%; group structure should
	// push an item-kNN model well above that.
	if hr < 0.35 {
		t.Fatalf("hit rate %g barely above random", hr)
	}
}

func TestParamsMatter(t *testing.T) {
	ds := gen()
	good := HitRate(ds, Train(ds, Params{K: 20, Shrink: 2, Alpha: 0.4}), ds.Validate)
	bad := HitRate(ds, Train(ds, Params{K: 1, Shrink: 100, Alpha: 1}), ds.Validate)
	if good <= bad {
		t.Fatalf("params don't matter: good=%g bad=%g", good, bad)
	}
}

func TestCooccurCountsSymmetric(t *testing.T) {
	ds := gen()
	c := CountCooccur(ds)
	for a := 0; a < ds.Items; a++ {
		for b, cnt := range c.Co[a] {
			if c.Co[b][a] != cnt {
				t.Fatalf("co-occurrence asymmetric: (%d,%d)", a, b)
			}
		}
	}
}

func TestBuildModelRespectsK(t *testing.T) {
	ds := gen()
	c := CountCooccur(ds)
	m := BuildModel(c, ds, Params{K: 3, Shrink: 0, Alpha: 0})
	for it, sims := range m.sims {
		if len(sims) > 3 {
			t.Fatalf("item %d has %d neighbors, K=3", it, len(sims))
		}
	}
	// Neighbors sorted by similarity descending.
	for _, sims := range m.sims {
		for i := 1; i < len(sims); i++ {
			if sims[i].sim > sims[i-1].sim {
				t.Fatal("neighbors not sorted")
			}
		}
	}
}

func TestBuildModelClampsBadParams(t *testing.T) {
	ds := gen()
	c := CountCooccur(ds)
	m := BuildModel(c, ds, Params{K: 0, Shrink: -5, Alpha: -1})
	if len(m.sims) != ds.Items {
		t.Fatal("model malformed")
	}
}

func TestTrainEqualsCountPlusBuild(t *testing.T) {
	ds := gen()
	p := Params{K: 10, Shrink: 1, Alpha: 0.3}
	a := Train(ds, p)
	b := BuildModel(CountCooccur(ds), ds, p)
	if HitRate(ds, a, ds.Test) != HitRate(ds, b, ds.Test) {
		t.Fatal("staged build diverges from Train")
	}
}

func TestGenValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Gen(1, 4, 8, 4)
}
