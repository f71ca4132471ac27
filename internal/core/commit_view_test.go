package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/checkpoint"
	"repro/internal/dist"
)

// The aggregation store of rule [LOADSAMPLE] is a round's commit arena: each
// group's stored commits are one span of it, and Result reads it through the
// region's symbol table. These tests hold its views to what the store they
// replaced promised: one value per (variable, index), the latest commit
// winning; gaps where a sample was pruned or failed; Len, Indices, Values and
// Vars in index and name order; a retained count equal to the stored entries;
// and a journaled round that replays to the same views.

// TestResultCommitView checks each promise on a live round.
func TestResultCommitView(t *testing.T) {
	region := func(t *testing.T, tuner *Tuner, spec RegionSpec, body func(sp *SP) error) *Result {
		t.Helper()
		var res *Result
		run(t, tuner, func(p *P) error {
			var err error
			res, err = p.Region(spec, body)
			return err
		})
		return res
	}
	t.Run("PutGetVec", func(t *testing.T) {
		res := region(t, New(Options{MaxPool: 4, Seed: 1}), RegionSpec{Name: "r", Samples: 3}, func(sp *SP) error {
			sp.Commit("y", 10*sp.Index())
			return nil
		})
		if res.Len("y") != 3 {
			t.Fatalf("Len = %d, want 3", res.Len("y"))
		}
		if v, ok := res.Value("y", 1); !ok || v != 10 {
			t.Fatalf("Value(y, 1) = %v, %v", v, ok)
		}
		if vec := res.Values("y"); fmt.Sprint(vec) != "[0 10 20]" {
			t.Fatalf("Values(y) = %v, want index order", vec)
		}
	})
	t.Run("GapsFromPrunedProcesses", func(t *testing.T) {
		res := region(t, New(Options{MaxPool: 4, Seed: 1}), RegionSpec{Name: "r", Samples: 6}, func(sp *SP) error {
			sp.Commit("y", sp.Index())
			sp.Check(sp.Index() == 0 || sp.Index() == 5) // 1..4 are pruned after committing
			return nil
		})
		if _, ok := res.Value("y", 3); ok {
			t.Fatal("a pruned index holds a value")
		}
		if got := res.Indices("y"); fmt.Sprint(got) != "[0 5]" {
			t.Fatalf("Indices = %v, want [0 5]", got)
		}
		if vec := res.Values("y"); fmt.Sprint(vec) != "[0 5]" {
			t.Fatalf("Values = %v, want them dense", vec)
		}
	})
	t.Run("OverwriteSameIndex", func(t *testing.T) {
		res := region(t, New(Options{MaxPool: 1, Seed: 1}), RegionSpec{Name: "r", Samples: 1}, func(sp *SP) error {
			sp.Commit("y", 1)
			sp.Commit("y", 2)
			return nil
		})
		if res.Len("y") != 1 {
			t.Fatalf("Len after overwrite = %d", res.Len("y"))
		}
		if v, _ := res.Value("y", 0); v != 2 {
			t.Fatalf("overwrite kept %v", v)
		}
	})
	t.Run("VarsAndNextRound", func(t *testing.T) {
		tuner := New(Options{MaxPool: 2, Seed: 1})
		res := region(t, tuner, RegionSpec{Name: "r", Samples: 1}, func(sp *SP) error {
			sp.Commit("b", 1)
			sp.Commit("a", 1)
			return nil
		})
		if vars := res.Vars(); fmt.Sprint(vars) != "[a b]" {
			t.Fatalf("Vars = %v, want [a b]", vars)
		}
		next := region(t, tuner, RegionSpec{Name: "r", Samples: 1}, func(sp *SP) error { return nil })
		if len(next.Vars()) != 0 || next.Len("a") != 0 {
			t.Fatal("a round's Result holds the commits of the round before")
		}
		if fmt.Sprint(res.Vars()) != "[a b]" {
			t.Fatal("the next round changed an earlier Result")
		}
	})
	t.Run("MissingVariable", func(t *testing.T) {
		res := region(t, New(Options{MaxPool: 1, Seed: 1}), RegionSpec{Name: "r", Samples: 2}, func(sp *SP) error {
			sp.Commit("y", 1)
			return nil
		})
		if res.Len("nope") != 0 || len(res.Values("nope")) != 0 || len(res.Indices("nope")) != 0 {
			t.Fatal("a variable nobody committed has entries")
		}
		for _, i := range []int{-1, 2} {
			if _, ok := res.Value("y", i); ok {
				t.Fatalf("Value(y, %d) of a 2-sample round reported ok", i)
			}
		}
		if _, ok := res.Value("nope", 0); ok {
			t.Fatal("Value of a missing variable reported ok")
		}
	})
	t.Run("ConcurrentCommits", func(t *testing.T) {
		const n = 64
		res := region(t, New(Options{MaxPool: 8, Seed: 1}), RegionSpec{Name: "r", Samples: n}, func(sp *SP) error {
			sp.Commit("y", sp.Index()*sp.Index())
			return nil
		})
		if res.Len("y") != n {
			t.Fatalf("lost commits: Len = %d, want %d", res.Len("y"), n)
		}
		for i := 0; i < n; i++ {
			if v, ok := res.Value("y", i); !ok || v != i*i {
				t.Fatalf("entry %d = %v, %v", i, v, ok)
			}
		}
	})
	t.Run("Retained", func(t *testing.T) {
		tuner := New(Options{MaxPool: 2, Seed: 1})
		res := region(t, tuner, RegionSpec{Name: "r", Samples: 2}, func(sp *SP) error {
			sp.Commit("x", 1)
			if sp.Index() == 0 {
				sp.Commit("y", 1)
			}
			return nil
		})
		if got := tuner.Metrics().PeakRetained; got != 3 || len(res.commits) != 3 {
			t.Fatalf("PeakRetained = %d, arena %d, want 3 stored commits", got, len(res.commits))
		}
	})
}

// viewVars are the variables commitViewProgram's bodies commit.
var viewVars = []string{"a", "b", "c", "d"}

// groupPlan is what one sample group's body does: the commits it makes, in
// order, and how it ends.
type groupPlan struct {
	commits []struct {
		x string
		v float64
	}
	end int // 0 returns, 1 is pruned after committing, 2 fails after committing
}

// viewPlan draws a job of rounds; group 0 of each round always returns, so
// no round fails as a whole.
func viewPlan(rng *rand.Rand) [][]groupPlan {
	rounds := make([][]groupPlan, 1+rng.Intn(4))
	for r := range rounds {
		rounds[r] = make([]groupPlan, 1+rng.Intn(12))
		for g := range rounds[r] {
			gp := &rounds[r][g]
			if g > 0 {
				gp.end = []int{0, 0, 0, 1, 2}[rng.Intn(5)]
			}
			for c := rng.Intn(6); c > 0; c-- {
				gp.commits = append(gp.commits, struct {
					x string
					v float64
				}{viewVars[rng.Intn(len(viewVars))], float64(rng.Intn(100))})
			}
		}
	}
	return rounds
}

// viewModel is the store the plan should leave for one round: the latest
// commit of each variable by each group that returned.
func viewModel(plan []groupPlan) map[string]map[int]float64 {
	m := map[string]map[int]float64{}
	for g, gp := range plan {
		if gp.end != 0 {
			continue
		}
		for _, c := range gp.commits {
			if m[c.x] == nil {
				m[c.x] = map[int]float64{}
			}
			m[c.x][g] = c.v
		}
	}
	return m
}

// commitView prints every view of a round's Result, so two Results can be
// compared byte for byte.
func commitView(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n %d vars %v agg %v\n", res.N(), res.Vars(), res.Aggregated("a"))
	for _, x := range append(viewVars, "nope") {
		fmt.Fprintf(&b, "%s len %d idx %v vals %v:", x, res.Len(x), res.Indices(x), res.Values(x))
		for i := -1; i <= res.N(); i++ {
			v, ok := res.Value(x, i)
			fmt.Fprintf(&b, " %v/%v", v, ok)
		}
		b.WriteByte('\n')
	}
	for i := 0; i < res.N(); i++ {
		fmt.Fprintf(&b, "%d pruned %v err %v params %v\n", i, res.Pruned(i), res.Err(i), res.Params(i))
	}
	return b.String()
}

// commitViewProgram runs the plan's rounds under one region name and returns
// each round's views; check, if set, sees each round's Result.
func commitViewProgram(job *Tuner, spec RegionSpec, plans [][]groupPlan, check func(r int, res *Result)) ([]string, error) {
	var views []string
	err := job.Run(func(p *P) error {
		for r, plan := range plans {
			spec.Samples = len(plan)
			res, err := p.Region(spec, func(sp *SP) error {
				gp := plan[sp.Index()]
				sp.Float("x", dist.Uniform(0, 1))
				for _, c := range gp.commits {
					sp.Commit(c.x, c.v)
				}
				sp.Check(gp.end != 1)
				if gp.end == 2 {
					return errors.New("planned failure")
				}
				return nil
			})
			if err != nil {
				return err
			}
			if check != nil {
				check(r, res)
			}
			views = append(views, commitView(res))
		}
		return nil
	})
	return views, err
}

// TestResultCommitViewModel holds a Result's commit views to the model store
// over random jobs, with and without a built-in aggregator and incremental
// aggregation (which stores none of what it folds), and then resumes each
// job from a checkpoint taken after its last round: every replayed round must
// show the views the live round showed.
func TestResultCommitViewModel(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		plans := viewPlan(rng)
		incremental, avg := rng.Intn(2) == 0, rng.Intn(2) == 0
		spec := RegionSpec{Name: "view"}
		if avg {
			spec.Aggregate = map[string]agg.Kind{"a": agg.Avg}
		}
		opts := Options{MaxPool: 1 + rng.Intn(4), Seed: seed, Incremental: incremental}
		folded := avg && incremental // "a" is folded, not stored
		var peak int64
		check := func(r int, res *Result) {
			model := viewModel(plans[r])
			stored := 0
			var vars []string
			for _, x := range viewVars {
				want := model[x]
				if folded && x == "a" {
					want = nil
				}
				idx := make([]int, 0, len(want))
				for i := range want {
					idx = append(idx, i)
				}
				slices.Sort(idx)
				if len(idx) > 0 {
					vars = append(vars, x)
				}
				stored += len(idx)
				vals := make([]any, len(idx))
				for j, i := range idx {
					vals[j] = want[i]
				}
				if res.Len(x) != len(idx) || fmt.Sprint(res.Indices(x)) != fmt.Sprint(idx) || fmt.Sprint(res.Values(x)) != fmt.Sprint(vals) {
					t.Errorf("seed %d round %d %s: Len %d Indices %v Values %v, model %v %v",
						seed, r, x, res.Len(x), res.Indices(x), res.Values(x), idx, vals)
				}
				for i := range plans[r] {
					v, ok := res.Value(x, i)
					if w, wok := want[i]; ok != wok || ok && v != w {
						t.Errorf("seed %d round %d: Value(%s, %d) = %v, %v; model %v, %v", seed, r, x, i, v, ok, w, wok)
					}
				}
			}
			if fmt.Sprint(res.Vars()) != fmt.Sprint(vars) && !(len(vars) == 0 && len(res.Vars()) == 0) {
				t.Errorf("seed %d round %d: Vars %v, model %v", seed, r, res.Vars(), vars)
			}
			if len(res.commits) != stored {
				t.Errorf("seed %d round %d: %d commits retained, model %d", seed, r, len(res.commits), stored)
			}
			if avg && len(model["a"]) > 0 {
				stored++ // the average's one retained value
			}
			peak = max(peak, int64(stored))
		}
		tuner := New(opts)
		live, err := commitViewProgram(tuner, spec, plans, check)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := tuner.Metrics().PeakRetained; got != peak {
			t.Errorf("seed %d: PeakRetained %d, model %d", seed, got, peak)
		}

		cs := &captureStore{}
		opts.Checkpoint = &CheckpointPolicy{Store: cs, Every: len(plans)}
		if _, err := commitViewProgram(New(opts), spec, plans, nil); err != nil {
			t.Fatalf("seed %d recorded: %v", seed, err)
		}
		st, err := checkpoint.DecodeBytes(cs.snapshots()[0])
		if err != nil {
			t.Fatal(err)
		}
		job, err := NewRuntime(RuntimeOptions{MaxPool: max(opts.MaxPool, st.MinSlots)}).ResumeJob(JobOptions{Name: "replayed", Incremental: incremental}, st)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		replayed, err := commitViewProgram(job, spec, plans, nil)
		if err != nil {
			t.Fatalf("seed %d replayed: %v", seed, err)
		}
		for r := range live {
			if replayed[r] != live[r] {
				t.Errorf("seed %d round %d replays to\n%s\nlive\n%s", seed, r, replayed[r], live[r])
			}
		}
	}
}
