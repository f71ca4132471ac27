package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/dist"
)

func newTuner() *Tuner { return New(Options{MaxPool: 8, Seed: 1}) }

// run executes fn under a fresh tuner and fails the test on error.
func run(t *testing.T, tuner *Tuner, fn func(p *P) error) {
	t.Helper()
	if err := tuner.Run(fn); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestRegionBasicCommitAndStore(t *testing.T) {
	tuner := newTuner()
	run(t, tuner, func(p *P) error {
		res, err := p.Region(RegionSpec{Name: "r", Samples: 10}, func(sp *SP) error {
			x := sp.Float("x", dist.Uniform(0, 1))
			sp.Commit("y", x*2)
			return nil
		})
		if err != nil {
			return err
		}
		if res.N() != 10 || res.Len("y") != 10 {
			return fmt.Errorf("N=%d Len=%d", res.N(), res.Len("y"))
		}
		for _, i := range res.Indices("y") {
			y := res.MustValue("y", i).(float64)
			x := res.Params(i)["x"]
			if math.Abs(y-2*x) > 1e-12 {
				return fmt.Errorf("sample %d: y=%g x=%g", i, y, x)
			}
		}
		return nil
	})
	m := tuner.Metrics()
	if m.Samples != 10 || m.Regions != 1 || m.Rounds != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestRegionDeterministicAcrossRuns(t *testing.T) {
	collect := func() []float64 {
		tuner := New(Options{MaxPool: 4, Seed: 99})
		var out []float64
		run(t, tuner, func(p *P) error {
			res, err := p.Region(RegionSpec{Name: "r", Samples: 6}, func(sp *SP) error {
				sp.Commit("v", sp.Float("x", dist.Uniform(0, 1)))
				return nil
			})
			if err != nil {
				return err
			}
			for _, i := range res.Indices("v") {
				out = append(out, res.MustValue("v", i).(float64))
			}
			return nil
		})
		return out
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestRegionSeedChangesDraws(t *testing.T) {
	draw := func(seed int64) float64 {
		tuner := New(Options{MaxPool: 4, Seed: seed})
		var v float64
		run(t, tuner, func(p *P) error {
			res, err := p.Region(RegionSpec{Name: "r", Samples: 1}, func(sp *SP) error {
				sp.Commit("v", sp.Float("x", dist.Uniform(0, 1)))
				return nil
			})
			if err != nil {
				return err
			}
			v = res.MustValue("v", 0).(float64)
			return nil
		})
		return v
	}
	if draw(1) == draw(2) {
		t.Fatal("different tuner seeds drew the same value")
	}
}

func TestFloatMemoizesDraws(t *testing.T) {
	run(t, newTuner(), func(p *P) error {
		_, err := p.Region(RegionSpec{Name: "r", Samples: 5}, func(sp *SP) error {
			a := sp.Float("x", dist.Uniform(0, 1))
			b := sp.Float("x", dist.Uniform(0, 1))
			if a != b {
				return fmt.Errorf("second draw of x differed: %g vs %g", a, b)
			}
			return nil
		})
		return err
	})
}

func TestIntAndPick(t *testing.T) {
	run(t, newTuner(), func(p *P) error {
		opts := []string{"a", "b", "c"}
		_, err := p.Region(RegionSpec{Name: "r", Samples: 20}, func(sp *SP) error {
			k := sp.Int("k", dist.IntRange(2, 5))
			if k < 2 || k > 5 {
				return fmt.Errorf("k=%d out of range", k)
			}
			s := Pick(sp, "opt", opts)
			if s != "a" && s != "b" && s != "c" {
				return fmt.Errorf("bad pick %q", s)
			}
			return nil
		})
		return err
	})
}

func TestBuiltinAggregations(t *testing.T) {
	run(t, newTuner(), func(p *P) error {
		res, err := p.Region(RegionSpec{
			Name:    "r",
			Samples: 8,
			Aggregate: map[string]agg.Kind{
				"v": agg.Min, "w": agg.Max, "m": agg.Avg,
			},
		}, func(sp *SP) error {
			i := float64(sp.Index())
			sp.Commit("v", i)
			sp.Commit("w", i)
			sp.Commit("m", i)
			return nil
		})
		if err != nil {
			return err
		}
		if got := res.Aggregated("v").(float64); got != 0 {
			return fmt.Errorf("Min = %g", got)
		}
		if got := res.Aggregated("w").(float64); got != 7 {
			return fmt.Errorf("Max = %g", got)
		}
		if got := res.Aggregated("m").(float64); got != 3.5 {
			return fmt.Errorf("Avg = %g", got)
		}
		if res.Aggregated("absent") != nil {
			return errors.New("aggregate of unknown variable should be nil")
		}
		return nil
	})
}

func TestMajorityVoteVectors(t *testing.T) {
	run(t, newTuner(), func(p *P) error {
		res, err := p.Region(RegionSpec{
			Name: "r", Samples: 5,
			Aggregate: map[string]agg.Kind{"img": agg.MV},
		}, func(sp *SP) error {
			// Pixel 0 set by all, pixel 1 set by samples 0-2, pixel 2 never.
			v := []float64{1, 0, 0}
			if sp.Index() <= 2 {
				v[1] = 1
			}
			sp.Commit("img", v)
			return nil
		})
		if err != nil {
			return err
		}
		got := res.Aggregated("img").([]float64)
		want := []float64{1, 1, 0}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("MV pixel %d = %g", i, got[i])
			}
		}
		return nil
	})
}

func TestCheckPrunes(t *testing.T) {
	tuner := newTuner()
	run(t, tuner, func(p *P) error {
		res, err := p.Region(RegionSpec{Name: "r", Samples: 10}, func(sp *SP) error {
			sp.Check(sp.Index()%2 == 0) // prune odd samples
			sp.Commit("v", float64(sp.Index()))
			return nil
		})
		if err != nil {
			return err
		}
		if res.Len("v") != 5 {
			return fmt.Errorf("Len = %d, want 5", res.Len("v"))
		}
		for i := 0; i < 10; i++ {
			if res.Pruned(i) != (i%2 == 1) {
				return fmt.Errorf("Pruned(%d) = %v", i, res.Pruned(i))
			}
		}
		if _, ok := res.Value("v", 1); ok {
			return errors.New("pruned sample committed a value")
		}
		return nil
	})
	if m := tuner.Metrics(); m.Pruned != 5 {
		t.Fatalf("Pruned metric = %d", m.Pruned)
	}
}

func TestCheckFn(t *testing.T) {
	run(t, newTuner(), func(p *P) error {
		res, err := p.Region(RegionSpec{Name: "r", Samples: 4}, func(sp *SP) error {
			sp.CheckFn(func() bool { return sp.Index() != 0 })
			sp.Commit("v", 1.0)
			return nil
		})
		if err != nil {
			return err
		}
		if res.Len("v") != 3 {
			return fmt.Errorf("Len = %d", res.Len("v"))
		}
		return nil
	})
}

func TestPanicContainment(t *testing.T) {
	tuner := newTuner()
	run(t, tuner, func(p *P) error {
		res, err := p.Region(RegionSpec{Name: "r", Samples: 6}, func(sp *SP) error {
			if sp.Index() == 3 {
				panic("boom")
			}
			sp.Commit("v", 1.0)
			return nil
		})
		if err != nil {
			return err // a single panicked sample must not fail the region
		}
		if res.Err(3) == nil || !strings.Contains(res.Err(3).Error(), "boom") {
			return fmt.Errorf("Err(3) = %v", res.Err(3))
		}
		if res.Len("v") != 5 {
			return fmt.Errorf("Len = %d", res.Len("v"))
		}
		return nil
	})
	if m := tuner.Metrics(); m.Panics != 1 {
		t.Fatalf("Panics metric = %d", m.Panics)
	}
}

func TestAllSamplesFailedIsRegionError(t *testing.T) {
	tuner := newTuner()
	err := tuner.Run(func(p *P) error {
		_, err := p.Region(RegionSpec{Name: "r", Samples: 3}, func(sp *SP) error {
			return errors.New("bad sample")
		})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "every sampling process failed") {
		t.Fatalf("err = %v", err)
	}
}

func TestSampleBodyErrorRecorded(t *testing.T) {
	run(t, newTuner(), func(p *P) error {
		res, err := p.Region(RegionSpec{Name: "r", Samples: 2}, func(sp *SP) error {
			if sp.Index() == 1 {
				return errors.New("deliberate")
			}
			sp.Commit("v", 1.0)
			return nil
		})
		if err != nil {
			return err
		}
		if res.Err(1) == nil || res.Err(0) != nil {
			return fmt.Errorf("errs = %v, %v", res.Err(0), res.Err(1))
		}
		return nil
	})
}

func TestExposeLoadAcrossScopes(t *testing.T) {
	run(t, newTuner(), func(p *P) error {
		p.Expose("imgSize", 640)
		p.ExposeIn("canny", "imgSize", 480)
		if got := p.Load("imgSize").(int); got != 640 {
			return fmt.Errorf("global imgSize = %d", got)
		}
		if got := p.LoadFrom("canny", "imgSize").(int); got != 480 {
			return fmt.Errorf("scoped imgSize = %d", got)
		}
		// Sampling processes can read the exposed store too.
		_, err := p.Region(RegionSpec{Name: "r", Samples: 2}, func(sp *SP) error {
			if got := sp.Load("imgSize").(int); got != 640 {
				return fmt.Errorf("sp imgSize = %d", got)
			}
			return nil
		})
		return err
	})
}

func TestLoadMissingPanics(t *testing.T) {
	tuner := newTuner()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing exposed variable")
		}
	}()
	_ = tuner.Run(func(p *P) error {
		p.Load("never-exposed")
		return nil
	})
}

func TestSplitRunsChildren(t *testing.T) {
	tuner := newTuner()
	var count int64
	run(t, tuner, func(p *P) error {
		for i := 0; i < 5; i++ {
			p.Split(func(child *P) error {
				atomic.AddInt64(&count, 1)
				_, err := child.Region(RegionSpec{Name: "inner", Samples: 2}, func(sp *SP) error {
					sp.Commit("v", 1.0)
					return nil
				})
				return err
			})
		}
		return p.Wait()
	})
	if count != 5 {
		t.Fatalf("split children ran %d times", count)
	}
	m := tuner.Metrics()
	if m.Splits != 5 || m.Regions != 5 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestSplitChildErrorPropagates(t *testing.T) {
	tuner := newTuner()
	err := tuner.Run(func(p *P) error {
		p.Split(func(child *P) error { return errors.New("child failed") })
		return nil // Run's implicit Wait must surface the child error
	})
	if err == nil || !strings.Contains(err.Error(), "child failed") {
		t.Fatalf("err = %v", err)
	}
}

func TestNestedSplits(t *testing.T) {
	var leaves int64
	run(t, newTuner(), func(p *P) error {
		for i := 0; i < 3; i++ {
			p.Split(func(c1 *P) error {
				for j := 0; j < 3; j++ {
					c1.Split(func(c2 *P) error {
						atomic.AddInt64(&leaves, 1)
						return nil
					})
				}
				return nil
			})
		}
		return nil
	})
	if leaves != 9 {
		t.Fatalf("leaves = %d", leaves)
	}
}

func TestSyncBarrier(t *testing.T) {
	var barrierCount int64
	var arrivedAtBarrier int64
	run(t, New(Options{MaxPool: 16, Seed: 1}), func(p *P) error {
		_, err := p.Region(RegionSpec{Name: "r", Samples: 6}, func(sp *SP) error {
			sp.Commit("partial", float64(sp.Index()))
			sp.Sync(func(v *SyncView) {
				atomic.AddInt64(&barrierCount, 1)
				atomic.StoreInt64(&arrivedAtBarrier, int64(v.Count()))
				for i := 0; i < v.Count(); i++ {
					if _, ok := v.Value(i, "partial"); !ok {
						t.Error("barrier callback cannot see pre-barrier commit")
					}
				}
			})
			sp.Commit("final", 1.0)
			return nil
		})
		return err
	})
	if barrierCount != 1 {
		t.Fatalf("barrier callback ran %d times", barrierCount)
	}
	if arrivedAtBarrier != 6 {
		t.Fatalf("barrier saw %d processes", arrivedAtBarrier)
	}
}

func TestSyncWithPrunedProcesses(t *testing.T) {
	// Pruned processes stop counting toward the barrier: the remaining
	// processes must still be released.
	var saw int64
	run(t, New(Options{MaxPool: 16, Seed: 1}), func(p *P) error {
		res, err := p.Region(RegionSpec{Name: "r", Samples: 8}, func(sp *SP) error {
			sp.Check(sp.Index() < 4) // half the processes die before the barrier
			sp.Sync(func(v *SyncView) { atomic.StoreInt64(&saw, int64(v.Count())) })
			sp.Commit("v", 1.0)
			return nil
		})
		if err != nil {
			return err
		}
		if res.Len("v") != 4 {
			return fmt.Errorf("Len = %d", res.Len("v"))
		}
		return nil
	})
	if saw != 4 {
		t.Fatalf("barrier saw %d live processes, want 4", saw)
	}
}

func TestSyncBarrierLargerThanPool(t *testing.T) {
	// 64 sampling processes, pool of 2: without slot hand-back at the barrier
	// this deadlocks. Every body blocked there has handed its slot back, so the
	// launch loop keeps starting workers until the whole region is co-resident;
	// past the barrier the bodies re-acquire and finish two at a time.
	tuner := New(Options{MaxPool: 2, Seed: 1})
	var calls, arrived atomic.Int64
	run(t, tuner, func(p *P) error {
		res, err := p.Region(RegionSpec{Name: "r", Samples: 64}, func(sp *SP) error {
			sp.Sync(func(v *SyncView) { calls.Add(1); arrived.Store(int64(v.Count())) })
			sp.Commit("v", 1.0)
			return nil
		})
		if err == nil && res.Len("v") != 64 {
			err = fmt.Errorf("%d of 64 samples committed", res.Len("v"))
		}
		return err
	})
	if calls.Load() != 1 || arrived.Load() != 64 {
		t.Fatalf("barrier callback ran %d times and saw %d processes, want once with 64", calls.Load(), arrived.Load())
	}
	if st := tuner.Metrics().Scheduler; st.PeakInUse > 2 || tuner.sched.InUse() != 0 {
		t.Fatalf("pool of 2 peaked at %d, %d still in use after Run", st.PeakInUse, tuner.sched.InUse())
	}
}

func TestDoubleSync(t *testing.T) {
	var first, second int64
	run(t, New(Options{MaxPool: 16, Seed: 1}), func(p *P) error {
		_, err := p.Region(RegionSpec{Name: "r", Samples: 4}, func(sp *SP) error {
			sp.Sync(func(v *SyncView) { atomic.AddInt64(&first, 1) })
			sp.Sync(func(v *SyncView) { atomic.AddInt64(&second, 1) })
			return nil
		})
		return err
	})
	if first != 1 || second != 1 {
		t.Fatalf("barrier generations ran %d/%d times", first, second)
	}
}

// TestLastFinishRacesLastArrival: a finishing sample skips the barrier when it
// sees nobody waiting, so the release must then come from the arrival it did
// not see. Each round one process arrives at the barrier while its siblings
// finish without ever syncing, as close together as a pool of their own makes
// them; a lost release would leave the arrival parked for ever.
func TestLastFinishRacesLastArrival(t *testing.T) {
	const rounds = 1000
	var released atomic.Int64
	finished := make(chan error, 1)
	go func() {
		finished <- New(Options{MaxPool: 4, Seed: 1}).Run(func(p *P) error {
			for r := 0; r < rounds; r++ {
				res, err := p.Region(RegionSpec{Name: "race", Samples: 2 + r%3}, func(sp *SP) error {
					if sp.Index() == 0 {
						sp.Sync(func(v *SyncView) { released.Add(int64(v.Count())) })
					}
					sp.Commit("v", 1.0)
					return nil
				})
				if err == nil && res.Len("v") != 2+r%3 {
					err = fmt.Errorf("round %d: %d of %d samples committed", r, res.Len("v"), 2+r%3)
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("a barrier release was lost: %d of %d rounds released their waiter", released.Load(), rounds)
	}
	if released.Load() != rounds {
		t.Fatalf("%d barrier releases of one waiter each, want %d", released.Load(), rounds)
	}
}

func TestScoringAndBest(t *testing.T) {
	run(t, newTuner(), func(p *P) error {
		res, err := p.Region(RegionSpec{
			Name: "r", Samples: 16, Minimize: true,
			Score: func(sp *SP) float64 {
				x, _ := sp.Get("x")
				v := x.(float64)
				return (v - 0.5) * (v - 0.5)
			},
		}, func(sp *SP) error {
			sp.Commit("x", sp.Float("x", dist.Uniform(0, 1)))
			return nil
		})
		if err != nil {
			return err
		}
		bi := res.BestIndex()
		if bi < 0 {
			return errors.New("no best index")
		}
		best := res.BestScore()
		for i := 0; i < res.N(); i++ {
			if s := res.Score(i); !math.IsNaN(s) && s < best {
				return fmt.Errorf("BestScore %g not minimal (sample %d scored %g)", best, i, s)
			}
		}
		if bp := res.BestParams(); bp == nil || math.Abs(bp["x"]-0.5) > 0.5 {
			return fmt.Errorf("BestParams = %v", bp)
		}
		return nil
	})
}

func TestRegionSpecValidation(t *testing.T) {
	cases := []RegionSpec{
		{},                              // no name
		{Name: "r", Samples: -1},        // negative samples
		{Name: "r"},                     // auto without Score
		{Name: "r", Samples: 2, CV: 1},  // CV=1
		{Name: "r", Samples: 2, CV: -2}, // negative CV
		{Name: "r", Samples: 2, CV: 3},  // CV without Score
		{Name: "r", Samples: 2, Aggregate: map[string]agg.Kind{"x": "bogus"}},
	}
	tuner := newTuner()
	for i, spec := range cases {
		err := tuner.Run(func(p *P) error {
			_, err := p.Region(spec, func(sp *SP) error { return nil })
			if err == nil {
				return fmt.Errorf("case %d: spec accepted: %+v", i, spec)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestWorkAccounting(t *testing.T) {
	tuner := newTuner()
	run(t, tuner, func(p *P) error {
		p.Work(10)
		_, err := p.Region(RegionSpec{Name: "r", Samples: 4}, func(sp *SP) error {
			sp.Work(2.5)
			return nil
		})
		return err
	})
	if got := tuner.WorkUsed(); math.Abs(got-20) > 0.01 {
		t.Fatalf("WorkUsed = %g, want 20", got)
	}
	if tuner.BudgetExceeded() {
		t.Fatal("no budget configured, must never be exceeded")
	}
}

func TestBudgetCutsLaunches(t *testing.T) {
	tuner := New(Options{MaxPool: 1, Seed: 1, Budget: 5})
	run(t, tuner, func(p *P) error {
		res, err := p.Region(RegionSpec{Name: "r", Samples: 100}, func(sp *SP) error {
			sp.Work(1)
			sp.Commit("v", 1.0)
			return nil
		})
		if err != nil {
			return err
		}
		if n := res.Len("v"); n >= 100 || n < 5 {
			return fmt.Errorf("budget of 5 ran %d samples", n)
		}
		return nil
	})
	if !tuner.BudgetExceeded() {
		t.Fatal("budget should be exceeded")
	}
}

// TestBudgetCutsExactTail pins where a work budget cuts a round. The decision
// whether group g+1 may launch is taken as group g is claimed, before g runs:
// sample 3 spends the whole budget — at a moment the launch loop provably is
// not mid-decision, it is parked waiting for a slot — so sample 4, claimed by
// the worker that just ran 3, is the first to see the budget spent and the
// last to run; 5.. are pruned. The per-sample launcher this loop replaced
// cut at the same place.
func TestBudgetCutsExactTail(t *testing.T) {
	tuner := New(Options{MaxPool: 1, Seed: 1, Budget: 5})
	run(t, tuner, func(p *P) error {
		res, err := p.Region(RegionSpec{Name: "r", Samples: 12}, func(sp *SP) error {
			if sp.Index() == 3 {
				for tuner.sched.Load().Queued == 0 {
					time.Sleep(100 * time.Microsecond)
				}
				sp.Work(10)
			}
			sp.Commit("v", 1.0)
			return nil
		})
		if err != nil {
			return err
		}
		for g := 0; g < 12; g++ {
			_, ran := res.Value("v", g)
			if want := g <= 4; ran != want || res.Pruned(g) == want {
				return fmt.Errorf("sample %d: ran=%v pruned=%v, want samples 0..4 run and 5..11 pruned", g, ran, res.Pruned(g))
			}
		}
		return nil
	})
	if m := tuner.Metrics(); m.Samples != 5 || tuner.sched.InUse() != 0 {
		t.Fatalf("%d sampling processes ran, %d slots in use after Run; want 5 and 0", m.Samples, tuner.sched.InUse())
	}
}

func TestNegativeWorkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newTuner().AddWork(-1)
}
