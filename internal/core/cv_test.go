package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/dist"
	"repro/internal/strategy"
)

// TestCVFoldsShareParams: the folds of one sampling-and-validation group see
// the same draws, whichever workers run them — with headroom (one goroutine
// per fold, all at once) and saturated (two slot-holding workers claiming 72
// (group, fold) pairs between them, a group's folds usually on different
// workers). The digest pins the draws and fold-averaged scores to what the
// per-sample launcher before the claim loop produced at this seed.
func TestCVFoldsShareParams(t *testing.T) {
	const groups, folds = 24, 3
	const wantDigest = "e99307a58029ce6c"
	for _, pool := range []int{2, 16, 128} {
		var mu sync.Mutex
		draws := map[int][][2]float64{} // group -> drawn (x, y) per fold
		var res *Result
		run(t, New(Options{MaxPool: pool, Seed: 3}), func(p *P) error {
			var err error
			res, err = p.Region(RegionSpec{
				Name: "cv", Samples: groups, CV: folds, Minimize: true,
				Score: func(sp *SP) float64 {
					f, _ := sp.Fold()
					// Whole numbers, so the fold average does not depend on
					// the order the folds finished in.
					return math.Floor(1024*sp.Float("x", dist.Uniform(0, 1))) + float64(f)
				},
			}, func(sp *SP) error {
				x := sp.Float("x", dist.Uniform(0, 1))
				y := sp.Float("y", dist.Uniform(-1, 1))
				mu.Lock()
				draws[sp.Index()] = append(draws[sp.Index()], [2]float64{x, y})
				mu.Unlock()
				return nil
			})
			return err
		})
		if len(draws) != groups {
			t.Fatalf("pool %d: groups = %d", pool, len(draws))
		}
		seen := map[float64]bool{}
		h := fnv.New64a()
		for g := 0; g < groups; g++ {
			xs := draws[g]
			if len(xs) != folds {
				t.Fatalf("pool %d: group %d ran %d folds", pool, g, len(xs))
			}
			for _, x := range xs[1:] {
				if x != xs[0] {
					t.Fatalf("pool %d: group %d folds drew different values: %v", pool, g, xs)
				}
			}
			seen[xs[0][0]] = true
			fmt.Fprintf(h, "%d %v %v %v\n", g, xs[0], res.Params(g), res.Score(g))
		}
		if len(seen) < 2 {
			t.Fatalf("pool %d: all groups drew the same value; groups must differ", pool)
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != wantDigest {
			t.Errorf("pool %d: digest of draws and scores = %s, want %s", pool, got, wantDigest)
		}
	}
}

func TestCVFoldIndicesComplete(t *testing.T) {
	var mu sync.Mutex
	folds := map[int]map[int]bool{}
	run(t, New(Options{MaxPool: 16, Seed: 4}), func(p *P) error {
		_, err := p.Region(RegionSpec{
			Name: "cv", Samples: 3, CV: 4, Minimize: true,
			Score: func(sp *SP) float64 { return 0 },
		}, func(sp *SP) error {
			f, k := sp.Fold()
			if k != 4 {
				return fmt.Errorf("k = %d", k)
			}
			mu.Lock()
			if folds[sp.Index()] == nil {
				folds[sp.Index()] = map[int]bool{}
			}
			folds[sp.Index()][f] = true
			mu.Unlock()
			return nil
		})
		return err
	})
	for g, fs := range folds {
		if len(fs) != 4 {
			t.Fatalf("group %d saw folds %v", g, fs)
		}
	}
}

func TestCVScoresAveragedAcrossFolds(t *testing.T) {
	run(t, New(Options{MaxPool: 16, Seed: 5}), func(p *P) error {
		res, err := p.Region(RegionSpec{
			Name: "cv", Samples: 2, CV: 3, Minimize: true,
			// Score = fold index -> average (0+1+2)/3 = 1 for every group.
			Score: func(sp *SP) float64 {
				f, _ := sp.Fold()
				return float64(f)
			},
		}, func(sp *SP) error { return nil })
		if err != nil {
			return err
		}
		for g := 0; g < res.N(); g++ {
			if s := res.Score(g); math.Abs(s-1) > 1e-12 {
				return fmt.Errorf("group %d score = %g, want 1", g, s)
			}
		}
		return nil
	})
}

func TestCVCommitsFromFoldZeroOnly(t *testing.T) {
	run(t, New(Options{MaxPool: 16, Seed: 6}), func(p *P) error {
		res, err := p.Region(RegionSpec{
			Name: "cv", Samples: 3, CV: 2, Minimize: true,
			Score: func(sp *SP) float64 { return 0 },
		}, func(sp *SP) error {
			f, _ := sp.Fold()
			sp.Commit("model", float64(f))
			return nil
		})
		if err != nil {
			return err
		}
		if res.Len("model") != 3 {
			return fmt.Errorf("Len = %d, want one commit per group", res.Len("model"))
		}
		for _, i := range res.Indices("model") {
			if v := res.MustValue("model", i).(float64); v != 0 {
				return fmt.Errorf("group %d retained fold %g's commit", i, v)
			}
		}
		return nil
	})
}

func TestCVWithoutCVSingleFold(t *testing.T) {
	run(t, newTuner(), func(p *P) error {
		_, err := p.Region(RegionSpec{Name: "r", Samples: 2}, func(sp *SP) error {
			f, k := sp.Fold()
			if f != 0 || k != 1 {
				return fmt.Errorf("Fold = %d/%d", f, k)
			}
			return nil
		})
		return err
	})
}

func TestAutoSamplingDoubles(t *testing.T) {
	tuner := New(Options{MaxPool: 8, Seed: 7})
	run(t, tuner, func(p *P) error {
		res, err := p.Region(RegionSpec{
			Name: "auto", AutoStart: 4, MaxSamples: 64, Minimize: true,
			Score: func(sp *SP) float64 {
				x, _ := sp.Get("x")
				return math.Abs(x.(float64) - 0.321)
			},
		}, func(sp *SP) error {
			sp.Commit("x", sp.Float("x", dist.Uniform(0, 1)))
			return nil
		})
		if err != nil {
			return err
		}
		if res.N() < 4 {
			return fmt.Errorf("final round had %d samples", res.N())
		}
		return nil
	})
	m := tuner.Metrics()
	if m.Rounds < 2 {
		t.Fatalf("auto-sampling ran %d rounds; doubling never happened", m.Rounds)
	}
	if m.Regions != 1 {
		t.Fatalf("Regions = %d", m.Regions)
	}
}

func TestAutoSamplingStopsAtCap(t *testing.T) {
	tuner := New(Options{MaxPool: 8, Seed: 8})
	maxSeen := 0
	run(t, tuner, func(p *P) error {
		res, err := p.Region(RegionSpec{
			Name: "auto", AutoStart: 4, MaxSamples: 16, Minimize: true,
			// Score improves with every sample count (more samples -> better
			// best), so only the cap stops doubling.
			Score: func(sp *SP) float64 {
				x, _ := sp.Get("x")
				return math.Abs(x.(float64) - 0.5)
			},
		}, func(sp *SP) error {
			sp.Commit("x", sp.Float("x", dist.Uniform(0, 1)))
			return nil
		})
		if err != nil {
			return err
		}
		maxSeen = res.N()
		return nil
	})
	if maxSeen > 16 {
		t.Fatalf("cap exceeded: %d", maxSeen)
	}
}

func TestAutoSamplingKeepsBestRound(t *testing.T) {
	// With a deterministic score landscape the returned result must hold
	// the best score seen across rounds, not merely the last round's.
	run(t, New(Options{MaxPool: 8, Seed: 9}), func(p *P) error {
		res, err := p.Region(RegionSpec{
			Name: "auto", AutoStart: 8, MaxSamples: 32, Minimize: true,
			Score: func(sp *SP) float64 {
				x, _ := sp.Get("x")
				return math.Abs(x.(float64) - 0.9)
			},
		}, func(sp *SP) error {
			sp.Commit("x", sp.Float("x", dist.Uniform(0, 1)))
			return nil
		})
		if err != nil {
			return err
		}
		if math.IsNaN(res.BestScore()) {
			return errors.New("no best score")
		}
		return nil
	})
}

func TestMCMCFeedbackImprovesOverRounds(t *testing.T) {
	// Compare best score of RAND vs MCMC after several same-named regions:
	// MCMC exploits feedback and should concentrate near the optimum.
	target := 0.777
	runStrategy := func(s strategy.Strategy, seed int64) float64 {
		tuner := New(Options{MaxPool: 8, Seed: seed})
		best := math.Inf(1)
		if err := tuner.Run(func(p *P) error {
			for round := 0; round < 6; round++ {
				res, err := p.Region(RegionSpec{
					Name: "opt", Samples: 12, Strategy: s, Minimize: true,
					Score: func(sp *SP) float64 {
						x, _ := sp.Get("x")
						return math.Abs(x.(float64) - target)
					},
				}, func(sp *SP) error {
					sp.Commit("x", sp.Float("x", dist.Uniform(0, 10)))
					return nil
				})
				if err != nil {
					return err
				}
				if bs := res.BestScore(); bs < best {
					best = bs
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return best
	}
	randWins, mcmcWins := 0, 0
	for seed := int64(0); seed < 11; seed++ {
		r := runStrategy(strategy.Rand(), seed)
		m := runStrategy(strategy.MCMC(strategy.MCMCOptions{Scale: 0.08}), seed)
		if m < r {
			mcmcWins++
		} else {
			randWins++
		}
	}
	if mcmcWins <= randWins {
		t.Fatalf("MCMC should usually beat RAND with feedback: mcmc=%d rand=%d", mcmcWins, randWins)
	}
}

func TestIncrementalAggregationSameResults(t *testing.T) {
	resultWith := func(incremental bool) (float64, []float64, int64) {
		tuner := New(Options{MaxPool: 8, Seed: 10, Incremental: incremental})
		var scalar float64
		var vec []float64
		run(t, tuner, func(p *P) error {
			res, err := p.Region(RegionSpec{
				Name: "r", Samples: 16,
				Aggregate: map[string]agg.Kind{"s": agg.Avg, "v": agg.MV},
			}, func(sp *SP) error {
				sp.Commit("s", float64(sp.Index()))
				pix := []float64{0, 1}
				if sp.Index() < 4 {
					pix[0] = 1
				}
				sp.Commit("v", pix)
				return nil
			})
			if err != nil {
				return err
			}
			scalar = res.Aggregated("s").(float64)
			vec = res.Aggregated("v").([]float64)
			return nil
		})
		return scalar, vec, tuner.Metrics().PeakRetained
	}
	s1, v1, retained1 := resultWith(false)
	s2, v2, retained2 := resultWith(true)
	if s1 != s2 {
		t.Fatalf("Avg differs: %g vs %g", s1, s2)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("MV differs at %d", i)
		}
	}
	if retained2 >= retained1 {
		t.Fatalf("incremental mode should retain less: %d vs %d", retained2, retained1)
	}
}

func TestIncrementalKeepsUnaggregatedVariables(t *testing.T) {
	tuner := New(Options{MaxPool: 8, Seed: 11, Incremental: true})
	run(t, tuner, func(p *P) error {
		res, err := p.Region(RegionSpec{
			Name: "r", Samples: 4,
			Aggregate: map[string]agg.Kind{"agg": agg.Max},
		}, func(sp *SP) error {
			sp.Commit("agg", float64(sp.Index()))
			sp.Commit("raw", float64(sp.Index())) // custom-aggregated by caller
			return nil
		})
		if err != nil {
			return err
		}
		if res.Len("raw") != 4 {
			return fmt.Errorf("raw Len = %d; custom variables must be retained", res.Len("raw"))
		}
		if res.Len("agg") != 0 {
			return fmt.Errorf("agg Len = %d; incremental variables must not be retained", res.Len("agg"))
		}
		if got := res.Aggregated("agg").(float64); got != 3 {
			return fmt.Errorf("Max = %g", got)
		}
		return nil
	})
}

func TestSchedulerMetricsExposed(t *testing.T) {
	tuner := New(Options{MaxPool: 2, Seed: 12})
	run(t, tuner, func(p *P) error {
		_, err := p.Region(RegionSpec{Name: "r", Samples: 10}, func(sp *SP) error { return nil })
		return err
	})
	m := tuner.Metrics()
	if m.Scheduler.Admitted < 10 {
		t.Fatalf("scheduler admitted %d", m.Scheduler.Admitted)
	}
	if m.Scheduler.PeakInUse > 2 {
		t.Fatalf("pool of 2 peaked at %d", m.Scheduler.PeakInUse)
	}
}

func TestDisabledSchedulerRaisesPeak(t *testing.T) {
	peak := func(disabled bool) int {
		tuner := New(Options{MaxPool: 2, Seed: 13, DisableScheduler: disabled})
		run(t, tuner, func(p *P) error {
			_, err := p.Region(RegionSpec{Name: "r", Samples: 32}, func(sp *SP) error {
				sp.Sync(func(*SyncView) {}) // force everyone to coexist
				return nil
			})
			return err
		})
		return tuner.Metrics().Scheduler.PeakInUse
	}
	on := peak(false)
	off := peak(true)
	if off <= on {
		t.Fatalf("disabling the scheduler should raise peak concurrency: on=%d off=%d", on, off)
	}
}

func TestRunPropagatesRootError(t *testing.T) {
	err := newTuner().Run(func(p *P) error { return errors.New("root") })
	if err == nil || err.Error() != "root" {
		t.Fatalf("err = %v", err)
	}
}
