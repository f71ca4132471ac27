package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/agg"
	"repro/internal/dist"
)

func TestWorkSplitSerialVsParallel(t *testing.T) {
	tuner := newTuner()
	run(t, tuner, func(p *P) error {
		p.Work(5) // tuning-process work is serial
		_, err := p.Region(RegionSpec{Name: "r", Samples: 4}, func(sp *SP) error {
			sp.Work(2) // sampling-process work is parallelizable
			return nil
		})
		return err
	})
	m := tuner.Metrics()
	if m.WorkSerial != 5 {
		t.Fatalf("WorkSerial = %g", m.WorkSerial)
	}
	if m.WorkParallel != 8 {
		t.Fatalf("WorkParallel = %g", m.WorkParallel)
	}
	if got := tuner.WorkUsed(); math.Abs(got-13) > 0.01 {
		t.Fatalf("WorkUsed = %g", got)
	}
}

func TestPeakRetainedTracksCommits(t *testing.T) {
	tuner := newTuner()
	run(t, tuner, func(p *P) error {
		_, err := p.Region(RegionSpec{Name: "r", Samples: 6}, func(sp *SP) error {
			sp.Commit("a", 1.0)
			sp.Commit("b", 2.0)
			return nil
		})
		return err
	})
	if got := tuner.Metrics().PeakRetained; got != 12 {
		t.Fatalf("PeakRetained = %d, want 12 (6 samples x 2 vars)", got)
	}
}

// TestIncrementalReducesPeakRetained pins what an incremental region holds:
// the aggregator's own state and nothing in flight, so one Avg variable over
// 8 samples retains exactly one value where the one-shot path retains 8.
func TestIncrementalReducesPeakRetained(t *testing.T) {
	retained := func(incremental bool) int64 {
		tuner := New(Options{MaxPool: 8, Seed: 1, Incremental: incremental})
		run(t, tuner, func(p *P) error {
			_, err := p.Region(RegionSpec{
				Name: "r", Samples: 8,
				Aggregate: map[string]agg.Kind{"v": agg.Avg},
			}, func(sp *SP) error {
				sp.Commit("v", float64(sp.Index()))
				return nil
			})
			return err
		})
		return tuner.Metrics().PeakRetained
	}
	if on, off := retained(true), retained(false); on != 1 || off != 9 {
		t.Fatalf("PeakRetained: incremental %d, one-shot %d; want 1 and 9 (8 stored values + the Avg state)", on, off)
	}
}

func TestFeedbackSharedAcrossSameNamedRegions(t *testing.T) {
	run(t, newTuner(), func(p *P) error {
		spec := RegionSpec{
			Name: "shared", Samples: 6, Minimize: true,
			Score: func(sp *SP) float64 {
				v, _ := sp.Get("x")
				return math.Abs(v.(float64) - 0.5)
			},
		}
		body := func(sp *SP) error {
			sp.Commit("x", sp.Float("x", dist.Uniform(0, 1)))
			return nil
		}
		if _, err := p.Region(spec, body); err != nil {
			return err
		}
		if _, err := p.Region(spec, body); err != nil {
			return err
		}
		fb := p.feedbackFor("shared", true)
		if len(fb) != 12 {
			return fmt.Errorf("feedback entries = %d, want 12 from two rounds", len(fb))
		}
		// Best-first ordering.
		for i := 1; i < len(fb); i++ {
			if fb[i].Score < fb[i-1].Score {
				return fmt.Errorf("feedback not sorted best-first")
			}
		}
		return nil
	})
}

// TestFeedbackCausalVisibility pins the determinism contract: a split child
// sees the feedback its parent had accumulated at the split point, sibling
// splits never see each other's in-flight feedback (that would depend on
// scheduling), and Wait merges the children's contributions back into the
// parent in split order.
func TestFeedbackCausalVisibility(t *testing.T) {
	spec := RegionSpec{
		Name: "causal", Samples: 3, Minimize: true,
		Score: func(sp *SP) float64 { return 0 },
	}
	body := func(sp *SP) error {
		sp.Commit("x", sp.Float("x", dist.Uniform(0, 1)))
		return nil
	}
	run(t, newTuner(), func(p *P) error {
		if _, err := p.Region(spec, body); err != nil {
			return err
		}
		start := make(chan struct{})
		lens := make([]int, 2)
		for i := 0; i < 2; i++ {
			i := i
			p.Split(func(c *P) error {
				<-start // both children in flight before either runs a round
				lens[i] = len(c.feedbackFor("causal", true))
				_, err := c.Region(spec, body)
				return err
			})
		}
		close(start)
		if err := p.Wait(); err != nil {
			return err
		}
		for i, n := range lens {
			if n != 3 {
				return fmt.Errorf("child %d saw %d entries at split, want the parent's 3", i, n)
			}
		}
		if n := len(p.feedbackFor("causal", true)); n != 9 {
			return fmt.Errorf("parent sees %d entries after Wait, want 9 (own round + both children)", n)
		}
		return nil
	})
}

// TestFeedbackCapped checks what a process retains, not only what it hands
// out: after 100 tied samples both views of the name hold the first
// maxFeedback arrivals and nothing more.
func TestFeedbackCapped(t *testing.T) {
	run(t, newTuner(), func(p *P) error {
		for round := 0; round < 10; round++ {
			_, err := p.Region(RegionSpec{
				Name: "cap", Samples: 10, Minimize: true,
				Score: func(sp *SP) float64 { return 0 },
			}, func(sp *SP) error {
				sp.Float("round", dist.Uniform(float64(round), float64(round)+1))
				return nil
			})
			if err != nil {
				return err
			}
		}
		if got := len(p.feedbackFor("cap", true)); got != maxFeedback {
			return fmt.Errorf("feedback handed out is %d entries, want %d", got, maxFeedback)
		}
		for which, v := range map[string]fbView{"seen": p.fbSeen["cap"], "created": p.fbNew["cap"]} {
			if len(v.fb) != maxFeedback || cap(v.fb) != maxFeedback {
				return fmt.Errorf("%s view retains %d entries (room for %d), cap is %d", which, len(v.fb), cap(v.fb), maxFeedback)
			}
			for i, f := range v.fb {
				if r := int(f.Params["round"]); r != i/10 {
					return fmt.Errorf("%s view entry %d came from round %d: ties must keep arrival order", which, i, r)
				}
			}
		}
		if len(p.fbSeen) != 1 || len(p.fbNew) != 1 {
			return fmt.Errorf("views under %d and %d names, want 1", len(p.fbSeen), len(p.fbNew))
		}
		return nil
	})
}

func TestResultEdgeCases(t *testing.T) {
	run(t, newTuner(), func(p *P) error {
		res, err := p.Region(RegionSpec{Name: "r", Samples: 3}, func(sp *SP) error {
			sp.Commit("v", float64(sp.Index()))
			return nil
		})
		if err != nil {
			return err
		}
		// Unscored region: BestIndex is -1, BestScore NaN, BestParams nil.
		if res.BestIndex() != -1 || !math.IsNaN(res.BestScore()) || res.BestParams() != nil {
			return fmt.Errorf("unscored region Best* wrong: %d %v %v",
				res.BestIndex(), res.BestScore(), res.BestParams())
		}
		if got := res.Vars(); len(got) != 1 || got[0] != "v" {
			return fmt.Errorf("Vars = %v", got)
		}
		if vals := res.Values("v"); len(vals) != 3 {
			return fmt.Errorf("Values = %v", vals)
		}
		return nil
	})
}

func TestMustValuePanicsOnMissing(t *testing.T) {
	tuner := newTuner()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = tuner.Run(func(p *P) error {
		res, err := p.Region(RegionSpec{Name: "r", Samples: 1}, func(sp *SP) error {
			return nil
		})
		if err != nil {
			return err
		}
		res.MustValue("never-committed", 0)
		return nil
	})
}

// @loadS(x, i) past the last sample is a fault, not another sample's
// outcome: Value reports it missing and MustValue panics with its own message.
func TestMustValuePanicsOutOfRange(t *testing.T) {
	tuner := newTuner()
	defer func() {
		if r := recover(); r != "core: no sample outcome for v" {
			t.Fatalf("recovered %v, want MustValue's panic", r)
		}
	}()
	_ = tuner.Run(func(p *P) error {
		res, err := p.Region(RegionSpec{Name: "r", Samples: 2}, func(sp *SP) error {
			sp.Commit("v", sp.Index())
			return nil
		})
		if err != nil {
			return err
		}
		for _, i := range []int{-1, 2, 5} {
			if v, ok := res.Value("v", i); ok {
				t.Errorf("Value(v, %d) = %v, want none", i, v)
			}
		}
		res.MustValue("v", 5)
		return nil
	})
}

func TestParamsCopyIsolated(t *testing.T) {
	run(t, newTuner(), func(p *P) error {
		res, err := p.Region(RegionSpec{Name: "r", Samples: 1}, func(sp *SP) error {
			sp.Float("x", dist.Uniform(0, 1))
			return nil
		})
		if err != nil {
			return err
		}
		a := res.Params(0)
		a["x"] = 999
		if b := res.Params(0); b["x"] == 999 {
			return fmt.Errorf("Params returned a shared map")
		}
		return nil
	})
}

func TestSPGetAndMustGet(t *testing.T) {
	run(t, newTuner(), func(p *P) error {
		_, err := p.Region(RegionSpec{Name: "r", Samples: 1}, func(sp *SP) error {
			if _, ok := sp.Get("missing"); ok {
				return fmt.Errorf("Get of missing reported ok")
			}
			sp.Commit("v", 42)
			if got := sp.MustGet("v"); got != 42 {
				return fmt.Errorf("MustGet = %v", got)
			}
			return nil
		})
		return err
	})
}

func TestTunerMetricsSnapshotIsolated(t *testing.T) {
	tuner := newTuner()
	run(t, tuner, func(p *P) error {
		_, err := p.Region(RegionSpec{Name: "r", Samples: 2}, func(sp *SP) error { return nil })
		return err
	})
	m1 := tuner.Metrics()
	m1.Samples = 999
	if tuner.Metrics().Samples == 999 {
		t.Fatal("Metrics returned internal state")
	}
}

// TestIncrementalMatchesRetained checks that folding at commit without
// retaining gives the same aggregates as the retaining path, on pools from
// serial to wider than needed and through an executor, whose dispatched
// samples fold through the same spDone. Avg over small integers and MV do not
// depend on the order samples complete in.
func TestIncrementalMatchesRetained(t *testing.T) {
	results := func(opts Options) (float64, []float64, int) {
		tuner := New(opts)
		var avg float64
		var mv []float64
		var stored int
		run(t, tuner, func(p *P) error {
			res, err := p.Region(RegionSpec{
				Name: "fold", Samples: 32,
				Aggregate: map[string]agg.Kind{"s": agg.Avg, "v": agg.MV},
			}, func(sp *SP) error {
				sp.Commit("s", float64(sp.Index()))
				pix := make([]float64, 4)
				if sp.Index()%3 == 0 {
					pix[0] = 1
				}
				pix[1] = 1
				sp.Commit("v", pix)
				return nil
			})
			if err != nil {
				return err
			}
			avg = res.Aggregated("s").(float64)
			mv = res.Aggregated("v").([]float64)
			stored = res.Len("s") + res.Len("v")
			return nil
		})
		return avg, mv, stored
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"pool=1", Options{MaxPool: 1}},
		{"pool=2", Options{MaxPool: 2}},
		{"pool=8", Options{MaxPool: 8}},
		{"executor", Options{MaxPool: 2, Executor: newFakeExec()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Seed = 3
			a1, v1, n1 := results(tc.opts)
			tc.opts.Incremental = true
			a2, v2, n2 := results(tc.opts)
			if a1 != a2 {
				t.Fatalf("Avg differs: retained %g vs incremental %g", a1, a2)
			}
			for i := range v1 {
				if v1[i] != v2[i] {
					t.Fatalf("MV differs at %d: %v vs %v", i, v1, v2)
				}
			}
			if n1 != 64 || n2 != 0 {
				t.Fatalf("stored values: retained %d, incremental %d; want 64 and 0", n1, n2)
			}
			if ex, ok := tc.opts.Executor.(*fakeExec); ok && ex.executed.Load() == 0 {
				t.Fatal("executor unused")
			}
		})
	}
}
