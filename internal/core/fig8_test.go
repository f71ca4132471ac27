package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/dist"
)

// TestFig8Rules checks, one row each, the rules of the paper's semantics
// (Fig. 8) that no other test of this package pins on the runtime. DESIGN.md
// §2 maps every rule to the test or the Go mechanism that enforces it.
func TestFig8Rules(t *testing.T) {
	for _, row := range []struct {
		rule string
		run  func(t *testing.T)
	}{
		// [SAMPLING] (Fig. 2's count): @sampling forks n sampling processes
		// and only the tuning process runs on past @aggregate, so a two-stage
		// program with m samples per stage starts 2m processes, never m².
		{"SAMPLING", func(t *testing.T) {
			for m := 1; m <= 6; m++ {
				tuner := New(Options{MaxPool: 4, Seed: int64(m)})
				var bodies atomic.Int64
				run(t, tuner, func(p *P) error {
					res, err := p.Region(RegionSpec{Name: "stage1", Samples: m,
						Score: func(sp *SP) float64 { return sp.MustGet("a").(float64) },
					}, func(sp *SP) error {
						bodies.Add(1)
						sp.Commit("a", sp.Float("p1", dist.Uniform(0, 1)))
						return nil
					})
					if err != nil {
						return err
					}
					p.Expose("best", res.MustValue("a", res.BestIndex()))
					_, err = p.Region(RegionSpec{Name: "stage2", Samples: m}, func(sp *SP) error {
						bodies.Add(1)
						sp.Commit("b", sp.Load("best").(float64)+sp.Float("p2", dist.Uniform(0, 1)))
						return nil
					})
					return err
				})
				if got, ms := bodies.Load(), tuner.Metrics().Samples; got != int64(2*m) || ms != int64(2*m) {
					t.Fatalf("m=%d: %d bodies ran, %d samples counted, want 2m = %d", m, got, ms, 2*m)
				}
			}
		}},
		// [SAMPLE]: @sampling(n) starts n sampling processes, indices 0..n-1
		// once each, and @sample binds a draw in the drawing process's own σ:
		// the n processes draw n values, and the region records process i's
		// draw as sample i's parameters.
		{"SAMPLE", func(t *testing.T) {
			const n = 5
			var seen [n]atomic.Int64
			run(t, New(Options{MaxPool: 4, Seed: 1}), func(p *P) error {
				res, err := p.Region(RegionSpec{Name: "r", Samples: n}, func(sp *SP) error {
					seen[sp.Index()].Add(1)
					sp.Commit("x", sp.Float("x", dist.Uniform(0, 1)))
					return nil
				})
				if err != nil {
					return err
				}
				draws := map[float64]bool{}
				for i := 0; i < n; i++ {
					x := res.MustValue("x", i).(float64)
					if got, ok := res.Params(i)["x"]; !ok || got != x {
						return fmt.Errorf("sample %d drew %v, its parameters record %v, %v", i, x, got, ok)
					}
					draws[x] = true
				}
				if len(draws) != n {
					return fmt.Errorf("%d processes drew %d distinct values", n, len(draws))
				}
				return nil
			})
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("sample index %d ran %d times, want once", i, c)
				}
			}
		}},
		// [AGGR-S]: a sampling process's @aggregate(x) becomes one entry of
		// δ(x), its own. Committing x again replaces the process's entry; it
		// never adds a second one.
		{"AGGR-S", func(t *testing.T) {
			const n = 7
			run(t, New(Options{MaxPool: 4, Seed: 1}), func(p *P) error {
				res, err := p.Region(RegionSpec{Name: "r", Samples: n}, func(sp *SP) error {
					sp.Commit("y", -1)
					sp.Commit("y", sp.Index())
					return nil
				})
				if err != nil {
					return err
				}
				if vs := res.Values("y"); len(vs) != n {
					return fmt.Errorf("δ(y) = %v, want %d entries", vs, n)
				}
				for i, v := range res.Values("y") {
					if v != i {
						return fmt.Errorf("δ(y)[%d] = %v, want sample %d's last commit", i, v, i)
					}
				}
				return nil
			})
		}},
		// [AGGR-T]: the tuning process aggregates only after every sampling
		// process has committed, and sees each survivor's commit exactly once,
		// with or without incremental aggregation.
		{"AGGR-T", func(t *testing.T) {
			const n = 12
			for _, incremental := range []bool{false, true} {
				run(t, New(Options{MaxPool: 8, Seed: 1, Incremental: incremental}), func(p *P) error {
					res, err := p.Region(RegionSpec{Name: "r", Samples: n,
						Aggregate: map[string]agg.Kind{"avg": agg.Avg, "all": agg.Dedup},
					}, func(sp *SP) error {
						sp.Check(sp.Index()%3 != 0)
						time.Sleep(time.Millisecond) // still running when the launch loop is done
						sp.Commit("avg", float64(sp.Index()))
						sp.Commit("all", float64(sp.Index()))
						return nil
					})
					if err != nil {
						return err
					}
					var sum float64
					for i := 0; i < n; i++ {
						if i%3 != 0 {
							sum += float64(i)
						}
					}
					if got := res.Aggregated("avg"); got != sum/8 {
						return fmt.Errorf("incremental=%v: AVG = %v, want %v over the 8 survivors", incremental, got, sum/8)
					}
					if got := res.Aggregated("all").([]any); len(got) != 8 {
						return fmt.Errorf("incremental=%v: DEDUP kept %d values, want the 8 survivors", incremental, len(got))
					}
					return nil
				})
			}
		}},
		// [CHECK]: a failed check ends the sampling process where it stands:
		// nothing after it runs, and what it committed before is dropped from
		// the aggregation store and the aggregates.
		{"CHECK", func(t *testing.T) {
			tuner := New(Options{MaxPool: 8, Seed: 1})
			var after atomic.Int64
			run(t, tuner, func(p *P) error {
				res, err := p.Region(RegionSpec{Name: "r", Samples: 8,
					Aggregate: map[string]agg.Kind{"v": agg.Max},
				}, func(sp *SP) error {
					sp.Commit("v", float64(sp.Index()))
					sp.Check(sp.Index()%2 == 0)
					after.Add(1)
					return nil
				})
				if err != nil {
					return err
				}
				for i := 0; i < 8; i++ {
					if _, ok := res.Value("v", i); ok != (i%2 == 0) || res.Pruned(i) == ok {
						return fmt.Errorf("sample %d: committed %v, pruned %v", i, ok, res.Pruned(i))
					}
				}
				if got := res.Aggregated("v"); got != 6.0 {
					return fmt.Errorf("MAX = %v, want 6 (the odd samples were pruned)", got)
				}
				return nil
			})
			if after.Load() != 4 || tuner.Metrics().Pruned != 4 {
				t.Fatalf("%d processes ran past their check, %d pruned; want 4 and 4", after.Load(), tuner.Metrics().Pruned)
			}
		}},
		// [EXPOSE]: @expose binds a name in the store every process reads. A
		// later @expose rebinds it, and a sampling process's next @load sees
		// the new value, although it has already loaded (and cached) the old
		// one. Here the barrier callback, on the tuning side, re-exposes.
		{"EXPOSE", func(t *testing.T) {
			run(t, New(Options{MaxPool: 4, Seed: 1}), func(p *P) error {
				p.Expose("imgSize", 640)
				_, err := p.Region(RegionSpec{Name: "r", Samples: 3}, func(sp *SP) error {
					before := sp.Load("imgSize")
					sp.Sync(func(*SyncView) { p.Expose("imgSize", 480) })
					if after := sp.Load("imgSize"); before != 640 || after != 480 {
						return fmt.Errorf("sample %d loaded %v, then %v after the re-expose; want 640, 480",
							sp.Index(), before, after)
					}
					return nil
				})
				if got := p.Load("imgSize"); err == nil && got != 480 {
					err = fmt.Errorf("tuning process loads %v, want 480", got)
				}
				return err
			})
		}},
		// [LOAD]: @load of a name never exposed is a fault, in a sampling
		// process too: the runtime contains the panic and reports it as the
		// sample's error, naming the variable. A name exposed in one scope is
		// not loadable from another.
		{"LOAD", func(t *testing.T) {
			run(t, New(Options{MaxPool: 4, Seed: 1}), func(p *P) error {
				p.ExposeIn("canny", "sigma", 1.5)
				_, err := p.Region(RegionSpec{Name: "r", Samples: 2}, func(sp *SP) error {
					sp.Commit("v", sp.Load("sigma"))
					return nil
				})
				if err == nil || !strings.Contains(err.Error(), `"sigma" was not exposed`) {
					return fmt.Errorf("region error = %v, want the unexposed load named", err)
				}
				if got := p.LoadFrom("canny", "sigma"); got != 1.5 {
					return fmt.Errorf("loadFrom(canny, sigma) = %v, want 1.5", got)
				}
				return nil
			})
		}},
		// [LOADSAMPLE]: @loadS(x, i) reads what sampling process i committed,
		// whatever order the processes finish in. Here they finish in reverse:
		// each waits until every higher-indexed one is committed to the round
		// (its commit section has run), so the commit arena holds them in
		// reverse index order.
		{"LOADSAMPLE", func(t *testing.T) {
			const n = 4
			committed := func(rs *regionState) int {
				rs.mu.Lock()
				defer rs.mu.Unlock()
				return rs.done
			}
			run(t, New(Options{MaxPool: n, Seed: 1}), func(p *P) error {
				res, err := p.Region(RegionSpec{Name: "r", Samples: n}, func(sp *SP) error {
					deadline := time.Now().Add(5 * time.Second)
					for committed(sp.rs) < n-1-sp.Index() {
						if time.Now().After(deadline) {
							return errors.New("higher-indexed samples never committed")
						}
						time.Sleep(50 * time.Microsecond)
					}
					sp.Commit("v", sp.Index())
					return nil
				})
				if err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					if v, ok := res.Value("v", i); !ok || v != i {
						return fmt.Errorf("loadS(v, %d) = %v, %v; want %d", i, v, ok, i)
					}
					if off := res.groups[i].commits.off; off != int32(n-1-i) {
						return fmt.Errorf("sample %d's commit is entry %d of the arena, want %d: not in reverse", i, off, n-1-i)
					}
				}
				return nil
			})
		}},
		// [SPLIT]: the child is a tuning process of its own that runs beside
		// its parent, starts from a copy of σ (the values its continuation
		// captured) and an empty δ: its regions aggregate only its own
		// samples, although the parent and its siblings run same-named
		// regions at the same time.
		{"SPLIT", func(t *testing.T) {
			const kids = 3
			tuner := New(Options{MaxPool: 8, Seed: 1})
			tagged := func(p *P, tag int) error {
				res, err := p.Region(RegionSpec{Name: "r", Samples: 4}, func(sp *SP) error {
					sp.Commit("tag", tag)
					return nil
				})
				if err != nil {
					return err
				}
				if vs := res.Values("tag"); len(vs) != 4 || vs[0] != tag || vs[3] != tag {
					return fmt.Errorf("tuning process %d aggregated %v, want its own 4 commits of %d", tag, vs, tag)
				}
				return nil
			}
			run(t, tuner, func(p *P) error {
				proceed := make(chan struct{})
				for tag := 1; tag <= kids; tag++ {
					p.Split(func(child *P) error {
						if child.PID() == p.PID() {
							return errors.New("split child shares its parent's process")
						}
						select {
						case <-proceed:
						case <-time.After(5 * time.Second):
							return errors.New("parent did not run on past the split")
						}
						return tagged(child, tag)
					})
				}
				close(proceed)
				if err := tagged(p, 0); err != nil {
					return err
				}
				return p.Wait()
			})
			if m := tuner.Metrics(); m.Splits != kids || m.Regions != kids+1 {
				t.Fatalf("%d splits and %d regions, want %d and %d", m.Splits, m.Regions, kids, kids+1)
			}
		}},
		// [SYNC-S] and [SYNC-T]: every live sampling process notifies the
		// tuning process and waits; the barrier callback runs once they all
		// have, and only then are they released. Pruned processes do not
		// count, and each barrier is a generation of its own.
		{"SYNC", func(t *testing.T) {
			var gen, calls atomic.Int64
			run(t, New(Options{MaxPool: 4, Seed: 1}), func(p *P) error {
				res, err := p.Region(RegionSpec{Name: "r", Samples: 8}, func(sp *SP) error {
					sp.Check(sp.Index()%4 != 3)
					for want := int64(1); want <= 2; want++ {
						sp.Sync(func(v *SyncView) {
							calls.Add(1)
							if v.Count() != 6 {
								t.Errorf("barrier %d saw %d processes, want the 6 unpruned", want, v.Count())
							}
							time.Sleep(time.Millisecond) // a released process would overtake the callback
							gen.Store(want)
						})
						if gen.Load() != want {
							return fmt.Errorf("sample %d left barrier %d before its callback finished", sp.Index(), want)
						}
					}
					sp.Commit("v", 1.0)
					return nil
				})
				if err == nil && res.Len("v") != 6 {
					err = fmt.Errorf("%d of 6 unpruned samples committed", res.Len("v"))
				}
				return err
			})
			if calls.Load() != 2 {
				t.Fatalf("barrier callbacks ran %d times, want 2", calls.Load())
			}
		}},
		// [SYNC-S]: a sampling process notifies the barrier it has reached
		// and no other. Each callback of four consecutive barriers sees every
		// process once, each having committed the step it notified from.
		{"SYNC-S", func(t *testing.T) {
			const n, steps = 6, 4
			var calls atomic.Int64
			run(t, New(Options{MaxPool: 8, Seed: 1}), func(p *P) error {
				_, err := p.Region(RegionSpec{Name: "r", Samples: n}, func(sp *SP) error {
					for step := 1; step <= steps; step++ {
						time.Sleep(time.Duration(sp.Index()*step%5) * 100 * time.Microsecond)
						sp.Commit("step", step)
						sp.Sync(func(v *SyncView) {
							calls.Add(1)
							if v.Count() != n {
								t.Errorf("barrier %d saw %d processes, want %d", step, v.Count(), n)
								return
							}
							for i := 0; i < n; i++ {
								if got, _ := v.Value(i, "step"); got != step {
									t.Errorf("barrier %d: sample %d notified from step %v", step, v.Sample(i), got)
								}
							}
						})
					}
					return nil
				})
				return err
			})
			if calls.Load() != steps {
				t.Fatalf("barrier callbacks ran %d times, want %d", calls.Load(), steps)
			}
		}},
		// [SYNC-T]: the tuning process waits only for the live processes. Four
		// processes wait at the barrier while the other four are pruned late;
		// the last prune, not an arrival, releases the barrier.
		{"SYNC-T", func(t *testing.T) {
			var pruned atomic.Int64
			done := make(chan error, 1)
			go func() {
				done <- New(Options{MaxPool: 8, Seed: 1}).Run(func(p *P) error {
					res, err := p.Region(RegionSpec{Name: "r", Samples: 8}, func(sp *SP) error {
						if sp.Index() >= 4 {
							time.Sleep(2 * time.Millisecond) // the others are waiting by now
							pruned.Add(1)
							sp.Check(false)
						}
						sp.Sync(func(v *SyncView) {
							if v.Count() != 4 || pruned.Load() != 4 {
								t.Errorf("barrier released with %d waiting and %d pruned, want 4 and 4",
									v.Count(), pruned.Load())
							}
						})
						sp.Commit("v", 1.0)
						return nil
					})
					if err == nil && res.Len("v") != 4 {
						err = fmt.Errorf("%d of 4 survivors committed", res.Len("v"))
					}
					return err
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the barrier was never released: late prunes blocked it")
			}
		}},
	} {
		t.Run(row.rule, row.run)
	}
}
