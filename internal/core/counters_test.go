package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
)

// counterRow is one way a round's samples can settle, for
// TestRoundCountersExact.
type counterRow struct {
	name  string
	fault FaultPolicy
	cv    int
	exec  bool                             // dispatch through an in-memory executor
	odd   func(sp *SP) error               // what sample g does when pick(g) holds; nil for nothing
	pick  func(g int) bool                 // which samples run odd
	check func(t *testing.T, r roundCount) // what the row must have exercised
}

// roundCount is what one round settled, read from its trace events, which
// are emitted per sample as it settles and never batched.
type roundCount struct {
	done, pruned, failed, timeouts, retries int64
}

// settled is how many (group, fold) pairs the round settled: every launched
// pair settles exactly once.
func (r roundCount) settled() int64 { return r.done + r.pruned + r.failed + r.timeouts }

func countRound(events []Event) roundCount {
	var r roundCount
	for _, e := range events {
		switch e.Kind {
		case EvSampleDone:
			r.done++
		case EvSamplePruned:
			r.pruned++
		case EvSampleFailed:
			r.failed++
		case EvSampleTimeout:
			r.timeouts++
		case EvSampleRetry:
			r.retries++
		}
	}
	return r
}

var errFlaky = errors.New("counters: flaky sample")

// TestRoundCountersExact: the tuner's sample count, the scheduler's
// admissions and the region's outcome counters are counted in the round and
// folded in once it ends. At every round boundary they must read what
// counting each event as it happens reads: a sample count of one per attempt,
// wherever and however it settled (committed, retried, abandoned at its
// deadline, cut by the region budget, dispatched), and one admission per
// launched pair, plus the tuning process's own re-admission and any launcher
// admission released unused.
func TestRoundCountersExact(t *testing.T) {
	every := func(m int) func(g int) bool { return func(g int) bool { return g%m == 1 } }
	rows := []counterRow{
		{name: "plain"},
		{name: "transient retries", fault: FaultPolicy{MaxAttempts: 3, Backoff: time.Microsecond}, pick: every(3),
			odd: func(sp *SP) error {
				if sp.Attempt() < 3 {
					return Transient(errFlaky)
				}
				return nil
			},
			check: func(t *testing.T, r roundCount) {
				if r.retries == 0 {
					t.Error("no sample was retried")
				}
			}},
		{name: "sample timeout abandons", fault: FaultPolicy{SampleTimeout: 20 * time.Millisecond}, pick: every(16),
			odd: func(sp *SP) error { <-sp.Context().Done(); return sp.Context().Err() },
			check: func(t *testing.T, r roundCount) {
				if r.timeouts == 0 {
					t.Error("no sample timed out")
				}
			}},
		{name: "prune", pick: every(4), odd: func(sp *SP) error { sp.Check(false); return nil },
			check: func(t *testing.T, r roundCount) {
				if r.pruned == 0 {
					t.Error("no sample was pruned")
				}
			}},
		{name: "failure", pick: every(5), odd: func(sp *SP) error { return errFlaky }},
		{name: "region budget cut", fault: FaultPolicy{RegionBudget: 15 * time.Millisecond},
			pick: func(int) bool { return true },
			odd: func(sp *SP) error {
				select {
				case <-sp.Context().Done():
					return sp.Context().Err()
				case <-time.After(2 * time.Millisecond):
					return nil
				}
			},
			check: func(t *testing.T, r roundCount) {
				if r.settled() == counterSamples {
					t.Error("the region budget cut nothing")
				}
			}},
		{name: "cross-validation", cv: 3},
		{name: "in-memory executor with a flaky sample", exec: true, fault: FaultPolicy{MaxAttempts: 3},
			check: func(t *testing.T, r roundCount) {
				if r.retries == 0 {
					t.Error("no dispatched sample was retried")
				}
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			testRoundCounters(t, row)
		})
	}
}

const counterSamples = 48

func testRoundCounters(t *testing.T, row counterRow) {
	reg := obs.NewRegistry()
	tr := NewTrace()
	opts := Options{MaxPool: 2, Seed: 3, Obs: reg, Trace: tr, Fault: row.fault}
	var ex *fakeExec
	if row.exec {
		ex = newFakeExec()
		ex.flakyGroup = 5
		opts.Executor = ex
	}
	tuner := New(opts)
	spec := RegionSpec{Name: "counters", Samples: counterSamples, CV: row.cv}
	if row.cv > 0 {
		spec.Score = func(sp *SP) float64 { return sp.MustGet("y").(float64) }
	}
	outcome := func(result string) *obs.Counter {
		return reg.Counter(MetricSamples, "region", spec.Name, "result", result)
	}
	dur := reg.Histogram(MetricSampleDuration, obs.DurationBuckets(), "region", spec.Name)
	err := tuner.Run(func(p *P) error {
		for round := 0; round < 3; round++ {
			before, seen := tuner.Metrics(), len(tr.Events())
			idle, durs := tuner.ctr.idleLaunches.Load(), dur.Count()
			outs := [3]int64{outcome("done").Value(), outcome("pruned").Value(), outcome("failed").Value()}
			if ex != nil {
				ex.mu.Lock()
				clear(ex.flaked) // the flaky sample flakes once a round
				ex.mu.Unlock()
			}
			_, err := p.Region(spec, func(sp *SP) error {
				x := sp.Float("x", dist.Uniform(0, 1))
				if row.odd != nil && row.pick(sp.Index()) {
					if err := row.odd(sp); err != nil {
						return err
					}
				}
				sp.Commit("y", x)
				return nil
			})
			if err != nil {
				return err
			}
			r := countRound(tr.Events()[seen:])
			after := tuner.Metrics()
			if got, want := after.Samples-before.Samples, r.settled()+r.retries; got != want {
				t.Errorf("round %d: Samples moved by %d, want %d attempts (%+v)", round, got, want, r)
			}
			want := r.settled() + 1 + tuner.ctr.idleLaunches.Load() - idle
			if got := after.Scheduler.Admitted - before.Scheduler.Admitted; got != want {
				t.Errorf("round %d: Scheduler.Admitted moved by %d, want %d (%+v)", round, got, want, r)
			}
			gotOuts := [3]int64{outcome("done").Value() - outs[0], outcome("pruned").Value() - outs[1], outcome("failed").Value() - outs[2]}
			if gotOuts != [3]int64{r.done, r.pruned, r.failed} {
				t.Errorf("round %d: done/pruned/failed counters moved by %v, want %v", round, gotOuts, [3]int64{r.done, r.pruned, r.failed})
			}
			// An abandoned attempt's duration is observed when its body returns,
			// which may be after the round.
			if got := int64(dur.Count() - durs); r.timeouts == 0 && got != r.settled()+r.retries {
				t.Errorf("round %d: sample durations observed %d times, want %d", round, got, r.settled()+r.retries)
			}
			if row.check != nil {
				row.check(t, r)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ex != nil && ex.executed.Load() == 0 {
		t.Error("the executor ran nothing")
	}
}

// TestSteadyRoundNeverGrowsArena: a round sizes its parameter arena for the
// longest snapshot its shape's last round drew, so a steady-state round
// appends every snapshot under the round's lock without growing it.
func TestSteadyRoundNeverGrowsArena(t *testing.T) {
	const n = 100 // 3 parameters a sample: 300 is no capacity append growth reaches
	tuner := New(Options{MaxPool: 2, Seed: 1})
	err := tuner.Run(func(p *P) error {
		for round := 0; round < 3; round++ {
			res, err := p.Region(RegionSpec{Name: "arena", Samples: n}, func(sp *SP) error {
				x := sp.Float("x", dist.Uniform(0, 1))
				sp.Float("y", dist.Uniform(0, 1))
				if sp.Index()%2 == 0 {
					sp.Float("z", dist.Uniform(0, 1)) // snapshots of 2 and 3 parameters
				}
				sp.Commit("v", x)
				return nil
			})
			if err != nil {
				return err
			}
			if want := n/2*3 + n/2*2; len(res.arena) != want {
				return fmt.Errorf("round %d: arena holds %d parameters, want %d", round, len(res.arena), want)
			}
			if round > 0 && cap(res.arena) != 3*n {
				return fmt.Errorf("round %d: arena capacity %d, want the %d set-up sized it for: it grew", round, cap(res.arena), 3*n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
