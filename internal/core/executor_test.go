package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/dist"
	"repro/internal/sched"
)

// fakeExec runs dispatched samples through a DetachedRunner in-process —
// the executor contract without a wire. Knobs make it decline, fail, or
// flake on demand.
type fakeExec struct {
	runner *DetachedRunner

	declineBegin bool // BeginRound returns ErrExecUnsupported
	unsupported  bool // every Execute reports Unsupported
	flakyGroup   int  // this group's first attempt fails retryably (-1 off)

	// BeginRound and Execute decline this many calls with errNoLiveWorker.
	noLiveBegins, noLiveExecs atomic.Int64

	begun    atomic.Int64
	executed atomic.Int64
	ended    atomic.Int64

	mu     sync.Mutex
	flaked map[int]bool
}

func newFakeExec() *fakeExec {
	return &fakeExec{runner: NewDetachedRunner(), flakyGroup: -1, flaked: make(map[int]bool)}
}

func (f *fakeExec) BeginRound(r RoundTask) (any, error) {
	f.begun.Add(1)
	if f.declineBegin {
		return nil, ErrExecUnsupported
	}
	if f.noLiveBegins.Add(-1) >= 0 {
		return nil, errNoLiveWorker
	}
	return &r, nil
}

func (f *fakeExec) Execute(ctx context.Context, handle any, group, attempt int) (ExecResult, error) {
	f.executed.Add(1)
	if f.noLiveExecs.Add(-1) >= 0 {
		return ExecResult{}, errNoLiveWorker
	}
	r := handle.(*RoundTask)
	if f.unsupported {
		return ExecResult{Unsupported: true}, nil
	}
	if group == f.flakyGroup {
		f.mu.Lock()
		first := !f.flaked[group]
		f.flaked[group] = true
		f.mu.Unlock()
		if first {
			return ExecResult{}, Transient(errors.New("fake: connection reset"))
		}
	}
	res := f.runner.Run(ctx, r.Spec, r.Body, SampleTask{
		Seed: r.Seed, N: r.N, Group: group, Attempt: attempt, Feedback: r.Feedback,
	}, r.Exposed)
	if err := ctx.Err(); err != nil {
		return ExecResult{}, err // honour the per-sample deadline, as Executor asks
	}
	return res, nil
}

func (f *fakeExec) EndRound(any) { f.ended.Add(1) }
func (f *fakeExec) Capacity() int {
	return 4
}

// parityKind is one way the sampling processes of the reference program can
// end. odd, when set, is what sample oddSample does between drawing and
// committing, on every attempt.
type parityKind struct {
	name        string
	fault       FaultPolicy
	incremental bool
	aggregate   map[string]agg.Kind
	odd         func(sp *SP) error
}

const oddSample = 2

var errOdd = errors.New("parity: odd sample failed")

var parityKinds = []parityKind{
	{name: "clean"},
	{name: "prune", odd: func(sp *SP) error { sp.Work(0.125); sp.Check(false); return nil }},
	{name: "panic", odd: func(sp *SP) error { sp.Work(0.125); panic("parity: odd sample panicked") }},
	{name: "error", fault: FaultPolicy{MaxAttempts: 3}, odd: func(sp *SP) error { sp.Work(0.125); return errOdd }},
	{name: "retry then succeed", fault: FaultPolicy{MaxAttempts: 3, Backoff: time.Microsecond},
		odd: func(sp *SP) error {
			sp.Work(0.125)
			if sp.Attempt() == 1 {
				return Transient(errOdd)
			}
			return nil
		}},
	{name: "retries exhausted", fault: FaultPolicy{MaxAttempts: 2, Backoff: time.Microsecond},
		odd: func(sp *SP) error { sp.Work(0.125); return Transient(errOdd) }},
	// The deadline is far above what a healthy sample needs even under -race
	// on a loaded machine; only the odd sample, which waits for it, meets it.
	{name: "timeout", fault: FaultPolicy{SampleTimeout: 200 * time.Millisecond},
		odd: func(sp *SP) error { <-sp.Context().Done(); return sp.Context().Err() }},
	// MIN and MAX do not depend on the order samples complete in.
	{name: "incremental, one variable", incremental: true, aggregate: map[string]agg.Kind{"y": agg.Max}},
	{name: "incremental, two variables", incremental: true, aggregate: map[string]agg.Kind{"y": agg.Max, "z": agg.Min}},
}

// runParityKind runs the reference tuning program — the body loads exposed
// state, draws, accounts work, scores and commits: every externalized channel
// an executor must round-trip — under pk's fault policy and returns what it
// left behind: the region dump and, as lifecycle, the tuner's counters and per
// sample the kinds of the trace events it emitted, in order.
func runParityKind(t *testing.T, pk parityKind, opts Options) (dump, lifecycle string) {
	t.Helper()
	tr := NewTrace()
	tr.SetClock(counterClock())
	opts.Trace, opts.Incremental = tr, pk.incremental
	if pk.fault != (FaultPolicy{}) {
		opts.Fault = pk.fault
	}
	tuner := New(opts)
	err := tuner.Run(func(p *P) error {
		p.Expose("bias", 0.125)
		res, err := p.Region(RegionSpec{
			Name:      "parity",
			Samples:   8,
			Aggregate: pk.aggregate,
			Score:     func(sp *SP) float64 { return sp.MustGet("y").(float64) },
		}, func(sp *SP) error {
			x := sp.Float("x", dist.Uniform(0, 1))
			k := sp.Int("k", dist.IntRange(1, 5))
			if pk.odd != nil && sp.Index() == oddSample {
				if err := pk.odd(sp); err != nil {
					return err
				}
			}
			sp.Work(0.25)
			y := x*float64(k) + sp.Load("bias").(float64)
			sp.Commit("y", y)
			sp.Commit("z", -y)
			return nil
		})
		if err != nil {
			return err
		}
		for g := 0; g < res.N(); g++ {
			dump += fmt.Sprintf("g%d params=%v score=%v pruned=%v failed=%v timedOut=%v", g,
				res.Params(g), res.Score(g), res.Pruned(g), res.Err(g) != nil, res.TimedOut(g))
			for _, x := range []string{"y", "z"} {
				if v, ok := res.Value(x, g); ok {
					dump += fmt.Sprintf(" %s=%v", x, v)
				}
			}
			dump += "\n"
		}
		best := res.BestIndex()
		if best < 0 {
			return errors.New("no best sample")
		}
		dump += fmt.Sprintf("best=%d score=%v aggregated y=%v z=%v\n",
			best, res.Score(best), res.Aggregated("y"), res.Aggregated("z"))
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	m := tuner.Metrics()
	m.Scheduler = sched.Stats{} // an executor's capacity widens the pool
	lifecycle = fmt.Sprintf("metrics=%+v\n", m)

	kinds := make(map[int][]string) // Sample is -1 on region-level events
	for _, e := range tr.Events() {
		kinds[e.Sample] = append(kinds[e.Sample], e.Kind.String())
	}
	for g := -1; g < 8; g++ {
		lifecycle += fmt.Sprintf("trace g%d=%v\n", g, kinds[g])
	}
	return dump, lifecycle
}

// runParityProgram is the region dump of the clean kind.
func runParityProgram(t *testing.T, opts Options) string {
	t.Helper()
	dump, _ := runParityKind(t, parityKinds[0], opts)
	return dump
}

// TestExecutorParityWithLocal observes the one sample lifecycle from outside:
// however a sampling process ends, a round run through an executor leaves the
// same results, the same counters and the same trace events per sample as the
// round run in-process.
func TestExecutorParityWithLocal(t *testing.T) {
	for _, pk := range parityKinds {
		t.Run(pk.name, func(t *testing.T) {
			local, localLife := runParityKind(t, pk, Options{MaxPool: 4, Seed: 7})
			ex := newFakeExec()
			remote, remoteLife := runParityKind(t, pk, Options{MaxPool: 4, Seed: 7, Executor: ex})
			if local != remote || localLife != remoteLife {
				t.Fatalf("executor run diverged from local run:\nlocal:\n%s%s\nremote:\n%s%s", local, localLife, remote, remoteLife)
			}
			if ex.begun.Load() == 0 || ex.executed.Load() == 0 {
				t.Fatalf("executor unused: begun=%d executed=%d", ex.begun.Load(), ex.executed.Load())
			}
			if ex.begun.Load() != ex.ended.Load() {
				t.Fatalf("BeginRound/EndRound imbalance: %d vs %d", ex.begun.Load(), ex.ended.Load())
			}
		})
	}
}

func TestExecutorDeclineBeginFallsBack(t *testing.T) {
	local := runParityProgram(t, Options{MaxPool: 4, Seed: 11})
	ex := newFakeExec()
	ex.declineBegin = true
	got := runParityProgram(t, Options{MaxPool: 4, Seed: 11, Executor: ex})
	if got != local {
		t.Fatalf("fallback run diverged:\nlocal:\n%s\ngot:\n%s", local, got)
	}
	if ex.executed.Load() != 0 {
		t.Fatalf("Execute called after BeginRound declined")
	}
}

func TestExecutorUnsupportedPoisonsRegion(t *testing.T) {
	ex := newFakeExec()
	ex.unsupported = true
	tuner := New(Options{MaxPool: 4, Seed: 3, Executor: ex})
	const samples = 64 // on 4 local + 4 executor slots
	runRegion := func(p *P) error {
		res, err := p.Region(RegionSpec{Name: "r", Samples: samples}, func(sp *SP) error {
			sp.Commit("v", sp.Float("x", dist.Uniform(0, 1)))
			return nil
		})
		if err != nil {
			return err
		}
		if res.N() != samples || res.Len("v") != samples {
			return fmt.Errorf("N=%d Len=%d", res.N(), res.Len("v"))
		}
		return nil
	}
	err := tuner.Run(func(p *P) error {
		if err := runRegion(p); err != nil {
			return err
		}
		begun := ex.begun.Load()
		if begun == 0 {
			return errors.New("executor never consulted")
		}
		// The poison holds within the round too: a worker whose sample the
		// executor declined runs its next samples in-process, and so does
		// every worker that claims after it. Only the workers already
		// dispatching when the first answer came back — at most one per slot —
		// ever reached the executor.
		if n := ex.executed.Load(); n == 0 || n > 8 {
			return fmt.Errorf("Execute called %d times for %d samples on 8 slots, want 1..8", n, samples)
		}
		// Second round of the same region: poisoned, so no new BeginRound.
		if err := runRegion(p); err != nil {
			return err
		}
		if ex.begun.Load() != begun {
			return fmt.Errorf("poisoned region dispatched again: begun %d -> %d", begun, ex.begun.Load())
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// A declined dispatch is not a started sample: only the in-process runs count.
	if got := tuner.Metrics().Samples; got != 2*samples {
		t.Fatalf("Samples=%d after two declined rounds of %d, want %d", got, samples, 2*samples)
	}
}

// errNoLiveWorker is a fleet's decline while it has no live worker: Transient,
// so it does not poison the region.
var errNoLiveWorker = Transient(fmt.Errorf("%w: no live worker", ErrExecUnsupported))

// TestExecutorTransientDeclineKeepsDispatching: an executor that declines
// because no worker is live at that instant — an elastic fleet briefly at
// zero — runs that round or that sample in-process, and still gets every
// later sample once it accepts again.
func TestExecutorTransientDeclineKeepsDispatching(t *testing.T) {
	const samples = 32
	for _, tc := range []struct {
		name          string
		begins, execs int64 // transient declines of BeginRound and Execute
		wantExecuted  int64 // Execute calls over two rounds
	}{
		// The declined call is one of the round's Execute calls; its sample
		// runs in-process, and every other sample of both rounds dispatches.
		{name: "one sample declined", execs: 1, wantExecuted: 2 * samples},
		{name: "one round declined", begins: 1, wantExecuted: samples},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ex := newFakeExec()
			ex.noLiveBegins.Store(tc.begins)
			ex.noLiveExecs.Store(tc.execs)
			tuner := New(Options{MaxPool: 2, Seed: 9, Executor: ex})
			err := tuner.Run(func(p *P) error {
				for round := 0; round < 2; round++ {
					res, err := p.Region(RegionSpec{Name: "elastic", Samples: samples}, func(sp *SP) error {
						sp.Commit("v", sp.Float("x", dist.Uniform(0, 1)))
						return nil
					})
					if err != nil {
						return err
					}
					if res.Len("v") != samples {
						return fmt.Errorf("round %d: Len=%d", round, res.Len("v"))
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got := ex.begun.Load(); got != 2 {
				t.Errorf("BeginRound called %d times over two rounds, want 2: the region was poisoned", got)
			}
			if got := ex.executed.Load(); got != tc.wantExecuted {
				t.Errorf("Execute called %d times, want %d", got, tc.wantExecuted)
			}
			if _, poisoned := tuner.execSkip.Load("elastic"); poisoned {
				t.Error("a transient decline poisoned the region")
			}
			if got := tuner.Metrics().Samples; got != 2*samples {
				t.Errorf("Samples=%d, want %d", got, 2*samples)
			}
		})
	}
}

func TestExecutorSyncBodyFallsBack(t *testing.T) {
	ex := newFakeExec()
	tuner := New(Options{MaxPool: 2, Seed: 5, Executor: ex})
	const samples = 32 // on 2 local + 4 executor slots: the barrier needs them all co-resident
	err := tuner.Run(func(p *P) error {
		var syncs, arrived atomic.Int64
		res, err := p.Region(RegionSpec{Name: "barrier", Samples: samples}, func(sp *SP) error {
			x := sp.Float("x", dist.Uniform(0, 1))
			sp.Sync(func(v *SyncView) { syncs.Add(1); arrived.Store(int64(v.Count())) })
			sp.Commit("v", x)
			return nil
		})
		if err != nil {
			return err
		}
		if res.Len("v") != samples {
			return fmt.Errorf("Len=%d", res.Len("v"))
		}
		if syncs.Load() != 1 || arrived.Load() != samples {
			return fmt.Errorf("Sync callback ran %d times and saw %d processes, want once with %d", syncs.Load(), arrived.Load(), samples)
		}
		// Once the first dispatched sample came back Unsupported nothing more
		// was dispatched; only the first worker of each slot could get there.
		if n := ex.executed.Load(); n == 0 || n > 6 {
			return fmt.Errorf("Execute called %d times for %d samples on 6 slots, want 1..6", n, samples)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, poisoned := tuner.execSkip.Load("barrier"); !poisoned {
		t.Fatalf("Sync region not poisoned for future rounds")
	}
	if got := tuner.Metrics().Samples; got != samples {
		t.Fatalf("Samples=%d, want %d: a sample the executor declined was counted before its in-process run", got, samples)
	}
}

func TestExecutorRetryableFailureRetries(t *testing.T) {
	ex := newFakeExec()
	ex.flakyGroup = 2
	opts := Options{MaxPool: 4, Seed: 7, Executor: ex, Fault: FaultPolicy{MaxAttempts: 3}}
	got := runParityProgram(t, opts)
	local := runParityProgram(t, Options{MaxPool: 4, Seed: 7})
	if got != local {
		t.Fatalf("retried run diverged from local run:\nlocal:\n%s\ngot:\n%s", local, got)
	}
}

func TestExecutorRetryCountsInMetrics(t *testing.T) {
	ex := newFakeExec()
	ex.flakyGroup = 0
	tuner := New(Options{MaxPool: 4, Seed: 9, Executor: ex, Fault: FaultPolicy{MaxAttempts: 2}})
	err := tuner.Run(func(p *P) error {
		res, err := p.Region(RegionSpec{Name: "r", Samples: 3}, func(sp *SP) error {
			sp.Commit("v", sp.Float("x", dist.Uniform(0, 1)))
			return nil
		})
		if err != nil {
			return err
		}
		if res.Len("v") != 3 {
			return fmt.Errorf("Len=%d", res.Len("v"))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m := tuner.Metrics(); m.Retried != 1 {
		t.Fatalf("Retried=%d, want 1", m.Retried)
	}
}

func TestExecutorWorkAccounting(t *testing.T) {
	ex := newFakeExec()
	tuner := New(Options{MaxPool: 4, Seed: 1, Executor: ex})
	err := tuner.Run(func(p *P) error {
		_, err := p.Region(RegionSpec{Name: "w", Samples: 5}, func(sp *SP) error {
			sp.Work(0.5)
			sp.Commit("v", 1.0)
			return nil
		})
		return err
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	m := tuner.Metrics()
	if math.Abs(m.WorkUnits-2.5) > 1e-9 {
		t.Fatalf("WorkUnits=%v, want 2.5", m.WorkUnits)
	}
	if math.Abs(m.WorkParallel-2.5) > 1e-9 {
		t.Fatalf("WorkParallel=%v, want 2.5", m.WorkParallel)
	}
}
