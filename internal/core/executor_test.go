package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dist"
)

// fakeExec runs dispatched samples through a DetachedRunner in-process —
// the executor contract without a wire. Knobs make it decline, fail, or
// flake on demand.
type fakeExec struct {
	runner *DetachedRunner

	declineBegin bool // BeginRound returns ErrExecUnsupported
	unsupported  bool // every Execute reports Unsupported
	flakyGroup   int  // this group's first attempt fails retryably (-1 off)

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
	return &r, nil
}

func (f *fakeExec) Execute(ctx context.Context, handle any, group, attempt int) (ExecResult, error) {
	f.executed.Add(1)
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
	return f.runner.Run(ctx, r.Spec, r.Body, SampleTask{
		Seed: r.Seed, N: r.N, Group: group, Attempt: attempt, Feedback: r.Feedback,
	}, r.Exposed), nil
}

func (f *fakeExec) EndRound(any) { f.ended.Add(1) }
func (f *fakeExec) Capacity() int {
	return 4
}

// sampleDump flattens one region result for comparison across runs.
func sampleDump(res *Result) string {
	s := ""
	for g := 0; g < res.N(); g++ {
		s += fmt.Sprintf("g%d params=%v", g, res.Params(g))
		if v, ok := res.Value("y", g); ok {
			s += fmt.Sprintf(" y=%v", v)
		}
		s += "\n"
	}
	return s
}

// runParityProgram runs the reference tuning program and returns its region
// dump. The body loads exposed state, draws, scores, and commits — every
// externalized channel the executor must round-trip.
func runParityProgram(t *testing.T, opts Options) string {
	t.Helper()
	tuner := New(opts)
	var dump string
	err := tuner.Run(func(p *P) error {
		p.Expose("bias", 0.125)
		res, err := p.Region(RegionSpec{
			Name:    "parity",
			Samples: 8,
			Score:   func(sp *SP) float64 { return sp.MustGet("y").(float64) },
		}, func(sp *SP) error {
			x := sp.Float("x", dist.Uniform(0, 1))
			k := sp.Int("k", dist.IntRange(1, 5))
			sp.Work(0.25)
			sp.Commit("y", x*float64(k)+sp.Load("bias").(float64))
			return nil
		})
		if err != nil {
			return err
		}
		dump = sampleDump(res)
		best := res.BestIndex()
		if best < 0 {
			return errors.New("no best sample")
		}
		dump += fmt.Sprintf("best=%d score=%v\n", best, res.MustValue("y", best))
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return dump
}

func TestExecutorParityWithLocal(t *testing.T) {
	local := runParityProgram(t, Options{MaxPool: 4, Seed: 7})
	ex := newFakeExec()
	remote := runParityProgram(t, Options{MaxPool: 4, Seed: 7, Executor: ex})
	if local != remote {
		t.Fatalf("executor run diverged from local run:\nlocal:\n%s\nremote:\n%s", local, remote)
	}
	if ex.begun.Load() == 0 || ex.executed.Load() == 0 {
		t.Fatalf("executor unused: begun=%d executed=%d", ex.begun.Load(), ex.executed.Load())
	}
	if ex.begun.Load() != ex.ended.Load() {
		t.Fatalf("BeginRound/EndRound imbalance: %d vs %d", ex.begun.Load(), ex.ended.Load())
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
