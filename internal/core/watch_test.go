package core

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// onWorker reports whether its caller runs on a round's worker goroutine:
// regionState.worker is at the root of its stack.
func onWorker() bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*regionState).worker") {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestCancellableRoundRunsInline: every round runs each body on the worker
// that claimed it — no goroutine per sample — whatever can end its attempts:
// a cancellable context, a per-sample deadline, a region budget, or nothing
// at all.
func TestCancellableRoundRunsInline(t *testing.T) {
	for _, tc := range []struct {
		name        string
		cancellable bool
		fault       FaultPolicy
	}{
		{"cancellable context", true, FaultPolicy{}},
		{"sample timeout", false, FaultPolicy{SampleTimeout: time.Minute}},
		{"region budget", false, FaultPolicy{RegionBudget: time.Minute}},
		{"plain run", false, FaultPolicy{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var off atomic.Int64
			prog := func(p *P) error {
				_, err := p.Region(RegionSpec{Name: "inline", Samples: 64}, func(sp *SP) error {
					if !onWorker() {
						off.Add(1)
					}
					sp.Commit("v", 1.0)
					return nil
				})
				return err
			}
			tuner := New(Options{MaxPool: 2, Seed: 1, Fault: tc.fault})
			var err error
			if tc.cancellable {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				err = tuner.RunContext(ctx, prog)
			} else {
				err = tuner.Run(prog)
			}
			if err != nil {
				t.Fatal(err)
			}
			if n := off.Load(); n > 0 {
				t.Fatalf("%d of 64 samples ran off their worker's goroutine", n)
			}
		})
	}
}

// wedgedBodies runs bodies that ignore their context and never re-enter the
// runtime until released, and counts how many are still inside.
type wedgedBodies struct {
	release atomic.Bool
	inside  atomic.Int64
	started chan struct{}
	once    sync.Once
}

func newWedgedBodies() *wedgedBodies { return &wedgedBodies{started: make(chan struct{})} }

func (w *wedgedBodies) body(sp *SP) error {
	w.inside.Add(1)
	defer w.inside.Add(-1)
	w.once.Do(func() { close(w.started) })
	for !w.release.Load() {
		time.Sleep(time.Millisecond)
	}
	return nil
}

// drain lets the wedged bodies go and waits for them to leave.
func (w *wedgedBodies) drain(t *testing.T) {
	t.Helper()
	w.release.Store(true)
	for deadline := time.Now().Add(5 * time.Second); w.inside.Load() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d released bodies never returned", w.inside.Load())
		}
	}
}

// checkDrained asserts what a prompt cancellation leaves: the run back within
// a second of the end of its context, no slot held, every sample timed out.
func checkDrained(t *testing.T, tuner *Tuner, res *Result, took time.Duration) {
	t.Helper()
	if took > time.Second {
		t.Fatalf("the round took %v to drain after its context ended", took)
	}
	if got := tuner.sched.InUse(); got != 0 {
		t.Fatalf("pool occupancy %d after the drained round, want 0", got)
	}
	if res == nil {
		t.Fatal("no result")
	}
	for i := 0; i < res.N(); i++ {
		if !res.TimedOut(i) {
			t.Fatalf("sample %d: %v, want a timeout", i, res.Err(i))
		}
	}
}

// TestCancelDrainsWedgedBodies: cancelling the run ends a round whose bodies
// neither watch their context nor call back into the runtime.
func TestCancelDrainsWedgedBodies(t *testing.T) {
	defer leakcheck.Check(t)()
	w := newWedgedBodies()
	defer w.drain(t)
	ctx, cancel := context.WithCancel(context.Background())
	tuner := New(Options{MaxPool: 2, Seed: 5, Fault: FaultPolicy{DegradeEmpty: true}})
	var res *Result
	var cancelled time.Time
	go func() {
		<-w.started
		cancelled = time.Now()
		cancel()
	}()
	err := tuner.RunContext(ctx, func(p *P) error {
		var err error
		res, err = p.Region(RegionSpec{Name: "wedged", Samples: 4}, w.body)
		return err
	})
	took := time.Since(cancelled)
	if err != nil {
		t.Fatal(err)
	}
	checkDrained(t, tuner, res, took)
}

// TestRegionBudgetDrainsWedgedBodies: the region budget alone, with nobody
// cancelling, ends such a round just as promptly.
func TestRegionBudgetDrainsWedgedBodies(t *testing.T) {
	defer leakcheck.Check(t)()
	w := newWedgedBodies()
	defer w.drain(t)
	const budget = 50 * time.Millisecond
	tuner := New(Options{MaxPool: 2, Seed: 5, Fault: FaultPolicy{RegionBudget: budget, DegradeEmpty: true}})
	var res *Result
	var start time.Time
	run(t, tuner, func(p *P) error {
		var err error
		start = time.Now()
		res, err = p.Region(RegionSpec{Name: "wedged", Samples: 4}, w.body)
		return err
	})
	checkDrained(t, tuner, res, time.Since(start)-budget)
}

// TestCancelDrainsBarrierBehindWedgedSibling: siblings blocked at a Sync
// barrier that a wedged body will never reach are released by the
// cancellation too, and report timeouts like it.
func TestCancelDrainsBarrierBehindWedgedSibling(t *testing.T) {
	defer leakcheck.Check(t)()
	w := newWedgedBodies()
	defer w.drain(t)
	ctx, cancel := context.WithCancel(context.Background())
	tuner := New(Options{MaxPool: 4, Seed: 11, Fault: FaultPolicy{DegradeEmpty: true}})
	var round atomic.Pointer[regionState]
	var res *Result
	var cancelled time.Time
	go func() {
		<-w.started
		for rs := round.Load(); rs == nil || rs.barrier.nwait.Load() < 3; rs = round.Load() {
			time.Sleep(time.Millisecond) // until all three siblings wait at the barrier
		}
		cancelled = time.Now()
		cancel()
	}()
	err := tuner.RunContext(ctx, func(p *P) error {
		var err error
		res, err = p.Region(RegionSpec{Name: "barrier", Samples: 4}, func(sp *SP) error {
			round.Store(sp.rs)
			if sp.Index() == 0 {
				return w.body(sp)
			}
			sp.Sync(func(v *SyncView) {})
			sp.Commit("v", 1.0)
			return nil
		})
		return err
	})
	took := time.Since(cancelled)
	if err != nil {
		t.Fatal(err)
	}
	checkDrained(t, tuner, res, took)
}
