//go:build goexperiment.synctest

//go:debug asynctimerchan=0

// The fault layer's promises about time, tested on a virtual clock: each test
// builds its tuner inside a synctest bubble, so the runtime's timers run on
// the bubble's clock and every instant asserted here is exact. Run them with
//
//	GOEXPERIMENT=synctest go test -run '^TestVirtual' ./internal/core/
//
// (the module root's TestSynctestSuite does so under plain `go test ./...`).

package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/synctest"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// timedRound runs one round of body on tuner under ctx and returns its result
// and the time the Region call took on the bubble's clock. The run must
// succeed and leave no pool slot held.
func timedRound(t *testing.T, ctx context.Context, tuner *Tuner, spec RegionSpec, body func(sp *SP) error) (res *Result, took time.Duration) {
	t.Helper()
	err := tuner.RunContext(ctx, func(p *P) error {
		start := time.Now()
		var err error
		res, err = p.Region(spec, body)
		took = time.Since(start)
		return err
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := tuner.sched.InUse(); n != 0 {
		t.Fatalf("pool occupancy %d after Run, want 0", n)
	}
	return res, took
}

// hang blocks until the runtime gives up on the attempt.
func hang(sp *SP) error {
	<-sp.Context().Done()
	return sp.Context().Err()
}

// compute works for d unless the runtime gives up on the attempt first.
func compute(sp *SP, d time.Duration) error {
	select {
	case <-time.After(d):
		return nil
	case <-sp.Context().Done():
		return sp.Context().Err()
	}
}

// TestVirtualHungSamplerDegradesWithinDeadline is the fault-layer acceptance
// test: a region with a permanently-hung sampler gives it up exactly
// SampleTimeout after it started, aggregates the surviving samples,
// increments samples_timeout and regions_degraded in the Prometheus snapshot
// — and the same seed reproduces the identical trace twice.
func TestVirtualHungSamplerDegradesWithinDeadline(t *testing.T) {
	const hungSample, timeout = 2, 25 * time.Millisecond
	runOnce := func() (trace []byte) {
		synctest.Run(func() {
			var live, peakLive atomic.Int64 // bodies running, the hung one aside
			reg := obs.NewRegistry()
			tr := NewTrace()
			tr.SetClock(counterClock())
			tuner := New(Options{MaxPool: 1, Seed: 42, Trace: tr, Obs: reg, Fault: FaultPolicy{SampleTimeout: timeout}})
			hungFor := make(chan time.Duration, 1)
			res, took := timedRound(t, context.Background(), tuner, RegionSpec{Name: "hung", Samples: 6}, func(sp *SP) error {
				if sp.Index() == hungSample {
					t0 := time.Now()
					err := hang(sp)
					hungFor <- time.Since(t0)
					return err
				}
				if n := live.Add(1); n > peakLive.Load() {
					peakLive.Store(n)
				}
				time.Sleep(time.Millisecond)
				live.Add(-1)
				sp.Commit("v", float64(sp.Index()))
				return nil
			})
			// One at a time: five 1 ms samples and the hung one.
			if d := <-hungFor; d != timeout || took != 5*time.Millisecond+timeout {
				t.Fatalf("hung sampler given up after %v, region after %v; want exactly %v and %v",
					d, took, timeout, 5*time.Millisecond+timeout)
			}
			if !res.TimedOut(hungSample) || !errors.Is(res.Err(hungSample), ErrSampleTimeout) ||
				res.Len("v") != 5 || !res.Degraded() || res.Timeouts() != 1 {
				t.Fatalf("result: sample %d ended with %v; %d committed, degraded %v, %d timeouts",
					hungSample, res.Err(hungSample), res.Len("v"), res.Degraded(), res.Timeouts())
			}
			// Abandoning the attempt released the worker's slot, so that
			// worker starts no further sample: had it carried on beside its
			// replacement, two bodies would have overlapped on a pool of one.
			// The tuning process twice and six sampling processes admitted.
			m := tuner.Metrics()
			if m.Timeouts != 1 || m.Degraded != 1 || peakLive.Load() != 1 ||
				m.Scheduler.Admitted != 8 || m.Scheduler.PeakInUse != 1 {
				t.Fatalf("metrics %+v, %d bodies side by side; want 1 timeout, 1 degraded, 1 body, 8 admitted, peak 1",
					m, peakLive.Load())
			}
			var prom bytes.Buffer
			if err := reg.WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				`wbtuner_samples_timeout_total{region="hung"} 1`,
				`wbtuner_regions_degraded_total{region="hung"} 1`,
			} {
				if !strings.Contains(prom.String(), want) {
					t.Fatalf("Prometheus snapshot missing %q:\n%s", want, prom.String())
				}
			}
			var buf bytes.Buffer
			if err := tr.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			trace = buf.Bytes()
		})
		return trace
	}
	trace1 := runOnce()
	if !bytes.Contains(trace1, []byte(`"kind":"sample-timeout"`)) || !bytes.Contains(trace1, []byte(`"kind":"region-degraded"`)) {
		t.Fatalf("trace missing fault events:\n%s", trace1)
	}
	if trace2 := runOnce(); !bytes.Equal(trace1, trace2) {
		t.Fatalf("same seed produced different traces:\n--- first\n%s--- second\n%s", trace1, trace2)
	}
}

// checkBackoff asserts that sample g's attempts started at exactly the
// instants its backoff schedule gives: the first at 0, each retry fp.backoff
// after the one before (a failing attempt takes no time).
func checkBackoff(t *testing.T, fp FaultPolicy, seed int64, g, attempts int, starts []time.Duration) {
	t.Helper()
	want := make([]time.Duration, attempts)
	for a := 2; a <= attempts; a++ {
		want[a-1] = want[a-2] + fp.backoff(seed, g, a)
	}
	if fmt.Sprint(starts) != fmt.Sprint(want) {
		t.Fatalf("sample %d attempts started at %v, want exactly %v", g, starts, want)
	}
}

// A sampler failing with a retryable error is re-attempted after exactly its
// backoff and eventually commits; the retries are counted and traced.
func TestVirtualTransientFailuresAreRetried(t *testing.T) {
	synctest.Run(func() {
		reg := obs.NewRegistry()
		tr := NewTrace()
		fp := FaultPolicy{MaxAttempts: 3, Backoff: 100 * time.Microsecond}
		tuner := New(Options{MaxPool: 4, Seed: 7, Trace: tr, Obs: reg, Fault: fp})
		t0, starts := time.Now(), make([][]time.Duration, 4) // a sample's attempts run on one worker
		res, _ := timedRound(t, context.Background(), tuner, RegionSpec{Name: "flaky", Samples: 4}, func(sp *SP) error {
			starts[sp.Index()] = append(starts[sp.Index()], time.Since(t0))
			if sp.Index()%2 == 0 && sp.Attempt() == 1 {
				return Transient(fmt.Errorf("flaky backend"))
			}
			sp.Commit("v", 1.0)
			return nil
		})
		for g := 0; g < 4; g++ {
			checkBackoff(t, fp, tuner.regionSeed("flaky", 0), g, 2-g%2, starts[g])
		}
		retryEvents := 0
		for _, e := range tr.Events() {
			if e.Kind == EvSampleRetry {
				retryEvents++
			}
		}
		retried, counted := tuner.Metrics().Retried, reg.Counter(MetricSamplesRetried, "region", "flaky").Value()
		if res.Len("v") != 4 || res.Degraded() || retried != 2 || retryEvents != 2 || counted != 2 {
			t.Fatalf("%d committed, degraded %v; %d retries, %d traced, %d counted; want 4, false and 2 each",
				res.Len("v"), res.Degraded(), retried, retryEvents, counted)
		}
	})
}

// A sample that exhausts its attempts keeps the last error, each attempt
// after exactly its backoff; non-retryable errors are not retried at all.
func TestVirtualRetryPolicyRespectsRetryability(t *testing.T) {
	synctest.Run(func() {
		fp := FaultPolicy{MaxAttempts: 4, Backoff: 50 * time.Microsecond, DegradeEmpty: true}
		tuner := New(Options{MaxPool: 2, Seed: 1, Fault: fp})
		t0, starts := time.Now(), make([][]time.Duration, 2)
		res, _ := timedRound(t, context.Background(), tuner, RegionSpec{Name: "r", Samples: 2}, func(sp *SP) error {
			starts[sp.Index()] = append(starts[sp.Index()], time.Since(t0))
			if sp.Index() == 0 {
				return Transient(errors.New("always failing"))
			}
			return errors.New("permanent, not retryable")
		})
		checkBackoff(t, fp, tuner.regionSeed("r", 0), 0, 4, starts[0])
		checkBackoff(t, fp, tuner.regionSeed("r", 0), 1, 1, starts[1])
		if !IsRetryable(res.Err(0)) {
			t.Fatalf("exhausted sample lost its error: %v", res.Err(0))
		}
	})
}

// The region budget stops the round at exactly RegionBudget: on a pool of
// one, two 25 ms samples commit, the third is given up in flight as a
// timeout, and the unlaunched rest carry the distinguished budget outcome.
func TestVirtualRegionBudgetCutsRound(t *testing.T) {
	synctest.Run(func() {
		const budget = 60 * time.Millisecond
		tuner := New(Options{MaxPool: 1, Seed: 3, Fault: FaultPolicy{RegionBudget: budget, SampleTimeout: 40 * time.Millisecond}})
		res, took := timedRound(t, context.Background(), tuner, RegionSpec{Name: "budget", Samples: 12}, func(sp *SP) error {
			err := compute(sp, 25*time.Millisecond)
			if err == nil {
				sp.Commit("v", 1.0)
			}
			return err
		})
		if took != budget || !res.Degraded() {
			t.Fatalf("budget-cut region returned after %v, degraded %v; want exactly %v, degraded", took, res.Degraded(), budget)
		}
		for i := 0; i < 12; i++ {
			want := ErrRegionBudget // never launched
			if i < 3 {
				want = []error{nil, nil, ErrSampleTimeout}[i]
			}
			if err := res.Err(i); !errors.Is(err, want) || res.TimedOut(i) != (i >= 2) {
				t.Fatalf("sample %d ended with %v (timed out %v), want %v", i, err, res.TimedOut(i), want)
			}
		}
	})
}

// Cancelling the RunContext context drains in-flight samples as timeouts at
// the instant of the cancellation.
func TestVirtualRunContextCancellationDrains(t *testing.T) {
	synctest.Run(func() {
		const at = 20 * time.Millisecond
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(at, cancel)
		tuner := New(Options{MaxPool: 4, Seed: 5, Fault: FaultPolicy{DegradeEmpty: true}})
		res, took := timedRound(t, ctx, tuner, RegionSpec{Name: "cancelled", Samples: 4}, hang)
		checkDrained(t, res, took-at)
	})
}

// A sampler hanging before the barrier must not wedge the other processes'
// Sync rendezvous: it is purged from the barrier at its deadline, and the
// barrier releases its siblings at that instant.
func TestVirtualSyncSurvivesHungSampler(t *testing.T) {
	synctest.Run(func() {
		const timeout = 30 * time.Millisecond
		tuner := New(Options{MaxPool: 4, Seed: 11, Fault: FaultPolicy{SampleTimeout: timeout}})
		start := time.Now()
		var released time.Duration
		res, _ := timedRound(t, context.Background(), tuner, RegionSpec{Name: "barrier", Samples: 3}, func(sp *SP) error {
			if sp.Index() == 0 {
				return hang(sp) // before ever reaching Sync
			}
			sp.Sync(func(v *SyncView) { released = time.Since(start) })
			sp.Commit("v", float64(sp.Index()))
			return nil
		})
		if released != timeout || res.Len("v") != 2 || !res.TimedOut(0) {
			t.Fatalf("barrier released after %v, %d survivors committed, sample 0 timed out %v; want exactly %v, 2, true",
				released, res.Len("v"), res.TimedOut(0), timeout)
		}
	})
}

// TestVirtualStaggeredDeadlines: on a pool of two, a deadline that starts
// while an earlier one is pending fires on time too — the round's one timer
// is set again for it when the earlier one expires. Sample 0 hangs from 0,
// sample 1 computes 10 ms, sample 2 hangs from 10 ms, and sample 3 starts at
// 30 ms in the slot sample 0's abandonment frees and computes 20 ms.
func TestVirtualStaggeredDeadlines(t *testing.T) {
	synctest.Run(func() {
		tuner := New(Options{MaxPool: 2, Seed: 13, Fault: FaultPolicy{SampleTimeout: 30 * time.Millisecond}})
		start := time.Now()
		ended := make([]time.Duration, 4)
		var mu sync.Mutex
		timedRound(t, context.Background(), tuner, RegionSpec{Name: "stagger", Samples: 4}, func(sp *SP) error {
			defer func() {
				mu.Lock()
				ended[sp.Index()] = time.Since(start)
				mu.Unlock()
			}()
			switch sp.Index() {
			case 1:
				return compute(sp, 10*time.Millisecond)
			case 3:
				return compute(sp, 20*time.Millisecond)
			}
			return hang(sp)
		})
		synctest.Wait() // the abandoned bodies unwind after the region returns
		mu.Lock()
		defer mu.Unlock()
		if got := fmt.Sprint(ended); got != "[30ms 10ms 40ms 50ms]" {
			t.Fatalf("samples ended at %v, want exactly [30ms 10ms 40ms 50ms]", got)
		}
	})
}

// TestVirtualSampleDeadlinePausesAtSync: the per-sample deadline counts
// compute only. Sample 0 reaches the barrier at once and waits there for
// three deadlines while its siblings compute one after another on a pool of
// one, each inside its own deadline: it is not abandoned. The last sample
// computes past its deadline after the barrier releases: it is given up
// exactly one deadline after it got its slot back.
func TestVirtualSampleDeadlinePausesAtSync(t *testing.T) {
	synctest.Run(func() {
		const (
			timeout = 80 * time.Millisecond
			step    = timeout / 4 // each sibling's compute before the barrier
			n       = 13          // sample 0 waits for 12 steps: 3 deadlines
			slow    = n - 1
		)
		tuner := New(Options{MaxPool: 1, Seed: 21, Fault: FaultPolicy{SampleTimeout: timeout, DegradeEmpty: true}})
		start := time.Now()
		var released time.Duration
		slowFor := make(chan time.Duration, 1)
		res, _ := timedRound(t, context.Background(), tuner, RegionSpec{Name: "pause", Samples: n}, func(sp *SP) error {
			if sp.Index() > 0 {
				time.Sleep(step)
			}
			sp.Sync(func(v *SyncView) { released = time.Since(start) })
			if sp.Index() == slow {
				t0 := time.Now()
				err := compute(sp, 10*timeout)
				slowFor <- time.Since(t0)
				return err
			}
			sp.Commit("v", 1.0)
			return nil
		})
		if released != (n-1)*step || res.Err(0) != nil || !res.TimedOut(slow) {
			t.Fatalf("barrier released after %v, want exactly %v; sample 0 ended with %v, sample %d with %v",
				released, (n-1)*step, res.Err(0), slow, res.Err(slow))
		}
		if d := <-slowFor; d != timeout {
			t.Fatalf("sample %d given up %v after the barrier, want exactly %v", slow, d, timeout)
		}
	})
}

// Chaos faults compose with the runtime: injected hangs, panics, and
// transients across a region leave consistent outcome accounting, and every
// injected hang is given up exactly SampleTimeout after its attempt began.
func TestVirtualInjectedChaosOutcomesPartition(t *testing.T) {
	synctest.Run(func() {
		const timeout, n = 30 * time.Millisecond, 16
		inj := faultinject.New(99, faultinject.Config{HangRate: 0.2, PanicRate: 0.2, TransientRate: 0.2})
		tuner := New(Options{MaxPool: 4, Seed: 99, Fault: FaultPolicy{SampleTimeout: timeout, MaxAttempts: 2,
			Backoff: 100 * time.Microsecond, DegradeEmpty: true}})
		hangs := make(chan time.Duration, 2*n)
		res, _ := timedRound(t, context.Background(), tuner, RegionSpec{Name: "chaos", Samples: n}, func(sp *SP) error {
			f := inj.At("chaos", sp.Index(), sp.Attempt())
			t0 := time.Now()
			err := faultinject.Apply(sp.Context(), "chaos", f)
			if f.Kind == faultinject.Hang {
				hangs <- time.Since(t0)
			}
			if err == nil {
				sp.Commit("v", 1.0)
			}
			return err
		})
		synctest.Wait() // the abandoned bodies unwind after the region returns
		close(hangs)
		nhang := 0
		for d := range hangs {
			if nhang++; d != timeout {
				t.Fatalf("an injected hang was given up after %v, want exactly %v", d, timeout)
			}
		}
		failed, timedOut := 0, 0
		for i := 0; i < n; i++ {
			if res.Err(i) != nil {
				failed++
			}
			if res.TimedOut(i) {
				timedOut++
			}
		}
		if committed := res.Len("v"); committed+failed != n || committed == 0 || nhang == 0 || timedOut != nhang {
			t.Fatalf("%d committed + %d failed of %d; %d injected hangs, %d timed out", committed, failed, n, nhang, timedOut)
		}
	})
}

// wedged returns a body that ignores its context and never re-enters the
// runtime until release is set. It sleeps in 1 ms steps, which a bubble's
// clock passes over: a body that spun without blocking would freeze it.
func wedged(release *atomic.Bool) func(sp *SP) error {
	return func(sp *SP) error {
		for !release.Load() {
			time.Sleep(time.Millisecond)
		}
		return nil
	}
}

// checkDrained asserts what a prompt cancellation leaves: the round back at
// the very instant its context ended, every sample timed out.
func checkDrained(t *testing.T, res *Result, late time.Duration) {
	t.Helper()
	if late != 0 {
		t.Fatalf("the round returned %v after its context ended, want at that instant", late)
	}
	for i := 0; i < res.N(); i++ {
		if !res.TimedOut(i) {
			t.Fatalf("sample %d: %v, want a timeout", i, res.Err(i))
		}
	}
}

// TestVirtualCancelDrainsWedgedBodies: cancelling the run ends a round whose
// bodies neither watch their context nor call back into the runtime, at the
// instant of the cancellation.
func TestVirtualCancelDrainsWedgedBodies(t *testing.T) {
	synctest.Run(func() {
		var release atomic.Bool
		defer release.Store(true)
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(5*time.Millisecond, cancel)
		tuner := New(Options{MaxPool: 2, Seed: 5, Fault: FaultPolicy{DegradeEmpty: true}})
		res, took := timedRound(t, ctx, tuner, RegionSpec{Name: "wedged", Samples: 4}, wedged(&release))
		checkDrained(t, res, took-5*time.Millisecond)
	})
}

// TestVirtualRegionBudgetDrainsWedgedBodies: the region budget alone, with
// nobody cancelling, ends such a round at exactly the budget.
func TestVirtualRegionBudgetDrainsWedgedBodies(t *testing.T) {
	synctest.Run(func() {
		var release atomic.Bool
		defer release.Store(true)
		const budget = 50 * time.Millisecond
		tuner := New(Options{MaxPool: 2, Seed: 5, Fault: FaultPolicy{RegionBudget: budget, DegradeEmpty: true}})
		res, took := timedRound(t, context.Background(), tuner, RegionSpec{Name: "wedged", Samples: 4}, wedged(&release))
		checkDrained(t, res, took-budget)
	})
}

// TestVirtualCancelDrainsBarrierBehindWedgedSibling: siblings blocked at a
// Sync barrier that a wedged body will never reach are released by the
// cancellation too, at its instant, and report timeouts like it.
func TestVirtualCancelDrainsBarrierBehindWedgedSibling(t *testing.T) {
	synctest.Run(func() {
		var release atomic.Bool
		defer release.Store(true)
		ctx, cancel := context.WithCancel(context.Background())
		tuner := New(Options{MaxPool: 4, Seed: 11, Fault: FaultPolicy{DegradeEmpty: true}})
		var round atomic.Pointer[regionState]
		time.AfterFunc(5*time.Millisecond, func() {
			if rs := round.Load(); rs == nil || rs.barrier.nwait.Load() != 3 {
				t.Errorf("the three siblings are not at the barrier when it is cancelled")
			}
			cancel()
		})
		res, took := timedRound(t, ctx, tuner, RegionSpec{Name: "barrier", Samples: 4}, func(sp *SP) error {
			round.Store(sp.rs)
			if sp.Index() == 0 {
				return wedged(&release)(sp)
			}
			sp.Sync(func(v *SyncView) {})
			sp.Commit("v", 1.0)
			return nil
		})
		checkDrained(t, res, took-5*time.Millisecond)
	})
}
