package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// counterClock returns a logical clock for deterministic trace stamps.
func counterClock() func() int64 {
	var n int64
	return func() int64 { n++; return n }
}

// TestHungSamplerDegradesWithinDeadline is the fault-layer acceptance test:
// a region with a permanently-hung sampler completes within its deadline,
// aggregates the surviving samples, increments samples_timeout and
// regions_degraded in the Prometheus snapshot — and the same seed reproduces
// the identical trace twice.
func TestHungSamplerDegradesWithinDeadline(t *testing.T) {
	const hungSample = 2
	var live, peakLive atomic.Int64 // sampling processes in their bodies, the hung one aside
	runOnce := func() (*Tuner, *Result, *obs.Registry, []byte) {
		reg := obs.NewRegistry()
		tr := NewTrace()
		tr.SetClock(counterClock())
		tuner := New(Options{
			MaxPool: 1, Seed: 42, Trace: tr, Obs: reg,
			Fault: FaultPolicy{SampleTimeout: 25 * time.Millisecond},
		})
		var res *Result
		start := time.Now()
		run(t, tuner, func(p *P) error {
			var err error
			res, err = p.Region(RegionSpec{Name: "hung", Samples: 6}, func(sp *SP) error {
				if sp.Index() == hungSample {
					// Permanently hung from the sampler's perspective: it
					// never produces a result; it only unwinds because the
					// runtime cancelled its context.
					<-sp.Context().Done()
					return sp.Context().Err()
				}
				if n := live.Add(1); n > peakLive.Load() {
					peakLive.Store(n)
				}
				time.Sleep(time.Millisecond)
				live.Add(-1)
				sp.Commit("v", float64(sp.Index()))
				return nil
			})
			return err
		})
		if el := time.Since(start); el > 5*time.Second {
			t.Fatalf("region took %v — the hung sampler wedged it", el)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return tuner, res, reg, buf.Bytes()
	}

	tuner, res, reg, trace1 := runOnce()

	if got := res.Len("v"); got != 5 {
		t.Fatalf("aggregated %d surviving samples, want 5", got)
	}
	if !res.TimedOut(hungSample) || !errors.Is(res.Err(hungSample), ErrSampleTimeout) {
		t.Fatalf("sample %d not marked timed out: %v", hungSample, res.Err(hungSample))
	}
	if !res.Degraded() || res.Timeouts() != 1 {
		t.Fatalf("degradation not reported: degraded=%v timeouts=%d", res.Degraded(), res.Timeouts())
	}
	m := tuner.Metrics()
	if m.Timeouts != 1 || m.Degraded != 1 {
		t.Fatalf("metrics: timeouts=%d degraded=%d, want 1/1", m.Timeouts, m.Degraded)
	}
	// Abandoning the attempt released the worker's slot, so that worker must
	// start no further sample: the launch loop replaces it through a regular
	// admission. Had it carried on beside its replacement, two bodies would
	// have overlapped on a pool of one.
	if got := peakLive.Load(); got != 1 {
		t.Fatalf("%d sampling processes ran side by side on a pool of 1", got)
	}
	// The tuning process twice, six sampling processes; nothing admitted that
	// did not run, nothing left behind.
	if m.Scheduler.Admitted != 8 || m.Scheduler.PeakInUse != 1 || tuner.sched.InUse() != 0 {
		t.Fatalf("scheduler after the abandoned sample: %+v, %d in use; want 8 admitted, peak 1, 0 in use",
			m.Scheduler, tuner.sched.InUse())
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

	if !strings.Contains(string(trace1), `"kind":"sample-timeout"`) ||
		!strings.Contains(string(trace1), `"kind":"region-degraded"`) {
		t.Fatalf("trace missing fault events:\n%s", trace1)
	}
	_, _, _, trace2 := runOnce()
	if !bytes.Equal(trace1, trace2) {
		t.Fatalf("same seed produced different traces:\n--- first\n%s--- second\n%s", trace1, trace2)
	}
}

// A sampler failing with a retryable error is re-attempted with backoff and
// eventually commits; the retries are counted and traced.
func TestTransientFailuresAreRetried(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewTrace()
	tuner := New(Options{
		MaxPool: 4, Seed: 7, Trace: tr, Obs: reg,
		Fault: FaultPolicy{MaxAttempts: 3, Backoff: 100 * time.Microsecond},
	})
	var res *Result
	run(t, tuner, func(p *P) error {
		var err error
		res, err = p.Region(RegionSpec{Name: "flaky", Samples: 4}, func(sp *SP) error {
			if sp.Index()%2 == 0 && sp.Attempt() == 1 {
				return Transient(fmt.Errorf("flaky backend"))
			}
			sp.Commit("v", 1.0)
			return nil
		})
		return err
	})
	if got := res.Len("v"); got != 4 {
		t.Fatalf("committed %d, want all 4 after retries", got)
	}
	if m := tuner.Metrics(); m.Retried != 2 {
		t.Fatalf("Retried = %d, want 2", m.Retried)
	}
	if got := reg.Counter(MetricSamplesRetried, "region", "flaky").Value(); got != 2 {
		t.Fatalf("retried counter = %d, want 2", got)
	}
	retryEvents := 0
	for _, e := range tr.Events() {
		if e.Kind == EvSampleRetry {
			retryEvents++
		}
	}
	if retryEvents != 2 {
		t.Fatalf("retry trace events = %d, want 2", retryEvents)
	}
	if res.Degraded() {
		t.Fatal("retried-but-recovered region must not count as degraded")
	}
}

// A sample that exhausts its attempts keeps the last error; non-retryable
// errors are not retried at all.
func TestRetryPolicyRespectsRetryability(t *testing.T) {
	tuner := New(Options{
		MaxPool: 2, Seed: 1,
		Fault: FaultPolicy{MaxAttempts: 4, Backoff: 50 * time.Microsecond, DegradeEmpty: true},
	})
	attempts := make([]int, 2)
	var res *Result
	run(t, tuner, func(p *P) error {
		var err error
		res, err = p.Region(RegionSpec{Name: "r", Samples: 2}, func(sp *SP) error {
			attempts[sp.Index()] = sp.Attempt()
			if sp.Index() == 0 {
				return Transient(errors.New("always failing"))
			}
			return errors.New("permanent, not retryable")
		})
		return err
	})
	if attempts[0] != 4 {
		t.Fatalf("retryable sample attempted %d times, want 4", attempts[0])
	}
	if attempts[1] != 1 {
		t.Fatalf("non-retryable sample attempted %d times, want 1", attempts[1])
	}
	if res.Err(0) == nil || !IsRetryable(res.Err(0)) {
		t.Fatalf("exhausted sample lost its error: %v", res.Err(0))
	}
}

// Backoff is exponential with deterministic jitter from the region seed.
func TestBackoffDeterministicJitter(t *testing.T) {
	fp := FaultPolicy{Backoff: time.Millisecond, BackoffFactor: 2, MaxBackoff: time.Second}
	if a, b := fp.backoff(1, 3, 2), fp.backoff(1, 3, 2); a != b {
		t.Fatalf("same inputs, different backoff: %v vs %v", a, b)
	}
	if a, b := fp.backoff(1, 3, 2), fp.backoff(2, 3, 2); a == b {
		t.Fatalf("seed not mixed into jitter: %v", a)
	}
	if a, b := fp.backoff(1, 3, 2), fp.backoff(1, 4, 2); a == b {
		t.Fatalf("group not mixed into jitter: %v", a)
	}
	// Exponential growth: attempt 6 delay stays within [0.5, 1.5) of
	// base*factor^4 and never exceeds the cap.
	d := fp.backoff(9, 0, 6)
	if d < 8*time.Millisecond || d > 24*time.Millisecond {
		t.Fatalf("attempt-6 backoff %v outside jittered exponential envelope", d)
	}
	for attempt := 2; attempt < 40; attempt++ {
		if d := fp.backoff(5, 1, attempt); d > time.Second {
			t.Fatalf("backoff %v exceeds cap at attempt %d", d, attempt)
		}
	}
}

// The region budget stops launching new samples; unlaunched groups carry the
// distinguished budget outcome and the pool fully drains.
func TestRegionBudgetCutsRound(t *testing.T) {
	tuner := New(Options{
		MaxPool: 1, Seed: 3,
		Fault: FaultPolicy{RegionBudget: 60 * time.Millisecond, SampleTimeout: 40 * time.Millisecond},
	})
	var res *Result
	run(t, tuner, func(p *P) error {
		var err error
		res, err = p.Region(RegionSpec{Name: "budget", Samples: 12}, func(sp *SP) error {
			select { // ~25ms of ctx-aware work per sample, 1 at a time
			case <-time.After(25 * time.Millisecond):
			case <-sp.Context().Done():
				return sp.Context().Err()
			}
			sp.Commit("v", 1.0)
			return nil
		})
		return err
	})
	committed := res.Len("v")
	if committed == 0 || committed == 12 {
		t.Fatalf("budget should cut the round partway, committed %d of 12", committed)
	}
	cut := 0
	for i := 0; i < 12; i++ {
		if errors.Is(res.Err(i), ErrRegionBudget) || errors.Is(res.Err(i), ErrSampleTimeout) {
			cut++
			if !res.TimedOut(i) {
				t.Fatalf("sample %d cut by budget but not TimedOut", i)
			}
		}
	}
	if committed+cut != 12 {
		t.Fatalf("outcomes don't partition the round: %d committed + %d cut != 12", committed, cut)
	}
	if !res.Degraded() {
		t.Fatal("budget-cut region must report degradation")
	}
	if got := tuner.sched.InUse(); got != 0 {
		t.Fatalf("pool occupancy %d after Run, want 0", got)
	}
}

// Cancelling the RunContext context drains in-flight samples as timeouts
// instead of wedging.
func TestRunContextCancellationDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tuner := New(Options{MaxPool: 4, Seed: 5, Fault: FaultPolicy{DegradeEmpty: true}})
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := tuner.RunContext(ctx, func(p *P) error {
		_, err := p.Region(RegionSpec{Name: "cancelled", Samples: 4}, func(sp *SP) error {
			<-sp.Context().Done()
			return sp.Context().Err()
		})
		return err
	})
	if err != nil {
		t.Fatalf("degraded-empty cancelled run returned %v", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("cancellation took %v to drain", el)
	}
	if got := tuner.sched.InUse(); got != 0 {
		t.Fatalf("pool occupancy %d after cancelled run, want 0", got)
	}
}

// DegradeEmpty turns the all-failed error into an inspectable empty result;
// without it the historical error is preserved.
func TestDegradeEmptyPolicy(t *testing.T) {
	body := func(sp *SP) error { return errors.New("down") }
	strict := New(Options{MaxPool: 2, Seed: 1})
	err := strict.Run(func(p *P) error {
		_, err := p.Region(RegionSpec{Name: "r", Samples: 2}, body)
		return err
	})
	if err == nil {
		t.Fatal("all-failed region without DegradeEmpty must error")
	}
	soft := New(Options{MaxPool: 2, Seed: 1, Fault: FaultPolicy{DegradeEmpty: true}})
	run(t, soft, func(p *P) error {
		res, err := p.Region(RegionSpec{Name: "r", Samples: 2}, body)
		if err != nil {
			return err
		}
		if !res.Degraded() || res.Len("v") != 0 {
			return fmt.Errorf("unexpected degraded result: %v", res)
		}
		return nil
	})
}

// A sampler hanging before the barrier must not wedge the other processes'
// Sync rendezvous: the abandoned process is purged from the barrier.
func TestSyncSurvivesHungSampler(t *testing.T) {
	tuner := New(Options{
		MaxPool: 4, Seed: 11,
		Fault: FaultPolicy{SampleTimeout: 30 * time.Millisecond},
	})
	var res *Result
	start := time.Now()
	run(t, tuner, func(p *P) error {
		var err error
		res, err = p.Region(RegionSpec{Name: "barrier", Samples: 3}, func(sp *SP) error {
			if sp.Index() == 0 {
				<-sp.Context().Done() // hangs before ever reaching Sync
				return sp.Context().Err()
			}
			sp.Sync(func(v *SyncView) {})
			sp.Commit("v", float64(sp.Index()))
			return nil
		})
		return err
	})
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("barrier wedged for %v behind the hung sampler", el)
	}
	if got := res.Len("v"); got != 2 {
		t.Fatalf("survivors committed %d, want 2", got)
	}
	if !res.TimedOut(0) {
		t.Fatal("hung sampler not reported as timeout")
	}
}

// TestSampleDeadlinePausesAtSync: the per-sample deadline counts compute
// only. Sample 0 reaches the barrier at once and waits there for several
// deadlines while its siblings compute one after another on a pool of one,
// each well inside its own deadline: it is not abandoned. The last sample
// computes for longer than the deadline after the barrier releases: it is.
func TestSampleDeadlinePausesAtSync(t *testing.T) {
	const (
		timeout = 80 * time.Millisecond
		step    = timeout / 4 // each sibling's compute before the barrier
		n       = 13          // sample 0 waits for 12 steps: 3 deadlines
		slow    = n - 1
	)
	tuner := New(Options{
		MaxPool: 1, Seed: 21,
		Fault: FaultPolicy{SampleTimeout: timeout, DegradeEmpty: true},
	})
	var waited time.Duration
	var res *Result
	run(t, tuner, func(p *P) error {
		var err error
		res, err = p.Region(RegionSpec{Name: "pause", Samples: n}, func(sp *SP) error {
			if sp.Index() > 0 {
				time.Sleep(step)
			}
			t0 := time.Now()
			sp.Sync(func(v *SyncView) {})
			if sp.Index() == 0 {
				waited = time.Since(t0)
			}
			if sp.Index() == slow {
				select { // past its deadline, unless abandoned
				case <-time.After(10 * timeout):
				case <-sp.Context().Done():
					return sp.Context().Err()
				}
			}
			sp.Commit("v", 1.0)
			return nil
		})
		return err
	})
	if waited < 2*timeout {
		t.Fatalf("sample 0 waited %v at the barrier, want several deadlines of %v", waited, timeout)
	}
	if _, ok := res.Value("v", 0); !ok || res.Err(0) != nil {
		t.Fatalf("sample 0 only waited at the barrier, yet did not commit: %v", res.Err(0))
	}
	if !res.TimedOut(slow) {
		t.Fatalf("sample %d computed past its deadline after the barrier, yet ended with %v", slow, res.Err(slow))
	}
	if got := tuner.sched.InUse(); got != 0 {
		t.Fatalf("pool occupancy %d after Run, want 0", got)
	}
}

// Chaos faults compose with the runtime: injected hangs, panics, and
// transients across a region leave consistent outcome accounting.
func TestInjectedChaosOutcomesPartition(t *testing.T) {
	inj := faultinject.New(99, faultinject.Config{
		HangRate: 0.2, PanicRate: 0.2, TransientRate: 0.2, MaxDelay: time.Millisecond,
	})
	tuner := New(Options{
		MaxPool: 4, Seed: 99,
		Fault: FaultPolicy{SampleTimeout: 30 * time.Millisecond, MaxAttempts: 2,
			Backoff: 100 * time.Microsecond, DegradeEmpty: true},
	})
	const n = 16
	var res *Result
	run(t, tuner, func(p *P) error {
		var err error
		res, err = p.Region(RegionSpec{Name: "chaos", Samples: n}, func(sp *SP) error {
			f := inj.At("chaos", sp.Index(), sp.Attempt())
			if err := faultinject.Apply(sp.Context(), "chaos", f); err != nil {
				return err
			}
			sp.Commit("v", 1.0)
			return nil
		})
		return err
	})
	committed, failedOrTimeout := 0, 0
	for i := 0; i < n; i++ {
		if res.Err(i) != nil {
			failedOrTimeout++
		} else if _, ok := res.Value("v", i); ok {
			committed++
		}
	}
	if committed+failedOrTimeout != n {
		t.Fatalf("outcomes don't partition: %d + %d != %d", committed, failedOrTimeout, n)
	}
	if committed == 0 {
		t.Fatal("chaos rates should leave survivors")
	}
	if got := tuner.sched.InUse(); got != 0 {
		t.Fatalf("pool occupancy %d after chaos, want 0", got)
	}
}

// panicHelperForStackTest exists so the recovered panic's stack provably
// names the frame that crashed.
func panicHelperForStackTest() {
	panic("kaboom in helper")
}

// The contained-panic error must preserve the original stack (the fix for
// the message that used to lose it).
func TestContainedPanicKeepsStack(t *testing.T) {
	tuner := New(Options{MaxPool: 2, Seed: 1})
	var res *Result
	run(t, tuner, func(p *P) error {
		var err error
		res, err = p.Region(RegionSpec{Name: "r", Samples: 2}, func(sp *SP) error {
			if sp.Index() == 0 {
				panicHelperForStackTest()
			}
			sp.Commit("v", 1.0)
			return nil
		})
		return err
	})
	err := res.Err(0)
	if err == nil {
		t.Fatal("panicking sample reported no error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "kaboom in helper") {
		t.Fatalf("panic value lost: %q", msg)
	}
	if !strings.Contains(msg, "panicHelperForStackTest") || !strings.Contains(msg, "goroutine") {
		t.Fatalf("panic error lost the original stack:\n%s", msg)
	}
}

func TestFaultEventKindStrings(t *testing.T) {
	for _, k := range []EventKind{EvSampleTimeout, EvSampleRetry, EvRegionDegraded} {
		if s := k.String(); s == "" || s == "unknown" {
			t.Fatalf("kind %d has bad name %q", k, s)
		}
	}
}
