package core

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/faultinject"
	"repro/internal/leakcheck"
)

// The pool-drain property: whatever faults a region suffers — delays, hangs,
// panics, transient failures, corruption — after Run returns, the scheduler
// pool occupancy is zero and no runtime goroutine is left behind. This is the
// invariant that makes graceful degradation safe to rely on: a degraded
// region never poisons the next one.
func TestChaosPoolAlwaysDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos property test is slow under -short")
	}
	defer leakcheck.Check(t)()

	property := func(seed int64, delayR, hangR, panicR, transientR uint8, pool, samples uint8) bool {
		// Map raw fuzz-ish inputs into valid chaos space: rates sum < 1,
		// pool in [1, 6], samples in [1, 12].
		cfg := faultinject.Config{
			DelayRate:     float64(delayR%25) / 100,
			HangRate:      float64(hangR%25) / 100,
			PanicRate:     float64(panicR%25) / 100,
			TransientRate: float64(transientR%25) / 100,
			MaxDelay:      2 * time.Millisecond,
		}
		inj := faultinject.New(seed, cfg)
		tuner := New(Options{
			MaxPool: 1 + int(pool%6),
			Seed:    seed,
			Fault: FaultPolicy{
				SampleTimeout: 20 * time.Millisecond,
				MaxAttempts:   2,
				Backoff:       100 * time.Microsecond,
				DegradeEmpty:  true,
			},
		})
		n := 1 + int(samples%12)
		err := tuner.Run(func(p *P) error {
			_, err := p.Region(RegionSpec{Name: "chaos", Samples: n}, func(sp *SP) error {
				f := inj.At("chaos", sp.Index(), sp.Attempt())
				if err := faultinject.Apply(sp.Context(), "chaos", f); err != nil {
					return err
				}
				sp.Commit("v", f.CorruptFloat(float64(sp.Index())))
				return nil
			})
			return err
		})
		if err != nil {
			t.Logf("seed %d: run failed: %v", seed, err)
			return false
		}
		if got := tuner.sched.InUse(); got != 0 {
			t.Logf("seed %d: pool occupancy %d after Run, want 0", seed, got)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// The barrier variant of the drain property: regions that rendezvous mid-body
// drain too, even when hung samplers are purged from the barrier.
func TestChaosBarrierDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos property test is slow under -short")
	}
	defer leakcheck.Check(t)()

	for seed := int64(1); seed <= 6; seed++ {
		inj := faultinject.New(seed, faultinject.Config{
			HangRate: 0.25, TransientRate: 0.25, MaxDelay: time.Millisecond,
		})
		tuner := New(Options{
			MaxPool: 4, Seed: seed,
			Fault: FaultPolicy{
				SampleTimeout: 20 * time.Millisecond,
				MaxAttempts:   2,
				Backoff:       100 * time.Microsecond,
				DegradeEmpty:  true,
			},
		})
		err := tuner.Run(func(p *P) error {
			_, err := p.Region(RegionSpec{Name: "chaos-sync", Samples: 6}, func(sp *SP) error {
				f := inj.At("chaos-sync", sp.Index(), sp.Attempt())
				if err := faultinject.Apply(sp.Context(), "chaos-sync", f); err != nil {
					return err
				}
				sp.Sync(func(v *SyncView) {})
				sp.Commit("v", 1.0)
				return nil
			})
			return err
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := tuner.sched.InUse(); got != 0 {
			t.Fatalf("seed %d: pool occupancy %d after Run, want 0", seed, got)
		}
	}
}

// A permanently wedged, context-ignoring sampler is the worst case: its
// goroutine cannot be reclaimed until it returns, but the region must still
// complete and, once the body gives up on its own, the runtime must be fully
// drained. The sampler here blocks on a plain channel (ignoring SP.Context)
// that the test closes after the region completes degraded.
func TestContextIgnoringSamplerEventuallyDrains(t *testing.T) {
	defer leakcheck.Check(t)()

	unwedge := make(chan struct{})
	tuner := New(Options{
		MaxPool: 2, Seed: 17,
		Fault: FaultPolicy{SampleTimeout: 15 * time.Millisecond},
	})
	var res *Result
	run(t, tuner, func(p *P) error {
		var err error
		res, err = p.Region(RegionSpec{Name: "wedged", Samples: 3}, func(sp *SP) error {
			if sp.Index() == 1 {
				<-unwedge // ignores its context entirely
				return fmt.Errorf("woke up after abandonment")
			}
			sp.Commit("v", 1.0)
			return nil
		})
		return err
	})
	if got := res.Len("v"); got != 2 {
		t.Fatalf("survivors committed %d, want 2", got)
	}
	if !timedOut(res, 1) {
		t.Fatal("wedged sampler not reported as timeout")
	}
	if got := tuner.sched.InUse(); got != 0 {
		t.Fatalf("pool occupancy %d after Run, want 0", got)
	}
	// Only now let the abandoned body return; leakcheck then proves the
	// goroutine actually exits rather than lingering in the runtime.
	close(unwedge)
}
