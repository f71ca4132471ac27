package bench

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/remote"
)

// loopbackFleet builds a NetExecutor fed by n single-slot in-process workers
// over net.Pipe. Dispatcher and workers use separate Builtins registries and
// no shared value table — the standalone wbtune-worker configuration, so the
// full wire path (snapshot shipping included) is on the clock.
func loopbackFleet(t *testing.T, n int) *remote.NetExecutor {
	t.Helper()
	ex := remote.NewExecutor(remote.ExecutorOptions{Registry: remote.Builtins()})
	t.Cleanup(ex.Close)
	for i := 0; i < n; i++ {
		w := remote.NewWorker(remote.WorkerOptions{
			Name: fmt.Sprintf("bench-w%d", i), Slots: 1, Registry: remote.Builtins(),
		})
		t.Cleanup(w.Close)
		a, b := net.Pipe()
		go w.ServeConn(a)
		if err := ex.AddConn(b); err != nil {
			t.Fatalf("AddConn: %v", err)
		}
	}
	return ex
}

// scalingRate times one synthetic region — samples sampling processes of a
// fixed serviceMicros wall-clock cost each, so the measurement isolates what
// the executor adds, independent of host core count — through ex (nil =
// in-process) on a single-slot local pool, so added concurrency comes only
// from workers. It returns samples/sec.
func scalingRate(t *testing.T, mode string, ex core.Executor, samples, serviceMicros int) float64 {
	t.Helper()
	tuner := core.New(core.Options{MaxPool: 1, Seed: 1, Executor: ex})
	spec, body := remote.SyntheticSpec(samples)
	var elapsed time.Duration
	err := tuner.Run(func(p *core.P) error {
		p.Expose(remote.SyntheticServiceKey, serviceMicros)
		t0 := time.Now()
		res, err := p.Region(spec, body)
		elapsed = time.Since(t0)
		if err == nil && res.Len("f") != samples {
			err = fmt.Errorf("lost samples: %d of %d committed", res.Len("f"), samples)
		}
		return err
	})
	if err != nil {
		t.Fatalf("%s: %v", mode, err)
	}
	rate := float64(samples) / elapsed.Seconds()
	t.Logf("%-12s %7.1f samples/sec (%.1f ms)", mode, rate, float64(elapsed.Nanoseconds())/1e6)
	return rate
}

// TestWorkerScalingThroughput is the perf acceptance gate: with a fixed
// per-sample service time, four single-slot workers must deliver at least 3x
// the aggregate samples/sec of one, and a single worker must stay within 15%
// of in-process throughput (the wire protocol's overhead budget). The
// service time is set well above per-sample RPC cost so the bound holds on
// slow or contended hosts too. Each mode is timed three times, interleaved,
// and its fastest run taken (timeit's rule: slower runs measure other
// processes): one 40 ms workers-4 window on a 2-core box shared with another
// test binary read a 2.92x speedup in 1 of 10 tries.
func TestWorkerScalingThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based; skipped in -short")
	}
	t.Cleanup(leakcheck.Check(t))
	fleetRate := func(mode string, n int) float64 {
		fleet := loopbackFleet(t, n) // cold, like the first job on a new fleet
		defer fleet.Close()
		return scalingRate(t, mode, fleet, 32, 5000)
	}
	var inproc, w1, w4 float64
	for range 3 {
		inproc = max(inproc, scalingRate(t, "in-process", nil, 32, 5000))
		w1 = max(w1, fleetRate("workers-1", 1))
		w4 = max(w4, fleetRate("workers-4", 4))
	}
	if speedup := w4 / w1; speedup < 3 {
		t.Errorf("4-worker speedup %.2fx over 1 worker, want >= 3x", speedup)
	}
	if overhead := inproc/w1 - 1; overhead > 0.15 {
		t.Errorf("single-worker dispatch overhead %.1f%% vs in-process, want <= 15%%", overhead*100)
	}
}
