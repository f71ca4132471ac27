package bench

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/remote"
)

// renderTable1 runs the full Table I sweep at a fixed seed and returns the
// rendered table.
func renderTable1(seed int64) string {
	var buf bytes.Buffer
	WriteTable1(&buf, Table1All(seed))
	return buf.String()
}

// TestDistributedTable1Parity is the end-to-end determinism gate for the
// distributed executor: the full Table I sweep, re-run with every white-box
// sampling process dispatched to a loopback worker fleet, must render byte
// for byte identically to the in-process run at the same seed. Samplers are
// rebuilt worker-side from (seed, group, n, feedback), results re-enter the
// same aggregation paths, and regions the executor cannot take (CV, Sync
// bodies) fall back to the deterministic local path — so any byte of
// divergence is a real determinism bug.
func TestDistributedTable1Parity(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table I sweep twice; skipped in -short")
	}
	t.Cleanup(leakcheck.Check(t))
	local := renderTable1(1)

	// Loopback fleet in the same-process configuration: shared dynamic
	// registry (bench regions are registered per round) and a shared value
	// table so opaque commits survive the wire.
	reg := remote.NewRegistry()
	vals := remote.NewValueTable()
	ex := remote.NewExecutor(remote.ExecutorOptions{Registry: reg, Dynamic: true, Values: vals})
	var workers []*remote.Worker
	for i := 0; i < 2; i++ {
		w := remote.NewWorker(remote.WorkerOptions{
			Name: fmt.Sprintf("t1-w%d", i), Slots: 4, Registry: reg, Values: vals,
		})
		a, b := net.Pipe()
		go w.ServeConn(a)
		if err := ex.AddConn(b); err != nil {
			t.Fatalf("AddConn: %v", err)
		}
		workers = append(workers, w)
	}
	t.Cleanup(func() {
		ex.Close()
		for _, w := range workers {
			w.Close()
		}
	})

	prev := OptionsHook
	OptionsHook = func(o core.Options) core.Options {
		o.Executor = ex
		return o
	}
	t.Cleanup(func() { OptionsHook = prev })
	distributed := renderTable1(1)

	if distributed != local {
		t.Errorf("distributed Table I diverged from local run\n--- local ---\n%s--- distributed ---\n%s", local, distributed)
	}
}

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
// slow or contended hosts too.
func TestWorkerScalingThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based; skipped in -short")
	}
	t.Cleanup(leakcheck.Check(t))
	inproc := scalingRate(t, "in-process", nil, 32, 5000)
	w1 := scalingRate(t, "workers-1", loopbackFleet(t, 1), 32, 5000)
	w4 := scalingRate(t, "workers-4", loopbackFleet(t, 4), 32, 5000)
	if speedup := w4 / w1; speedup < 3 {
		t.Errorf("4-worker speedup %.2fx over 1 worker, want >= 3x", speedup)
	}
	if overhead := inproc/w1 - 1; overhead > 0.15 {
		t.Errorf("single-worker dispatch overhead %.1f%% vs in-process, want <= 15%%", overhead*100)
	}
}
