package remote

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/remote/transport"
	"repro/internal/sched"
	"repro/internal/strategy"
)

// addLoopback spawns one named loopback worker and joins it to ex.
func addLoopback(t *testing.T, ex *NetExecutor, reg *Registry, name string, slots int) (*Worker, net.Conn) {
	t.Helper()
	w := NewWorker(WorkerOptions{Name: name, Slots: slots, Registry: reg})
	a, b := net.Pipe()
	go w.ServeConn(a)
	if err := ex.AddConn(b); err != nil {
		t.Fatalf("AddConn(%s): %v", name, err)
	}
	return w, b
}

// elasticParityProgram is a three-round feedback-driven program with a hook
// between rounds, so a test can inject fleet elasticity events at
// deterministic points in the run.
func elasticParityProgram(t *testing.T, opts core.Options, between func(round int)) string {
	t.Helper()
	tuner := core.New(opts)
	var dump string
	err := tuner.Run(func(p *core.P) error {
		p.Expose("bias", 0.25)
		spec := core.RegionSpec{
			Name:     "elastic-parity",
			Samples:  8,
			Strategy: strategy.MCMC(strategy.MCMCOptions{}),
			Score:    func(sp *core.SP) float64 { return sp.MustGet("y").(float64) },
		}
		body := func(sp *core.SP) error {
			x := sp.Float("x", dist.Uniform(0, 1))
			sp.Work(0.125)
			sp.Commit("y", x+sp.Load("bias").(float64))
			return nil
		}
		for round := 0; round < 3; round++ {
			res, err := p.Region(spec, body)
			if err != nil {
				return err
			}
			dump += fmt.Sprintf("round %d:\n%s", round, dumpRegion(res))
			if between != nil {
				between(round)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return dump
}

// TestElasticParityMidScale injects a scale-up (one worker to three) and a
// graceful retirement in the middle of a fixed-seed run and checks the
// result stream is byte-identical to the in-process run: elasticity moves
// placement only, never sampling.
func TestElasticParityMidScale(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	local := elasticParityProgram(t, core.Options{MaxPool: 4, Seed: 42}, nil)

	reg := NewRegistry()
	ex := NewExecutor(ExecutorOptions{Registry: reg, Dynamic: true})
	var workers []*Worker
	t.Cleanup(func() {
		ex.Close()
		for _, w := range workers {
			w.Close()
		}
	})
	w0, _ := addLoopback(t, ex, reg, "ew0", 2)
	workers = append(workers, w0)

	elastic := elasticParityProgram(t, core.Options{MaxPool: 4, Seed: 42, Executor: ex},
		func(round int) {
			switch round {
			case 0: // scale up before round 1
				w1, _ := addLoopback(t, ex, reg, "ew1", 2)
				w2, _ := addLoopback(t, ex, reg, "ew2", 2)
				workers = append(workers, w1, w2)
			case 1: // retire the original worker before round 2
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := ex.RemoveConn(ctx, "ew0"); err != nil {
					t.Errorf("RemoveConn(ew0): %v", err)
				}
			}
		})
	if elastic != local {
		t.Fatalf("elastic run diverged from local run:\nlocal:\n%s\nelastic:\n%s", local, elastic)
	}
}

// TestRemoveConnDrainsInFlight retires a worker while its samples are in
// flight: every sample must land exactly once, the retired worker must leave
// the capacity and the live-worker list, and — unlike a crash — retirement
// must not count as a worker failure.
func TestRemoveConnDrainsInFlight(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	reg := NewRegistry()
	oreg := obs.NewRegistry()
	f := newFleet(t, 2, 2, ExecutorOptions{Registry: reg, Dynamic: true, Obs: oreg}, WorkerOptions{Registry: reg})

	tuner := core.New(core.Options{MaxPool: 4, Seed: 7, Executor: f.ex})
	removed := make(chan error, 1)
	go func() {
		time.Sleep(15 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		removed <- f.ex.RemoveConn(ctx, "w0")
	}()
	err := tuner.Run(func(p *core.P) error {
		res, err := p.Region(core.RegionSpec{Name: "drain", Samples: 16}, func(sp *core.SP) error {
			x := sp.Float("x", dist.Uniform(0, 1))
			time.Sleep(5 * time.Millisecond) // keep samples in flight across the retirement
			sp.Commit("v", x)
			return nil
		})
		if err != nil {
			return err
		}
		if res.Len("v") != 16 {
			return fmt.Errorf("Len=%d, want 16", res.Len("v"))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := <-removed; err != nil {
		t.Fatalf("RemoveConn: %v", err)
	}
	if got := f.ex.Capacity(); got != 2 {
		t.Fatalf("Capacity=%d after retiring one of two workers, want 2", got)
	}
	if got := f.ex.Workers(); len(got) != 1 || got[0] != "w1" {
		t.Fatalf("Workers=%v after retiring w0, want [w1]", got)
	}
	if n := oreg.Counter(MetricWorkerFailures, "worker", "w0").Value(); n != 0 {
		t.Fatalf("graceful retirement counted as %d worker failures", n)
	}
}

// TestRetireFailRaceAccounting races a graceful retirement against a
// connection loss on the same worker, over and over: whichever path wins,
// the worker's slots must leave the capacity exactly once — the watcher
// deltas always sum back to the executor's own capacity count.
func TestRetireFailRaceAccounting(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	reg := Builtins()
	ex := NewExecutor(ExecutorOptions{Registry: reg})
	defer ex.Close()
	var sum atomic.Int64
	ex.WatchCapacity(func(delta int) { sum.Add(int64(delta)) })

	for i := 0; i < 25; i++ {
		name := fmt.Sprintf("race%d", i)
		w := NewWorker(WorkerOptions{Name: name, Slots: 1, Registry: reg})
		a, b := net.Pipe()
		go w.ServeConn(a)
		if err := ex.AddConn(b); err != nil {
			t.Fatalf("AddConn(%s): %v", name, err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			ex.RemoveConn(ctx, name) // may lose the race to the failure below
		}()
		go func() {
			defer wg.Done()
			b.Close()
		}()
		wg.Wait()
		w.Close()
		waitFor(t, fmt.Sprintf("iteration %d accounting settled", i), func() bool {
			return ex.Capacity() == 0 && sum.Load() == 0
		})
	}
}

// TestAffinityHitRateSteadyState runs two co-tenant jobs over a shared fleet
// and checks the affinity dispatcher's figure of merit: in steady state over
// 80% of dispatched samples must land on a worker that already holds the
// job's snapshot.
func TestAffinityHitRateSteadyState(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	oreg := obs.NewRegistry()
	f := newFleet(t, 2, 2, ExecutorOptions{Registry: Builtins(), Obs: oreg}, WorkerOptions{Registry: Builtins()})
	rt := core.NewRuntime(core.RuntimeOptions{MaxPool: 8, Executor: f.ex})

	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		job := rt.NewJob(core.JobOptions{Name: fmt.Sprintf("aff%d", i), Seed: int64(i + 1)})
		wg.Add(1)
		go func(i int, job *core.Tuner) {
			defer wg.Done()
			defer job.Close()
			spec, body := SyntheticSpec(16)
			errs[i] = job.Run(func(p *core.P) error {
				p.Expose(SyntheticServiceKey, 200)
				for round := 0; round < 4; round++ {
					res, err := p.Region(spec, body)
					if err != nil {
						return err
					}
					if res.Len("f") != 16 {
						return fmt.Errorf("round %d: Len=%d, want 16", round, res.Len("f"))
					}
				}
				return nil
			})
		}(i, job)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}

	hits := oreg.Counter(MetricAffinityHits).Value()
	misses := oreg.Counter(MetricAffinityMisses).Value()
	if hits+misses != 2*4*16 {
		t.Fatalf("affinity counters cover %d dispatches, want %d", hits+misses, 2*4*16)
	}
	if rate := float64(hits) / float64(hits+misses); rate <= 0.8 {
		t.Fatalf("affinity hit rate %.2f (hits=%d misses=%d), want > 0.80", rate, hits, misses)
	}
}

// TestFleetControllerDialsAddressPoolFirst drives the controller tick by tick
// over a pool of two listening workers: scale-ups dial the pool's addresses in
// order before spawning a loopback worker, and scale-downs retire the loopback
// worker first and hand a hung-up address back to the pool, to be dialed again.
func TestFleetControllerDialsAddressPoolFirst(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	dir := t.TempDir()
	addrs := []string{filepath.Join(dir, "a.sock"), filepath.Join(dir, "b.sock")}
	var pool []*Worker
	var served []chan error
	for i, addr := range addrs {
		ln, err := transport.Unix().Listen(addr)
		if err != nil {
			t.Fatalf("listen %s: %v", addr, err)
		}
		w := NewWorker(WorkerOptions{Registry: Builtins(), Slots: 1, Name: fmt.Sprintf("pool-%d", i)})
		ch := make(chan error, 1)
		go func() { ch <- w.Serve(ln) }()
		pool, served = append(pool, w), append(served, ch)
	}

	ex := NewExecutor(ExecutorOptions{Registry: Builtins()})
	var load sched.LoadStats // what the next tick reads; ticks are driven by hand
	fc := NewFleetController(ex, FleetOptions{
		Load:       func() sched.LoadStats { return load },
		Registry:   Builtins(),
		Addresses:  addrs,
		Transport:  transport.Unix(),
		Min:        1,
		Max:        3,
		Interval:   time.Hour,
		Cooldown:   time.Nanosecond,
		QuietTicks: 1,
	})
	if err := fc.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	expect := func(step string, workers, undialed []string) {
		t.Helper()
		fc.mu.Lock()
		pending := append([]string{}, fc.undialed...)
		fc.mu.Unlock()
		if got := ex.Workers(); !reflect.DeepEqual(got, workers) || !reflect.DeepEqual(pending, undialed) {
			t.Fatalf("%s: workers %v, un-dialed %v; want %v and %v", step, got, pending, workers, undialed)
		}
	}
	pressured := sched.LoadStats{Queued: 1, Capacity: 4}
	idle := sched.LoadStats{Capacity: 4}

	expect("Start", []string{"pool-0"}, addrs[1:])
	load = pressured
	fc.tick()
	expect("second scale-up", []string{"pool-0", "pool-1"}, []string{})
	fc.tick()
	expect("third scale-up", []string{"pool-0", "pool-1", "elastic-1"}, []string{})
	fc.tick()
	expect("at Max", []string{"pool-0", "pool-1", "elastic-1"}, []string{})

	load = idle
	fc.tick()
	expect("first scale-down", []string{"pool-0", "pool-1"}, []string{})
	fc.tick()
	expect("second scale-down", []string{"pool-0"}, addrs[1:])
	fc.tick()
	expect("at Min", []string{"pool-0"}, addrs[1:])

	load = pressured
	fc.tick()
	if got := fc.Size(); got != 2 {
		t.Fatalf("Size=%d after the hung-up address was dialed again, want 2", got)
	}
	fc.mu.Lock()
	again := fc.members[1].addr
	fc.mu.Unlock()
	if again != addrs[1] {
		t.Fatalf("scale-up after the hang-up dialed %q, want the returned address %q", again, addrs[1])
	}

	fc.Stop()
	ex.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, w := range pool {
		if err := w.Drain(ctx); err != nil {
			t.Fatalf("Drain pool-%d: %v", i, err)
		}
		if err := <-served[i]; err != nil {
			t.Fatalf("Serve pool-%d: %v", i, err)
		}
	}
}

// TestFleetMetricsExposition checks the elastic-fleet metric families reach
// the Prometheus exposition with their expected names.
func TestFleetMetricsExposition(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	oreg := obs.NewRegistry()
	ex := NewExecutor(ExecutorOptions{Registry: Builtins(), Obs: oreg})
	defer ex.Close()
	fc := NewFleetController(ex, FleetOptions{
		Load:     func() sched.LoadStats { return sched.LoadStats{} },
		Registry: Builtins(),
		Min:      2,
		Max:      2,
	})
	if err := fc.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer fc.Stop()

	var buf bytes.Buffer
	if err := oreg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		MetricFleetSize + " 2",
		MetricScaleEvents + `{dir="up"}`,
		MetricScaleEvents + `{dir="down"}`,
		MetricAffinityHits,
		MetricAffinityMisses,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("exposition is missing %q:\n%s", want, out)
		}
	}
}
