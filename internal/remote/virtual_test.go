//go:build goexperiment.synctest

//go:debug asynctimerchan=0

// The fleet on a virtual clock: each test builds its executor, its net.Pipe
// loopback workers and its controller or tuner inside a synctest bubble. The
// controller tests script the load each tick reads and assert the fleet's
// size after every tick; the chaos suite runs a tuning job through a faulty,
// dying and elastic fleet seed after seed. Run them with
//
//	GOEXPERIMENT=synctest go test -run '^TestVirtual' ./internal/remote/

package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/synctest"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faultinject"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/sched"
)

// fleetTrajectory starts a controller over a fresh executor at the calling
// bubble's current instant and feeds loads[i] to its i-th tick. It renders
// the fleet's size at Start and after each tick — read half an interval
// later, once the tick's scale event has settled — and the scale events
// counted each way.
func fleetTrajectory(t *testing.T, opts FleetOptions, loads []sched.LoadStats) string {
	t.Helper()
	reg := obs.NewRegistry()
	ex := NewExecutor(ExecutorOptions{Registry: Builtins(), Obs: reg})
	defer ex.Close()
	var load atomic.Pointer[sched.LoadStats]
	load.Store(&sched.LoadStats{Capacity: 8})
	opts.Load = func() sched.LoadStats { return *load.Load() }
	opts.Registry = Builtins()
	fc := NewFleetController(ex, opts)
	if err := fc.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer fc.Stop()
	sizes := []int{fc.Size()}
	time.Sleep(opts.Interval / 2)
	for i := range loads {
		load.Store(&loads[i])
		time.Sleep(opts.Interval)
		synctest.Wait()
		sizes = append(sizes, fc.Size())
	}
	return fmt.Sprintf("sizes %v, up %d, down %d", sizes,
		reg.Counter(MetricScaleEvents, "dir", "up").Value(), reg.Counter(MetricScaleEvents, "dir", "down").Value())
}

// repeat returns n copies of l.
func repeat(l sched.LoadStats, n int) []sched.LoadStats {
	out := make([]sched.LoadStats, n)
	for i := range out {
		out[i] = l
	}
	return out
}

// TestVirtualFleetControllerScalesUpAndDown: a deep setpoint breach doubles
// the fleet, ignoring the cooldown; once the load stops, the fleet retires
// one worker per QuietTicks wait-free ticks, and never two within Cooldown.
func TestVirtualFleetControllerScalesUpAndDown(t *testing.T) {
	synctest.Run(func() {
		// Ten admissions per tick: 500 µs each on average (a deep breach),
		// then 300 µs (a marginal one), then none at all.
		deep1 := sched.LoadStats{Capacity: 8, Admitted: 10, WaitNanos: 10 * 500e3}
		deep2 := sched.LoadStats{Capacity: 8, Admitted: 20, WaitNanos: 20 * 500e3}
		marginal := sched.LoadStats{Capacity: 8, Admitted: 30, WaitNanos: 20*500e3 + 10*300e3}
		got := fleetTrajectory(t, FleetOptions{
			Min: 1, Max: 4, Setpoint: 200 * time.Microsecond,
			Interval: 2 * time.Millisecond, Cooldown: 5 * time.Millisecond, QuietTicks: 2,
		}, append([]sched.LoadStats{deep1, deep2}, repeat(marginal, 10)...))
		// Tick 1 grows by one (a fleet of one has nothing to double), tick 2
		// doubles to Max at 4 ms, tick 3 is at Max. Quiet from tick 4: the
		// second quiet tick (10 ms) is 6 ms after the last move and retires
		// one; from then on each second quiet tick falls 4 ms after the last
		// move, inside the 5 ms cooldown, so each retirement waits a third.
		if want := "sizes [1 2 4 4 4 3 3 3 2 2 2 1 1], up 2, down 3"; got != want {
			t.Fatalf("%s, want %s", got, want)
		}
	})
}

// TestVirtualFleetScalesUpOnHighPriorityQueue drives the controller with a
// load feed that is wait-free at the process level but reports high-priority
// jobs parked in a control-plane admission queue. The fleet must grow toward
// Max anyway: a queued high-priority job runs no samples yet, so
// admission-wait counters alone would never ask for the capacity it needs.
// Once the queue drains, the fleet retires back to Min at the default
// QuietTicks (3) and Cooldown (two intervals).
func TestVirtualFleetScalesUpOnHighPriorityQueue(t *testing.T) {
	synctest.Run(func() {
		high := sched.LoadStats{Capacity: 8, HighJobsQueued: 2}
		got := fleetTrajectory(t, FleetOptions{Min: 1, Max: 4, Setpoint: 200 * time.Microsecond, Interval: 2 * time.Millisecond},
			append(repeat(high, 3), repeat(sched.LoadStats{Capacity: 8}, 9)...))
		// Two queued jobs grow the fleet by two, then to Max; every third
		// quiet tick retires one.
		if want := "sizes [1 3 4 4 4 4 3 3 3 2 2 2 1], up 2, down 3"; got != want {
			t.Fatalf("%s, want %s", got, want)
		}
	})
}

// TestVirtualLowPriorityQueueDoesNotPressureFleet: lower classes queueing is
// acceptable backlog — only the high-priority subset forces capacity.
func TestVirtualLowPriorityQueueDoesNotPressureFleet(t *testing.T) {
	synctest.Run(func() {
		got := fleetTrajectory(t, FleetOptions{Min: 1, Max: 4, Interval: time.Millisecond},
			repeat(sched.LoadStats{JobsQueued: 5}, 30)) // none of them high
		if want := "sizes [" + strings.Repeat("1 ", 30) + "1], up 0, down 0"; got != want {
			t.Fatalf("%s, want %s", got, want)
		}
	})
}

// Chaos-suite shape: chaosRounds regions of chaosSamples samples each, over
// three workers. Worker 0's link drops, delays and cuts frames both ways;
// worker 1 dies mid-run; in one seed in chaosElasticEvery a fourth worker
// joins mid-round and worker 2 is retired mid-round.
const (
	chaosRounds       = 3
	chaosSamples      = 12
	chaosElasticEvery = 4
)

// chaosOutcome is how one sample group settled.
type chaosOutcome struct {
	value     float64
	committed bool
	failed    bool // an error, a timeout among them
	pruned    bool
}

// chaosRun is what one seed's run left behind, for chaosVerdict.
type chaosRun struct {
	seed     int64
	err      error
	outcomes [][]chaosOutcome // by round, then group
	failures int64            // wbtuner_worker_failures_total over the fleet
	injected int64            // links cut plus workers killed
}

// chaosVerdict checks one run against the fault-free run's committed values:
// every group settled exactly once, no committed value differs from the
// fault-free one (a fault only turns a sample into a failure), and the
// fleet's failure counter equals the cuts and deaths injected.
func chaosVerdict(run chaosRun, ref [][]chaosOutcome) error {
	if run.err != nil {
		return fmt.Errorf("seed %d: run: %w", run.seed, run.err)
	}
	if len(run.outcomes) != len(ref) {
		return fmt.Errorf("seed %d: %d rounds, want %d", run.seed, len(run.outcomes), len(ref))
	}
	for r, groups := range run.outcomes {
		if len(groups) != len(ref[r]) {
			return fmt.Errorf("seed %d round %d: %d groups, want %d", run.seed, r, len(groups), len(ref[r]))
		}
		for g, o := range groups {
			settled := 0
			for _, b := range []bool{o.committed, o.failed, o.pruned} {
				if b {
					settled++
				}
			}
			if settled != 1 {
				return fmt.Errorf("seed %d round %d group %d: settled %d times (%+v)", run.seed, r, g, settled, o)
			}
			if o.committed && o.value != ref[r][g].value {
				return fmt.Errorf("seed %d round %d group %d: committed %v, fault-free run %v", run.seed, r, g, o.value, ref[r][g].value)
			}
		}
	}
	if run.failures != run.injected {
		return fmt.Errorf("seed %d: %d worker failures counted, %d cuts and deaths injected", run.seed, run.failures, run.injected)
	}
	return nil
}

// chaosProgram runs the suite's tuning job on ex (in-process when nil) and
// records how every group settled. trigger runs inside each sample body.
func chaosProgram(ex core.Executor, trigger func(round, group int)) ([][]chaosOutcome, error) {
	tuner := core.New(core.Options{
		MaxPool: 4, Seed: 5, Executor: ex,
		Fault: core.FaultPolicy{SampleTimeout: 300 * time.Millisecond, MaxAttempts: 3, Backoff: time.Millisecond},
	})
	defer tuner.Close()
	var out [][]chaosOutcome
	err := tuner.Run(func(p *core.P) error {
		p.Expose("bias", 1.0)
		for r := 0; r < chaosRounds; r++ {
			res, err := p.Region(core.RegionSpec{Name: fmt.Sprintf("chaos%d", r), Samples: chaosSamples}, func(sp *core.SP) error {
				x := sp.Float("x", dist.Uniform(0, 1))
				trigger(r, sp.Index())
				time.Sleep(time.Millisecond) // keep samples in flight across faults
				sp.Commit("v", x+sp.Load("bias").(float64))
				return nil
			})
			if err != nil {
				return fmt.Errorf("round %d: %w", r, err)
			}
			groups := make([]chaosOutcome, res.N())
			for g := range groups {
				o := &groups[g]
				var v any
				v, o.committed = res.Value("v", g)
				if o.committed {
					o.value = v.(float64)
				}
				o.failed, o.pruned = res.Err(g) != nil, res.Pruned(g)
			}
			out = append(out, groups)
		}
		return nil
	})
	return out, err
}

// helloFirst passes a worker's hello straight through and sends every later
// write through faulty, so a fault never keeps the worker out of the fleet.
type helloFirst struct {
	net.Conn
	faulty net.Conn
	sent   bool
}

func (c *helloFirst) Write(p []byte) (int, error) {
	if !c.sent {
		c.sent = true
		return c.Conn.Write(p)
	}
	return c.faulty.Write(p)
}

// chaosSeed runs the suite's job once, under seed's faults, inside the
// calling bubble.
func chaosSeed(seed int64) chaosRun {
	run := chaosRun{seed: seed}
	inj := faultinject.NewNet(seed, faultinject.NetConfig{
		DropRate: 0.06, DelayRate: 0.10, CutRate: 0.01, MaxDelay: 2 * time.Millisecond,
	})
	reg := NewRegistry()
	oreg := obs.NewRegistry()
	ex := NewExecutor(ExecutorOptions{Registry: reg, Dynamic: true, Obs: oreg})
	var mu sync.Mutex // guards workers: the elastic step joins from a sample body
	var workers []*Worker
	var cuttable []net.Conn
	join := func(name string, faulty bool) *Worker {
		w := NewWorker(WorkerOptions{Name: name, Slots: 2, Registry: reg})
		mu.Lock()
		workers = append(workers, w)
		mu.Unlock()
		a, b := net.Pipe()
		var wa, db net.Conn = a, b
		if faulty {
			fa := inj.Conn(a, name+"->dispatcher")
			db = inj.Conn(b, "dispatcher->"+name)
			wa = &helloFirst{Conn: a, faulty: fa}
			cuttable = append(cuttable, fa, db)
		}
		go w.ServeConn(wa)
		if err := ex.AddConn(db); err != nil {
			panic(fmt.Sprintf("seed %d: AddConn(%s): %v", seed, name, err))
		}
		return w
	}
	join("w0", true)
	w1 := join("w1", false)
	join("w2", false)

	// The death and the elastic step fire from inside a seeded sample body,
	// so they land mid-round; they run beside the job, which waits for them
	// only at its end.
	var kill, elastic sync.Once
	sideDone := make(chan struct{}, 2)
	side := 1
	elasticSeed := seed%chaosElasticEvery == 0
	if elasticSeed {
		side++
	}
	deathAt := [2]int{int(seed % chaosRounds), int(seed/chaosRounds) % chaosSamples}
	stepAt := [2]int{int(seed/7) % chaosRounds, int(seed/3) % chaosSamples}
	trigger := func(r, g int) {
		if r == deathAt[0] && g == deathAt[1] {
			kill.Do(func() { go func() { w1.Close(); sideDone <- struct{}{} }() })
		}
		if elasticSeed && r == stepAt[0] && g == stepAt[1] {
			elastic.Do(func() {
				join("w3", false)
				go func() {
					ex.RemoveConn(context.Background(), "w2")
					sideDone <- struct{}{}
				}()
			})
		}
	}
	run.outcomes, run.err = chaosProgram(ex, trigger)
	// A trigger that never fired (its sample settled without running) fires
	// now, so every seed injects the same faults.
	trigger(deathAt[0], deathAt[1])
	if elasticSeed {
		trigger(stepAt[0], stepAt[1])
	}
	for ; side > 0; side-- {
		<-sideDone
	}
	synctest.Wait() // every read loop has seen its link's end
	for _, w := range []string{"w0", "w1", "w2", "w3"} {
		run.failures += oreg.Counter(MetricWorkerFailures, "worker", w).Value()
	}
	run.injected = 1 // worker 1's death
	for _, c := range cuttable {
		if c.(interface{ WasCut() bool }).WasCut() {
			run.injected++ // one per link: either direction's cut fails it
			break
		}
	}
	ex.Close()
	mu.Lock()
	defer mu.Unlock()
	for _, w := range workers {
		w.Close()
	}
	return run
}

// chaosSeeds is the suite's size per go test, -race builds included.
const chaosSeeds = 1000

// TestVirtualFleetChaos runs the chaos suite seed after seed: drops, delays
// and cuts on worker 0's link in both directions, worker 1's death, and in
// every chaosElasticEvery-th seed a worker joining and another retiring
// mid-round. Every run must end (a hung bubble trips the watchdog, which names
// the seed), pass chaosVerdict against the fault-free run, and leave no
// goroutine behind. A bubble virtualises time, not the scheduler, so a seed
// explores an interleaving rather than replaying one: a failure names its
// seed, and a rerun of it may pass.
func TestVirtualFleetChaos(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ref, err := chaosProgram(nil, func(int, int) {})
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	// Results leave each bubble through atomics: the race detector sees no
	// order between a bubble's goroutines and synctest.Run's return.
	var failed, faults, lost atomic.Int64
	seed := int64(1)
	for ; seed <= chaosSeeds && failed.Load() < 3; seed++ {
		watchdog := time.AfterFunc(time.Minute, func() { panic(fmt.Sprintf("chaos seed %d: the bubble hung", seed)) })
		synctest.Run(func() {
			run := chaosSeed(seed)
			if err := chaosVerdict(run, ref); err != nil {
				t.Error(err)
				failed.Add(1)
			}
			faults.Add(run.injected)
			for _, groups := range run.outcomes {
				for _, o := range groups {
					if o.failed {
						lost.Add(1)
					}
				}
			}
		})
		watchdog.Stop()
	}
	t.Logf("%d seeds: %d cuts and deaths, %d samples failed or timed out", seed-1, faults.Load(), lost.Load())
}

// TestVirtualFleetChaosOracleCatches: the verdict rejects a run that
// committed a value the fault-free run did not, settled a group twice, or
// counted a worker failure no fault explains.
func TestVirtualFleetChaosOracleCatches(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	synctest.Run(func() { chaosOracleCatches(t) })
}

func chaosOracleCatches(t *testing.T) {
	ref, _ := chaosProgram(nil, func(int, int) {})
	run := chaosSeed(4)
	if err := chaosVerdict(run, ref); err != nil {
		t.Fatalf("unmutated run rejected: %v", err)
	}
	committed := func(run chaosRun) *chaosOutcome {
		for _, groups := range run.outcomes {
			for g := range groups {
				if groups[g].committed {
					return &groups[g]
				}
			}
		}
		t.Fatal("no group committed")
		return nil
	}
	for what, mutate := range map[string]func(run *chaosRun){
		"changed value":       func(run *chaosRun) { committed(*run).value += 1e-9 },
		"double settle":       func(run *chaosRun) { committed(*run).failed = true },
		"unexplained failure": func(run *chaosRun) { run.failures++ },
		"lost round":          func(run *chaosRun) { run.outcomes = run.outcomes[1:] },
		"run error":           func(run *chaosRun) { run.err = errors.New("mutated") },
	} {
		mutated := run
		mutated.outcomes = make([][]chaosOutcome, len(run.outcomes))
		for r := range run.outcomes {
			mutated.outcomes[r] = append([]chaosOutcome(nil), run.outcomes[r]...)
		}
		mutate(&mutated)
		if err := chaosVerdict(mutated, ref); err == nil {
			t.Errorf("%s: the verdict accepted the mutated run", what)
		}
	}
}
