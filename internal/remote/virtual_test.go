//go:build goexperiment.synctest

//go:debug asynctimerchan=0

// The FleetController's ticks on a virtual clock: each test builds its
// executor, its net.Pipe loopback workers and its controller inside a
// synctest bubble, scripts the load each tick reads, and asserts the fleet's
// size after every tick. Run them with
//
//	GOEXPERIMENT=synctest go test -run '^TestVirtual' ./internal/remote/

package remote

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"testing/synctest"
	"time"

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
