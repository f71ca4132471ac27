package remote

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/store"
)

// TestFleetScalesUpOnHighPriorityQueue drives the controller with a load
// feed that is completely wait-free at the process level but reports
// high-priority jobs parked in a control-plane admission queue. The fleet
// must grow toward Max anyway: a queued high-priority job runs no samples
// yet, so admission-wait counters alone would never ask for the capacity it
// needs to enter the running set.
func TestFleetScalesUpOnHighPriorityQueue(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	oreg := obs.NewRegistry()
	ex := NewExecutor(ExecutorOptions{Registry: Builtins(), Obs: oreg})
	defer ex.Close()
	var high atomic.Int64
	high.Store(2)
	fc := NewFleetController(ex, FleetOptions{
		Load: func() sched.LoadStats {
			// Process-level picture: all capacity idle, zero waits. Only the
			// control-plane queue depth varies.
			return sched.LoadStats{Capacity: 8, HighJobsQueued: int(high.Load())}
		},
		Registry: Builtins(),
		Min:      1,
		Max:      4,
		Setpoint: 200 * time.Microsecond,
		Interval: 2 * time.Millisecond,
		Obs:      oreg,
	})
	if err := fc.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer fc.Stop()

	waitFor(t, "fleet to reach Max on high-priority queue depth", func() bool {
		return fc.Size() == 4
	})
	if ups := oreg.Counter(MetricScaleEvents, "dir", "up").Value(); ups == 0 {
		t.Fatal("no scale-up events recorded")
	}
	// Once the queue drains the pressure is gone; with zero waits the fleet
	// must not keep growing and eventually retires toward Min.
	high.Store(0)
	waitFor(t, "fleet drained below Max after queue emptied", func() bool {
		return fc.Size() < 4
	})
}

// TestLowPriorityQueueDoesNotPressureFleet: lower classes queueing is
// acceptable backlog — only the high-priority subset forces capacity.
func TestLowPriorityQueueDoesNotPressureFleet(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ex := NewExecutor(ExecutorOptions{Registry: Builtins()})
	defer ex.Close()
	fc := NewFleetController(ex, FleetOptions{
		Load: func() sched.LoadStats {
			return sched.LoadStats{JobsQueued: 5} // none of them high
		},
		Registry: Builtins(),
		Min:      1,
		Max:      4,
		Interval: time.Millisecond,
	})
	if err := fc.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer fc.Stop()
	time.Sleep(30 * time.Millisecond) // ~30 ticks
	if got := fc.Size(); got != 1 {
		t.Fatalf("fleet grew to %d on low-priority backlog alone, want Min=1", got)
	}
}

// countTombstones reports how many deleted-key records the store still
// retains (from the dawn of time — exactly what a worker resyncing from the
// oldest possible base would be sent).
func countTombstones(e *store.Exposed) int {
	_, del := e.ChangedSince(0)
	return len(del)
}

// TestTombstonesBoundedAcrossRounds models a long-running service job that
// churns per-round scratch keys: each BeginRound-driven snapshot sees one
// new key and one deletion. Before version-count bounding, the snapshot
// cache's byte cap (64 MiB default) retained every tiny version, so the
// tombstone-compaction horizon never advanced and the deleted-key map grew
// one entry per round, forever. The fix bounds retained versions at
// maxSnapVersions, which bounds live tombstones with it.
func TestTombstonesBoundedAcrossRounds(t *testing.T) {
	ex := NewExecutor(ExecutorOptions{Registry: Builtins()})
	defer ex.Close()
	e := store.NewExposed()
	e.Set("g", "base", 1.0)

	const rounds = 200
	for round := 0; round < rounds; round++ {
		e.Set("g", fmt.Sprintf("scratch%d", round), float64(round))
		if round > 0 {
			e.Delete("g", fmt.Sprintf("scratch%d", round-1))
		}
		if _, err := ex.snapshotFor(7, e); err != nil {
			t.Fatalf("snapshotFor(round %d): %v", round, err)
		}
	}

	ex.snapMu.Lock()
	retained := len(ex.snaps[7].bases)
	ex.snapMu.Unlock()
	if retained > maxSnapVersions {
		t.Fatalf("cache retains %d bases, want <= %d", retained, maxSnapVersions)
	}
	// Tombstones newer than the oldest retained base must survive (they are
	// part of that base's delta); everything older must be gone. With one
	// deletion per round that bounds the map at maxSnapVersions entries.
	if got := countTombstones(e); got > maxSnapVersions {
		t.Fatalf("store retains %d tombstones after %d delete-churning rounds, want <= %d",
			got, rounds, maxSnapVersions)
	}
}

// TestTombstonesCompactedOnIdenticalRewrite covers the other leak path: a
// round that Sets and Deletes scratch keys ending back at byte-identical
// content takes advanceSnapLocked's early return, which used to skip
// compaction entirely — tombstones accrued forever despite nothing ever
// shipping.
func TestTombstonesCompactedOnIdenticalRewrite(t *testing.T) {
	ex := NewExecutor(ExecutorOptions{Registry: Builtins()})
	defer ex.Close()
	e := store.NewExposed()
	e.Set("g", "base", 1.0)
	if _, err := ex.snapshotFor(9, e); err != nil {
		t.Fatalf("initial snapshotFor: %v", err)
	}

	const rounds = 100
	for round := 0; round < rounds; round++ {
		k := fmt.Sprintf("tmp%d", round)
		e.Set("g", k, float64(round))
		e.Delete("g", k) // content is back to {base: 1.0}
		if _, err := ex.snapshotFor(9, e); err != nil {
			t.Fatalf("snapshotFor(round %d): %v", round, err)
		}
	}
	// Single retained version whose ver advances every call: the horizon
	// tracks the current version, so every tombstone compacts away.
	if got := countTombstones(e); got != 0 {
		t.Fatalf("store retains %d tombstones after %d identical-rewrite rounds, want 0", got, rounds)
	}
}
