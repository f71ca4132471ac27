package remote

import (
	"fmt"
	"testing"

	"repro/internal/store"
)

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
