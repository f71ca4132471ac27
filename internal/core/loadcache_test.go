package core

import (
	"testing"

	"repro/internal/store"
)

// loadSample runs what one sample of a worker does to its pooled SP's load
// cache: bind the SP to the round, load x, and recycle the SP.
func loadSample(sp *SP, rs *regionState) any {
	sp.rs = rs
	v := sp.Load("x")
	sp.reset()
	return v
}

// TestLoadCacheSeesExposeBetweenSamples: the load cache outlives the attempt,
// so it must notice an Expose that lands between two samples of one worker.
func TestLoadCacheSeesExposeBetweenSamples(t *testing.T) {
	e := store.NewExposed()
	e.Set(globalScope, "x", 1.0)
	rs := &regionState{k: 1, syms: store.NewSymbols(), exposed: e}
	sp := &SP{}
	if v := loadSample(sp, rs); v != 1.0 {
		t.Fatalf("first sample loaded %v, want 1", v)
	}
	e.Set(globalScope, "x", 2.0)
	if v := loadSample(sp, rs); v != 2.0 {
		t.Fatalf("sample after an Expose loaded %v, want 2", v)
	}
}

// TestLoadCacheKeyedOnStore: an SP recycled from one round to another that
// reads a different store at the same version counter (a worker's shipped
// snapshots, say) loads from the second store.
func TestLoadCacheKeyedOnStore(t *testing.T) {
	syms := store.NewSymbols()
	e1, e2 := store.NewExposed(), store.NewExposed()
	e1.Set(globalScope, "x", 1.0)
	e2.Set(globalScope, "x", 2.0)
	if e1.Version() != e2.Version() {
		t.Fatalf("versions %d and %d differ; the test needs them equal", e1.Version(), e2.Version())
	}
	sp := &SP{}
	if v := loadSample(sp, &regionState{k: 1, syms: syms, exposed: e1}); v != 1.0 {
		t.Fatalf("sample on the first store loaded %v, want 1", v)
	}
	if v := loadSample(sp, &regionState{k: 1, syms: syms, exposed: e2}); v != 2.0 {
		t.Fatalf("sample on the second store loaded %v, want 2", v)
	}
}
