package core

import (
	"testing"

	"repro/internal/dist"
)

// The steady-state allocation contract of the sample inner loop: once a
// tunable has been drawn, an exposed variable loaded, and a result variable
// committed, repeating that operation inside the same sampling process must
// not allocate. This is what keeps a thousands-of-samples tuning run off the
// GC (DESIGN.md §8).

// allocsInSP reports testing.AllocsPerRun of fn inside a single sampling
// process of a minimal region.
func allocsInSP(t *testing.T, setup func(p *P), fn func(sp *SP)) float64 {
	t.Helper()
	var allocs float64
	tuner := New(Options{MaxPool: 1, Seed: 1})
	err := tuner.Run(func(p *P) error {
		if setup != nil {
			setup(p)
		}
		_, err := p.Region(RegionSpec{Name: "alloc", Samples: 1}, func(sp *SP) error {
			allocs = testing.AllocsPerRun(100, func() { fn(sp) })
			return nil
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return allocs
}

func TestFloatSteadyStateAllocFree(t *testing.T) {
	d := dist.Uniform(0, 1)
	allocs := allocsInSP(t, nil, func(sp *SP) {
		// First call interns and draws; AllocsPerRun's warm-up run absorbs it.
		_ = sp.Float("x", d)
	})
	if allocs != 0 {
		t.Errorf("steady-state Float allocates %.1f objects per call, want 0", allocs)
	}
}

func TestLoadSteadyStateAllocFree(t *testing.T) {
	allocs := allocsInSP(t, func(p *P) { p.Expose("input", 1.25) }, func(sp *SP) {
		_ = sp.Load("input")
	})
	if allocs != 0 {
		t.Errorf("steady-state Load allocates %.1f objects per call, want 0", allocs)
	}
}

// TestIncrementalRegionAllocs gates a whole round of the sampling-throughput
// shape (BenchmarkSamplingHotPath): one steady-state 256-sample incremental
// Avg region, whose values fold into the aggregator at commit. Each worker
// costs about one allocation, so the pool is fixed at 4 rather than the
// machine's core count.
func TestIncrementalRegionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate; the race detector drops sync.Pool entries")
	}
	d := dist.Uniform(0, 1)
	var allocs float64
	tuner := New(Options{MaxPool: 4, Seed: 1, Incremental: true})
	err := tuner.Run(func(p *P) error {
		p.Expose("input", 0.5)
		var rerr error
		allocs = testing.AllocsPerRun(20, func() {
			if err := hotPathRegion(p, d); err != nil {
				rerr = err
			}
		})
		return rerr
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.0f allocations per region", allocs)
	if allocs > 300 {
		t.Errorf("a 256-sample incremental Avg region allocates %.0f objects, want <= 300", allocs)
	}
}

func TestCommitSteadyStateAllocFree(t *testing.T) {
	allocs := allocsInSP(t, nil, func(sp *SP) {
		// Constant operand: boxing is static, so the call itself must be free.
		sp.Commit("y", 2.0)
	})
	if allocs != 0 {
		t.Errorf("steady-state Commit allocates %.1f objects per call, want 0", allocs)
	}
}
