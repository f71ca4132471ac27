package core

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dist"
	"repro/internal/strategy"
)

// The steady-state allocation contract of the sample inner loop: once a
// tunable has been drawn, an exposed variable loaded, and a result variable
// committed, repeating that operation inside the same sampling process must
// not allocate. This is what keeps a thousands-of-samples tuning run off the
// GC (DESIGN.md §3).

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

// TestRecordedRoundAllocs gates what checkpoint recording adds to a round of
// the service-job shape (8 rounds of 16 scored samples, a checkpoint every 2
// rounds): each entry is encoded once into its path's journal and a capture
// splices the journals, so recording costs a small constant per round, not a
// re-encoding of the whole journal at every checkpoint.
func TestRecordedRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate; the race detector drops sync.Pool entries")
	}
	const rounds = 8
	job := func(pol *CheckpointPolicy) float64 {
		return testing.AllocsPerRun(10, func() {
			err := New(Options{MaxPool: 4, Seed: 1, Checkpoint: pol}).Run(func(p *P) error {
				spec := RegionSpec{Name: "svc", Samples: 16, Score: func(sp *SP) float64 { return sp.MustGet("y").(float64) }}
				for r := 0; r < rounds; r++ {
					if _, err := p.Region(spec, func(sp *SP) error {
						x := sp.Float("x", dist.Uniform(0, 1))
						sp.Commit("y", x*(2-x))
						return nil
					}); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	plain := job(nil)
	recorded := job(&CheckpointPolicy{Store: &checkpoint.MemStore{}, Every: 2})
	perRound := (recorded - plain) / rounds
	t.Logf("%.0f allocations per job unrecorded, %.0f recorded: %+.1f per round", plain, recorded, perRound)
	if perRound > 24 {
		t.Errorf("recording adds %.1f allocations per round, want <= 24", perRound)
	}
}

// TestScoredRoundAllocs gates the fixed cost of a scored round of the
// BenchmarkScoredRounds shape: one steady-state 8-sample MCMC round on a pool
// of 2. Its commits join the round's arena, its feedback folds into views the
// process owns, its chain samplers are pooled, and its launch request is
// withdrawn through the scheduler, not a per-round context.
func TestScoredRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate; the race detector drops sync.Pool entries")
	}
	spec := RegionSpec{
		Name:     "rounds",
		Samples:  8,
		Strategy: strategy.MCMC(strategy.MCMCOptions{}),
		Score:    func(sp *SP) float64 { return sp.MustGet("y").(float64) },
	}
	d := dist.Uniform(0, 1)
	body := func(sp *SP) error {
		x := sp.Float("x", d)
		sp.Commit("y", x*(2-x))
		return nil
	}
	var allocs float64
	run(t, New(Options{MaxPool: 2, Seed: 1}), func(p *P) error {
		round := func() {
			if _, err := p.Region(spec, body); err != nil {
				t.Error(err)
			}
		}
		for r := 0; r < 16; r++ { // views full, pools warm
			round()
		}
		allocs = testing.AllocsPerRun(100, round)
		return nil
	})
	t.Logf("%.0f allocations per scored round", allocs)
	if allocs > 24 {
		t.Errorf("a steady-state 8-sample scored round allocates %.0f objects, want <= 24", allocs)
	}
}
