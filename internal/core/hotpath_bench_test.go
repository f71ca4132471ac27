package core

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/agg"
	"repro/internal/dist"
	"repro/internal/strategy"
)

// The hot-path microbenchmarks measure the sample inner loop the way the
// paper's workloads drive it: a tight region with a cheap body that draws a
// few tunables in a loop, reads exposed inputs, and commits a scalar result.
// BenchmarkSamplingHotPath is the sampling-throughput shape the region_wide
// workload of BENCHMARK.json measures end to end; the steady-state benchmarks
// isolate one primitive each.

// hotPathSamples is the per-region sample count of the throughput benchmark:
// large enough to amortize round setup, small enough to run many rounds.
const hotPathSamples = 256

// BenchmarkSamplingHotPath runs one sampling-bound region per iteration:
// tight region, cheap body, MaxPool = NumCPU. The custom samples/sec metric
// is per sampling process, not per region.
func BenchmarkSamplingHotPath(b *testing.B) {
	tuner := New(Options{MaxPool: runtime.NumCPU(), Seed: 1, Incremental: true})
	d := dist.Uniform(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	err := tuner.Run(func(p *P) error {
		p.Expose("input", 0.5)
		for i := 0; i < b.N; i++ {
			_, err := p.Region(RegionSpec{
				Name:      "hot",
				Samples:   hotPathSamples,
				Aggregate: map[string]agg.Kind{"y": agg.Avg},
			}, func(sp *SP) error {
				acc := 0.0
				for j := 0; j < 16; j++ {
					acc += sp.Float("alpha", d) + sp.Float("beta", d)
					acc += sp.Load("input").(float64)
				}
				sp.Commit("y", acc)
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N*hotPathSamples)/b.Elapsed().Seconds(), "samples/sec")
}

// BenchmarkSaturatedRegion runs one 256-sample unscored region per iteration
// on pools far smaller than the round — the case the slot-holding launch
// loop exists for. ns/sample is the per-sample cost of the whole round;
// waits/round is how many requests the scheduler's wait list saw per round
// (a handful: the launch loop's and the tuning process's re-entry — one per
// sample would read ~250).
func BenchmarkSaturatedRegion(b *testing.B) {
	d := dist.Uniform(0, 1)
	for _, pool := range []int{1, 2, 4} {
		b.Run("pool="+strconv.Itoa(pool), func(b *testing.B) {
			tuner := New(Options{MaxPool: pool, Seed: 1, Incremental: true})
			b.ReportAllocs()
			b.ResetTimer()
			err := tuner.Run(func(p *P) error {
				p.Expose("input", 0.5)
				for i := 0; i < b.N; i++ {
					_, err := p.Region(RegionSpec{
						Name:      "saturated",
						Samples:   hotPathSamples,
						Aggregate: map[string]agg.Kind{"y": agg.Avg},
					}, func(sp *SP) error {
						sp.Commit("y", sp.Float("alpha", d)+sp.Float("beta", d)+sp.Load("input").(float64))
						return nil
					})
					if err != nil {
						return err
					}
				}
				return nil
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hotPathSamples), "ns/sample")
			b.ReportMetric(float64(tuner.Metrics().Scheduler.Waited)/float64(b.N), "waits/round")
		})
	}
}

// benchInSP runs fn once inside a single sampling process of a minimal
// region, for steady-state primitive benchmarks.
func benchInSP(b *testing.B, setup func(p *P), fn func(sp *SP)) {
	b.Helper()
	tuner := New(Options{MaxPool: runtime.NumCPU(), Seed: 1})
	err := tuner.Run(func(p *P) error {
		if setup != nil {
			setup(p)
		}
		_, err := p.Region(RegionSpec{Name: "micro", Samples: 1}, func(sp *SP) error {
			fn(sp)
			return nil
		})
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFloatSteadyState measures a repeated draw of an already-drawn
// tunable — the inner-loop read pattern of every kernel body.
func BenchmarkFloatSteadyState(b *testing.B) {
	d := dist.Uniform(0, 1)
	b.ReportAllocs()
	benchInSP(b, nil, func(sp *SP) {
		sp.Float("x", d) // first draw
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = sp.Float("x", d)
		}
	})
}

// BenchmarkLoadSteadyState measures repeated reads of one exposed variable
// from inside a sampling process.
func BenchmarkLoadSteadyState(b *testing.B) {
	b.ReportAllocs()
	benchInSP(b, func(p *P) { p.Expose("input", 1.25) }, func(sp *SP) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = sp.Load("input")
		}
	})
}

// BenchmarkCommitSteadyState measures re-committing one sample result
// variable (Commit overwrites, so this is the steady-state write path).
func BenchmarkCommitSteadyState(b *testing.B) {
	b.ReportAllocs()
	benchInSP(b, nil, func(sp *SP) {
		sp.Commit("y", 1.0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp.Commit("y", 2.0)
		}
	})
}

// BenchmarkScoredRounds runs one fresh job of N scored 8-sample MCMC rounds
// under one region name per iteration. ns/round and allocs/round are the
// figures to read: a round's cost must not depend on how many rounds came
// before it, so they stay level from 64 to 1024 rounds.
func BenchmarkScoredRounds(b *testing.B) {
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
	for _, rounds := range []int{64, 256, 1024} {
		b.Run(strconv.Itoa(rounds), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := New(Options{MaxPool: runtime.NumCPU(), Seed: 1}).Run(func(p *P) error {
					for r := 0; r < rounds; r++ {
						if _, err := p.Region(spec, body); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N * rounds)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/round")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/round")
		})
	}
}
