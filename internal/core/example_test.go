package core_test

import (
	"fmt"
	"math"

	"repro/internal/agg"
	"repro/internal/canny"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/img"
)

// stepSignal is a noisy step whose true position is 600. It stands for the
// expensive load of a real program.
func stepSignal() []float64 {
	xs := make([]float64, 1000)
	for i := range xs {
		if i >= 600 {
			xs[i] = 1
		}
		xs[i] += 0.4 * math.Sin(float64(i)*12.9898)
	}
	return xs
}

// movingAverage is stage 1: a moving average over a tunable window.
func movingAverage(xs []float64, window int) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		sum, n := 0.0, 0
		for j := max(0, i-window); j <= min(len(xs)-1, i+window); j++ {
			sum += xs[j]
			n++
		}
		out[i] = sum / float64(n)
	}
	return out
}

// firstAbove is stage 2: the first index whose value exceeds cutoff.
func firstAbove(xs []float64, cutoff float64) int {
	for i, v := range xs {
		if v > cutoff {
			return i
		}
	}
	return len(xs)
}

// Tune a two-stage pipeline in one execution: the load runs once, stage 1
// samples a smoothing window, and stage 2 samples a cutoff on the best
// stage-1 result without running stage 1 again (the paper's m·n against
// mⁿ). Each stage scores itself by an internal criterion, so no ground
// truth is needed.
func Example_quickstart() {
	tuner := core.New(core.Options{Seed: 42})
	err := tuner.Run(func(p *core.P) error {
		data := stepSignal()
		p.Work(10)

		res, err := p.Region(core.RegionSpec{
			Name: "smooth", Samples: 12, Minimize: true,
			Score: func(sp *core.SP) float64 {
				v, _ := sp.Get("roughness")
				return v.(float64)
			},
		}, func(sp *core.SP) error {
			window := sp.Int("window", dist.IntRange(1, 60))
			sp.Work(1)
			sm := movingAverage(data, window)
			rough := 0.0
			for i := 1; i < 500; i++ { // left of the step: should be flat
				rough += math.Abs(sm[i] - sm[i-1])
			}
			sp.Commit("roughness", rough)
			sp.Commit("smoothed", sm)
			return nil
		})
		if err != nil {
			return err
		}
		best := res.BestIndex()
		sm := res.MustValue("smoothed", best).([]float64)
		fmt.Printf("stage 1: picked window=%v (roughness %.3f)\n", res.Params(best)["window"], res.Score(best))

		res2, err := p.Region(core.RegionSpec{
			Name: "detect", Samples: 16, Minimize: true,
			Score: func(sp *core.SP) float64 {
				v, _ := sp.Get("spread")
				return v.(float64)
			},
		}, func(sp *core.SP) error {
			cutoff := sp.Float("cutoff", dist.Uniform(0.1, 0.9))
			sp.Work(0.2)
			// A robust detection is stable under small cutoff changes.
			lo, hi := firstAbove(sm, cutoff-0.05), firstAbove(sm, cutoff+0.05)
			sp.Commit("spread", math.Abs(float64(hi-lo)))
			sp.Commit("at", firstAbove(sm, cutoff))
			return nil
		})
		if err != nil {
			return err
		}
		b2 := res2.BestIndex()
		fmt.Printf("stage 2: picked cutoff=%.3f -> step detected at %v (truth: 600)\n",
			res2.Params(b2)["cutoff"], res2.MustValue("at", b2))
		fmt.Printf("explored %d configurations in %.1f work units (one full execution)\n",
			tuner.Metrics().Samples, tuner.WorkUsed())
		return nil
	})
	if err != nil {
		fmt.Println(err)
	}
	// Output:
	// stage 1: picked window=29 (roughness 0.478)
	// stage 2: picked cutoff=0.254 -> step detected at 586 (truth: 600)
	// explored 28 configurations in 25.2 work units (one full execution)
}

// The paper's running example (Fig. 4/6): tune Canny's sigma, low and high
// with two nested regions. Stage 1 samples sigma; each well-smoothed result
// splits a tuning process that samples the thresholds, prunes empty edge maps
// (@check) and majority-votes the rest. A final vote runs over the survivors.
// Each child's line is kept and printed after Wait, in split order, so the
// output does not depend on which child finishes first.
func Example_canny() {
	ds := img.GenDataset("coffeemaker", 64, 64, 1)
	trace := core.NewTrace()
	tuner := core.New(core.Options{Seed: 1, Incremental: true, Trace: trace})
	type survivor struct {
		line string
		vote []float64
	}
	var children []*survivor // in split order

	err := tuner.Run(func(p *core.P) error {
		noisy := ds.Noisy // the expensive load happens once
		p.Work(canny.WorkLoad)
		p.Expose("imgSize", noisy.W*noisy.H)

		res, err := p.Region(core.RegionSpec{Name: "gaussian", Samples: 16}, func(sp *core.SP) error {
			sigma := sp.Float("sigma", dist.Uniform(0.4, 4))
			sp.Work(canny.WorkSmooth)
			sp.Commit("sImage", canny.SmoothStage(noisy, sigma))
			return nil
		})
		if err != nil {
			return err
		}
		for _, i := range res.Indices("sImage") {
			sm := res.MustValue("sImage", i).(img.Image)
			if !canny.WellSmoothed(sm, noisy) {
				continue
			}
			sigma := res.Params(i)["sigma"]
			child := new(survivor)
			children = append(children, child)
			p.Split(func(c *core.P) error {
				c.Work(canny.WorkGradient)
				g := canny.GradientStage(sm)
				res2, err := c.Region(core.RegionSpec{
					Name: "traversal", Samples: 12,
					Aggregate: map[string]agg.Kind{"edges": agg.MV},
				}, func(sp *core.SP) error {
					low := sp.Float("low", dist.Uniform(0.05, 0.6))
					high := sp.Float("high", dist.Uniform(0.2, 0.95))
					sp.Work(canny.WorkTraverse)
					edges := canny.TraverseStage(g, low, high)
					sp.Check(edges.CountAbove(0.5) > 0)
					sp.Commit("edges", edges.Pix)
					return nil
				})
				if err != nil {
					return err
				}
				if v := res2.Aggregated("edges"); v != nil {
					child.vote = v.([]float64)
					child.line = fmt.Sprintf("sigma=%.2f: voted edges score %.3f (SSIM vs truth)",
						sigma, canny.Score(img.Image{W: 64, H: 64, Pix: child.vote}, ds.Truth))
				}
				return nil
			})
		}
		return p.Wait()
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	final, _ := agg.New(agg.MV)
	voters := 0
	for _, c := range children {
		if c.vote != nil {
			fmt.Println(c.line)
			final.Add(c.vote)
			voters++
		}
	}
	native := canny.Detect(ds.Noisy, canny.DefaultParams())
	fmt.Printf("untuned defaults: %.3f\n", canny.Score(native, ds.Truth))
	if v := final.Result(); v != nil {
		voted := img.Image{W: 64, H: 64, Pix: v.([]float64)}
		fmt.Printf("tuned (vote over %d survivors): %.3f\n", voters, canny.Score(voted, ds.Truth))
	}
	m := tuner.Metrics()
	fmt.Printf("%d configurations explored, %d pruned, %.1f work units\n", m.Samples, m.Pruned, tuner.WorkUsed())
	fmt.Print(trace.Tree()) // the Fig. 6 tuning-model view
	// Output:
	// sigma=1.00: voted edges score 0.696 (SSIM vs truth)
	// sigma=1.04: voted edges score 0.693 (SSIM vs truth)
	// sigma=0.51: voted edges score 0.723 (SSIM vs truth)
	// sigma=1.66: voted edges score 0.679 (SSIM vs truth)
	// untuned defaults: 0.543
	// tuned (vote over 4 survivors): 0.684
	// 208 configurations explored, 165 pruned, 308.0 work units
	// tuning tree (16 splits)
	//   region gaussian       rounds=1 samples=16 pruned=0 failed=0 timeout=0
	//   region traversal      rounds=16 samples=27 pruned=165 failed=0 timeout=0
}
