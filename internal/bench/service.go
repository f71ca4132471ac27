package bench

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"repro/internal/canny"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/img"
	"repro/internal/jobs"
)

// RegisterPrograms installs the benchmark-backed service programs a wbtuned
// server offers:
//
//	canny      the paper's Fig. 4 pipeline over a generated scene
//	           (args: scene, stage1, stage2)
//	synthetic  a cheap one-region tuning loop for smoke tests and demos
//	           (args: rounds, samples)
//
// Every program's result string is a deterministic function of the spec and
// seed, which is what lets the control plane byte-compare an HTTP-submitted
// run against jobs.RunDirect.
func RegisterPrograms(reg *jobs.Registry) {
	reg.Register("canny", cannyProgram)
	reg.Register("synthetic", syntheticProgram)
}

// argInt parses an optional integer arg, refusing garbage rather than
// silently tuning something other than what was asked.
func argInt(args map[string]string, key string, def int) (int, error) {
	s, ok := args[key]
	if !ok || s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("%w: arg %q must be a non-negative integer, got %q",
			core.ErrSpecInvalid, key, s)
	}
	return v, nil
}

// cannyProgram adapts CannyBench.Tune's pipeline to the service model: the
// manager owns the Tuner (built from the spec), rounds stream out as they
// finish, and the returned string summarizes the tuned detector.
func cannyProgram(spec core.JobSpec) (jobs.RunFunc, error) {
	b := CannyBench{Scene: spec.Args["scene"]}
	var err error
	if b.Stage1, err = argInt(spec.Args, "stage1", 0); err != nil {
		return nil, err
	}
	if b.Stage2, err = argInt(spec.Args, "stage2", 0); err != nil {
		return nil, err
	}
	return func(ctx context.Context, t *core.Tuner, emit func(jobs.Round)) (string, error) {
		ds := b.dataset(spec.Seed)
		nStage1, nStage2 := b.stages()
		run := &cannyRun{
			bench: b, t: t, ds: ds, nStage1: nStage1, nStage2: nStage2,
			emit: func(region string, best float64) {
				// The gaussian region has no score function (its samples are
				// judged by the aggregation callback instead), so its best is
				// NaN — not a JSON value; an empty traversal yields -Inf.
				if math.IsNaN(best) || math.IsInf(best, 0) {
					best = 0
				}
				emit(jobs.Round{Region: region, Score: best})
			},
		}
		if err := t.RunContext(ctx, run.body); err != nil {
			return "", err
		}
		score := canny.Score(canny.Detect(ds.Noisy, canny.DefaultParams()), ds.Truth)
		tuned := false
		if final := consensusSelect(run.votes()); final != nil {
			score = canny.Score(img.Image{W: cannySize, H: cannySize, Pix: final}, ds.Truth)
			tuned = true
		}
		return fmt.Sprintf("canny scene=%s seed=%d splits=%d tuned=%v score=%.6f\n",
			b.scene(), spec.Seed, run.splits, tuned, score), nil
	}, nil
}

// syntheticProgram is a deterministic toy pipeline: a fixed number of
// rounds over one region with a closed-form optimum, cheap enough for CI
// smoke tests and quota demos while still exercising the full job
// lifecycle (regions, rounds, checkpoints).
func syntheticProgram(spec core.JobSpec) (jobs.RunFunc, error) {
	rounds, err := argInt(spec.Args, "rounds", 3)
	if err != nil {
		return nil, err
	}
	samples, err := argInt(spec.Args, "samples", 8)
	if err != nil {
		return nil, err
	}
	if rounds == 0 {
		rounds = 3
	}
	if samples == 0 {
		samples = 8
	}
	return func(ctx context.Context, t *core.Tuner, emit func(jobs.Round)) (string, error) {
		var out string
		err := t.RunContext(ctx, func(p *core.P) error {
			spec := core.RegionSpec{
				Name:    "synthetic",
				Samples: samples,
				Score:   func(sp *core.SP) float64 { return sp.MustGet("y").(float64) },
			}
			for r := 0; r < rounds; r++ {
				res, err := p.Region(spec, func(sp *core.SP) error {
					x := sp.Float("x", dist.Uniform(0, 1))
					sp.Work(0.0625)
					sp.Commit("y", x*(2-x)) // optimum at x=1
					return nil
				})
				if err != nil {
					return err
				}
				out += fmt.Sprintf("r%d best=%.6f\n", r, res.BestScore())
				emit(jobs.Round{Region: "synthetic", Score: res.BestScore()})
			}
			return nil
		})
		if err != nil {
			return "", err
		}
		return out, nil
	}, nil
}
