package bench

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/canny"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/img"
	"repro/internal/jobs"
)

// RegisterPrograms installs the benchmark-backed service programs a wbtuned
// server offers, each Table I program under its ServiceName:
//
//	canny      the paper's Fig. 4 pipeline over a generated scene
//	           (args: scene, stage1, stage2), one round per region
//	watershed  ... through ardupilot: the other 12 Table I programs as
//	           Table I runs them (no args), one final round
//	synthetic  a cheap one-region tuning loop for smoke tests and demos
//	           (args: rounds, samples)
//
// Every program's result string is a deterministic function of the spec and
// seed, which is what lets the control plane byte-compare an HTTP-submitted
// run against jobs.RunDirect.
func RegisterPrograms(reg *jobs.Registry) {
	for _, b := range All() {
		if _, ok := b.(CannyBench); ok {
			reg.Register(ServiceName(b), cannyProgram)
		} else {
			reg.Register(ServiceName(b), tableProgram(b))
		}
	}
	reg.Register("synthetic", syntheticProgram)
}

// ServiceName is the program name b is registered under: its Table I name
// lower-cased, with everything but letters and digits dropped ("Face Rec"
// is facerec, "C4.5" is c45).
func ServiceName(b Benchmark) string {
	return strings.Map(func(r rune) rune {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			return unicode.ToLower(r)
		}
		return -1
	}, b.Name())
}

// jsonScore maps a best score that is not a JSON number (NaN from a region
// without a score function, -Inf from an empty traversal) to 0 for a Round.
func jsonScore(s float64) float64 {
	if math.IsNaN(s) || math.IsInf(s, 0) {
		return 0
	}
	return s
}

// tableProgram serves b.Tune as a job: the manager owns the Tuner (built
// from the spec), one round reports the tuned score, and the result string
// summarizes the outcome.
func tableProgram(b Benchmark) jobs.Factory {
	name := ServiceName(b)
	return func(spec core.JobSpec) (jobs.RunFunc, error) {
		if len(spec.Args) > 0 {
			return nil, fmt.Errorf("%w: program %q takes no args", core.ErrSpecInvalid, name)
		}
		return func(ctx context.Context, t *core.Tuner, emit func(jobs.Round)) (string, error) {
			out, err := b.Tune(ctx, t, spec.Seed)
			if err != nil {
				return "", err
			}
			emit(jobs.Round{Region: name, Score: jsonScore(out.Score)})
			return fmt.Sprintf("%s seed=%d score=%.6f work=%.4f samples=%d\n",
				name, spec.Seed, out.Score, out.Work, out.Samples), nil
		}, nil
	}
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
				// judged by the aggregation callback instead).
				emit(jobs.Round{Region: region, Score: jsonScore(best)})
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
