package bench

import (
	"context"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/facerec"
	"repro/internal/opentuner"
)

// FaceRecBench tunes the subspace recognizer (3 params, MIN aggregation on
// the validation error). Tuning scores against a labelled validation probe
// split; the table's quality score uses the disjoint test probes.
type FaceRecBench struct{}

// Name implements Benchmark.
func (FaceRecBench) Name() string { return "Face Rec" }

// HigherIsBetter implements Benchmark.
func (FaceRecBench) HigherIsBetter() bool { return false }

// ParamCount implements Benchmark.
func (FaceRecBench) ParamCount() int { return 3 }

// SamplingName implements Benchmark.
func (FaceRecBench) SamplingName() string { return "RAND" }

// AggName implements Benchmark.
func (FaceRecBench) AggName() string { return "MIN" }

var (
	frComponents = dist.IntRange(2, 32)
	frExponent   = dist.Uniform(0.5, 4)
	frThreshold  = dist.LogUniform(0.5, 50)
)

// frData holds the tuning (validation) and reporting (test) workloads,
// generated from disjoint sub-seeds of the same subjects seed.
type frData struct {
	val, test facerec.Dataset
}

func frDatasets(seed int64) frData {
	return frData{
		val:  facerec.Gen(seed, 10, 32, 4, 0.2),
		test: facerec.Gen(seed+777, 10, 32, 4, 0.2),
	}
}

// Native implements Benchmark.
func (FaceRecBench) Native(seed int64) Outcome {
	d := frDatasets(seed)
	m := facerec.Train(d.test, facerec.DefaultParams())
	w := facerec.WorkTrain + float64(len(d.test.Probes))*facerec.WorkPerProbe
	return Outcome{Score: facerec.Error(d.test, m), Work: w, WorkSerial: w, Samples: 1}
}

func frParams(sp *core.SP) facerec.Params {
	return facerec.Params{
		Components: sp.Int("components", frComponents),
		Exponent:   sp.Float("exponent", frExponent),
		Threshold:  sp.Float("threshold", frThreshold),
	}
}

// WBTune implements Benchmark.
func (b FaceRecBench) WBTune(seed int64, budget float64) Outcome { return wbTune(b, seed, budget) }

// Tune implements Benchmark: the expensive gallery preprocessing is done
// once; each sample trains a candidate model and validates it.
func (FaceRecBench) Tune(ctx context.Context, t *core.Tuner, seed int64) (Outcome, error) {
	d := frDatasets(seed)
	var best facerec.Params
	found := false
	err := t.RunContext(ctx, func(p *core.P) error {
		p.Work(facerec.WorkTrain) // gallery load + statistics, reused
		res, err := p.Region(core.RegionSpec{
			Name: "facerec", Samples: 24, Minimize: true,
			Score: func(sp *core.SP) float64 {
				v, _ := sp.Get("err")
				return v.(float64)
			},
		}, func(sp *core.SP) error {
			prm := frParams(sp)
			sp.Work(float64(len(d.val.Probes)) * facerec.WorkPerProbe)
			m := facerec.Train(d.val, prm)
			sp.Commit("err", facerec.Error(d.val, m))
			return nil
		})
		if err != nil {
			return err
		}
		if i := res.BestIndex(); i >= 0 {
			prm := res.Params(i)
			best = facerec.Params{
				Components: int(prm["components"]),
				Exponent:   prm["exponent"],
				Threshold:  prm["threshold"],
			}
			found = true
		}
		return nil
	})
	out := tunedOutcome(t)
	if found {
		model := facerec.Train(d.test, best)
		out.Score = facerec.Error(d.test, model)
		out.Internal = out.Score
	}
	return out, err
}

// OTTune implements Benchmark.
func (FaceRecBench) OTTune(seed int64, budget float64) Outcome {
	d := frDatasets(seed)
	wc := &workCounter{budget: budget}
	obj := func(cfg map[string]float64) (float64, any) {
		wc.add(facerec.WorkTrain + float64(len(d.val.Probes))*facerec.WorkPerProbe)
		prm := facerec.Params{
			Components: int(cfg["components"]),
			Exponent:   cfg["exponent"],
			Threshold:  cfg["threshold"],
		}
		return facerec.Error(d.val, facerec.Train(d.val, prm)), prm
	}
	tu := opentuner.New(opentuner.Space{
		{Name: "components", D: frComponents},
		{Name: "exponent", D: frExponent},
		{Name: "threshold", D: frThreshold},
	}, obj, opentuner.Options{
		Seed: seed, Minimize: true, Stop: wc.exceeded, MaxEvals: 100000,
		InitialConfig: map[string]float64{"components": 8, "exponent": 2, "threshold": 50},
	})
	best := tu.Run()
	prm := best.Artifact.(facerec.Params)
	return Outcome{
		Score: facerec.Error(d.test, facerec.Train(d.test, prm)), Internal: best.Score,
		Work: wc.used, WorkSerial: wc.used, Samples: tu.Evals(),
	}
}
