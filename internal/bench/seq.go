package bench

import (
	"context"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fasta"
	"repro/internal/opentuner"
	"repro/internal/topn"
)

// FastaBench tunes the gap penalties of local alignment; the custom
// aggregation keeps the hit set with the best separation.
type FastaBench struct{}

// Name implements Benchmark.
func (FastaBench) Name() string { return "FASTA" }

// HigherIsBetter implements Benchmark.
func (FastaBench) HigherIsBetter() bool { return true }

// ParamCount implements Benchmark.
func (FastaBench) ParamCount() int { return 2 }

// SamplingName implements Benchmark.
func (FastaBench) SamplingName() string { return "RAND" }

// AggName implements Benchmark.
func (FastaBench) AggName() string { return "CUSTOM" }

var (
	faOpen   = dist.Uniform(0, 12)
	faExtend = dist.Uniform(0, 4)
)

func faDataset(seed int64) fasta.Dataset { return fasta.Gen(seed, 64, 16) }

func faWorkPerScan(ds fasta.Dataset) float64 {
	return float64(len(ds.DB)) * fasta.WorkPerAlign
}

// Native implements Benchmark.
func (FastaBench) Native(seed int64) Outcome {
	ds := faDataset(seed)
	hits := fasta.Search(ds, fasta.DefaultParams())
	w := fasta.WorkLoad + faWorkPerScan(ds)
	return Outcome{
		Score: fasta.Quality(ds, hits), Internal: fasta.Separation(hits),
		Work: w, WorkSerial: w, Samples: 1,
	}
}

// WBTune implements Benchmark.
func (b FastaBench) WBTune(seed int64, budget float64) Outcome { return wbTune(b, seed, budget) }

// Tune implements Benchmark: database loading/indexing happens once; each
// sample scans with its gap penalties; the custom aggregation keeps the
// best-separated hit list.
func (FastaBench) Tune(ctx context.Context, t *core.Tuner, seed int64) (Outcome, error) {
	ds := faDataset(seed)
	var bestHits []fasta.Hit
	err := t.RunContext(ctx, func(p *core.P) error {
		p.Work(fasta.WorkLoad)
		res, err := p.Region(core.RegionSpec{
			Name: "align", Samples: 16,
			Score: func(sp *core.SP) float64 {
				v, _ := sp.Get("sep")
				return v.(float64)
			},
		}, func(sp *core.SP) error {
			prm := fasta.Params{
				GapOpen:   sp.Float("gapOpen", faOpen),
				GapExtend: sp.Float("gapExtend", faExtend),
			}
			sp.Work(faWorkPerScan(ds))
			hits := fasta.Search(ds, prm)
			sp.Commit("sep", fasta.Separation(hits))
			sp.Commit("hits", hits)
			return nil
		})
		if err != nil {
			return err
		}
		if i := res.BestIndex(); i >= 0 {
			bestHits = res.MustValue("hits", i).([]fasta.Hit)
		}
		return nil
	})
	out := tunedOutcome(t)
	if bestHits != nil {
		out.Score = fasta.Quality(ds, bestHits)
		out.Internal = fasta.Separation(bestHits)
	}
	return out, err
}

// OTTune implements Benchmark.
func (FastaBench) OTTune(seed int64, budget float64) Outcome {
	ds := faDataset(seed)
	wc := &workCounter{budget: budget}
	obj := func(cfg map[string]float64) (float64, any) {
		wc.add(fasta.WorkLoad + faWorkPerScan(ds))
		hits := fasta.Search(ds, fasta.Params{GapOpen: cfg["gapOpen"], GapExtend: cfg["gapExtend"]})
		return fasta.Separation(hits), hits
	}
	tu := opentuner.New(opentuner.Space{
		{Name: "gapOpen", D: faOpen}, {Name: "gapExtend", D: faExtend},
	}, obj, opentuner.Options{
		Seed: seed, Stop: wc.exceeded, MaxEvals: 100000,
		InitialConfig: map[string]float64{"gapOpen": 10, "gapExtend": 4},
	})
	best := tu.Run()
	hits := best.Artifact.([]fasta.Hit)
	return Outcome{
		Score: fasta.Quality(ds, hits), Internal: best.Score,
		Work: wc.used, WorkSerial: wc.used, Samples: tu.Evals(),
	}
}

// TopNBench tunes the item-kNN recommender (3 params, MAX on the
// validation hit rate); the expensive co-occurrence counting is reused.
type TopNBench struct{}

// Name implements Benchmark.
func (TopNBench) Name() string { return "TOPN Rec" }

// HigherIsBetter implements Benchmark.
func (TopNBench) HigherIsBetter() bool { return true }

// ParamCount implements Benchmark.
func (TopNBench) ParamCount() int { return 3 }

// SamplingName implements Benchmark.
func (TopNBench) SamplingName() string { return "RAND" }

// AggName implements Benchmark.
func (TopNBench) AggName() string { return "MAX" }

var (
	tnK      = dist.IntRange(1, 40)
	tnShrink = dist.Uniform(0, 30)
	tnAlpha  = dist.Uniform(0, 1)
)

func tnDataset(seed int64) topn.Dataset { return topn.Gen(seed, 120, 40, 4) }

func tnWorkPerBuild(ds topn.Dataset) float64 {
	return float64(ds.Users) * topn.WorkPerUser
}

// Native implements Benchmark.
func (TopNBench) Native(seed int64) Outcome {
	ds := tnDataset(seed)
	m := topn.Train(ds, topn.DefaultParams())
	w := topn.WorkModel + tnWorkPerBuild(ds)
	return Outcome{
		Score: topn.HitRate(ds, m, ds.Test), Internal: topn.HitRate(ds, m, ds.Validate),
		Work: w, WorkSerial: w, Samples: 1,
	}
}

// WBTune implements Benchmark.
func (b TopNBench) WBTune(seed int64, budget float64) Outcome { return wbTune(b, seed, budget) }

// Tune implements Benchmark.
func (TopNBench) Tune(ctx context.Context, t *core.Tuner, seed int64) (Outcome, error) {
	ds := tnDataset(seed)
	var best *topn.Model
	err := t.RunContext(ctx, func(p *core.P) error {
		p.Work(topn.WorkModel) // co-occurrence counting, once
		counts := topn.CountCooccur(ds)
		res, err := p.Region(core.RegionSpec{
			Name: "topn", Samples: 20,
			Score: func(sp *core.SP) float64 {
				v, _ := sp.Get("hr")
				return v.(float64)
			},
		}, func(sp *core.SP) error {
			prm := topn.Params{
				K:      sp.Int("k", tnK),
				Shrink: sp.Float("shrink", tnShrink),
				Alpha:  sp.Float("alpha", tnAlpha),
			}
			sp.Work(tnWorkPerBuild(ds))
			m := topn.BuildModel(counts, ds, prm)
			sp.Commit("hr", topn.HitRate(ds, m, ds.Validate))
			sp.Commit("model", m)
			return nil
		})
		if err != nil {
			return err
		}
		if i := res.BestIndex(); i >= 0 {
			best = res.MustValue("model", i).(*topn.Model)
		}
		return nil
	})
	out := tunedOutcome(t)
	if best != nil {
		out.Score = topn.HitRate(ds, best, ds.Test)
		out.Internal = topn.HitRate(ds, best, ds.Validate)
	}
	return out, err
}

// OTTune implements Benchmark: every sample repays the co-occurrence
// counting inside its full execution.
func (TopNBench) OTTune(seed int64, budget float64) Outcome {
	ds := tnDataset(seed)
	wc := &workCounter{budget: budget}
	obj := func(cfg map[string]float64) (float64, any) {
		wc.add(topn.WorkModel + tnWorkPerBuild(ds))
		m := topn.Train(ds, topn.Params{
			K: int(cfg["k"]), Shrink: cfg["shrink"], Alpha: cfg["alpha"],
		})
		return topn.HitRate(ds, m, ds.Validate), m
	}
	tu := opentuner.New(opentuner.Space{
		{Name: "k", D: tnK}, {Name: "shrink", D: tnShrink}, {Name: "alpha", D: tnAlpha},
	}, obj, opentuner.Options{
		Seed: seed, Stop: wc.exceeded, MaxEvals: 100000,
		InitialConfig: map[string]float64{"k": 40, "shrink": 0, "alpha": 0},
	})
	best := tu.Run()
	m := best.Artifact.(*topn.Model)
	return Outcome{
		Score: topn.HitRate(ds, m, ds.Test), Internal: best.Score,
		Work: wc.used, WorkSerial: wc.used, Samples: tu.Evals(),
	}
}
