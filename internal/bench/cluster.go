package bench

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/dbscan"
	"repro/internal/dist"
	"repro/internal/kmeans"
	"repro/internal/opentuner"
	"repro/internal/points"
	"repro/internal/strategy"
)

// KmeansBench tunes K with MCMC sampling and MAX aggregation over the
// silhouette score; the @check primitive prunes degenerate runs
// mid-iteration (Sec. V-B3).
type KmeansBench struct{}

// Name implements Benchmark.
func (KmeansBench) Name() string { return "Kmeans" }

// HigherIsBetter implements Benchmark.
func (KmeansBench) HigherIsBetter() bool { return true }

// ParamCount implements Benchmark.
func (KmeansBench) ParamCount() int { return 1 }

// SamplingName implements Benchmark.
func (KmeansBench) SamplingName() string { return "MCMC" }

// AggName implements Benchmark.
func (KmeansBench) AggName() string { return "MAX" }

const (
	kmLoad    = 30.0
	kmMaxIter = 40
)

func kmDataset(seed int64) points.Dataset { return points.Gen(seed, 150, 5, 3, 0.05) }

var kmK = dist.IntRange(2, 12)

// Native implements Benchmark: the common default K=8 guess.
func (KmeansBench) Native(seed int64) Outcome {
	ds := kmDataset(seed)
	s := kmeans.Run(ds.Points, 8, seed, kmMaxIter)
	w := kmLoad + kmMaxIter*kmeans.WorkPerIter
	return Outcome{
		Score: kmeans.Quality(s, ds.Labels), Internal: kmeans.Score(s),
		Work: w, WorkSerial: w, Samples: 1,
	}
}

// WBTune implements Benchmark.
func (b KmeansBench) WBTune(seed int64, budget float64) Outcome { return wbTune(b, seed, budget) }

// Tune implements Benchmark.
func (KmeansBench) Tune(ctx context.Context, t *core.Tuner, seed int64) (Outcome, error) {
	ds := kmDataset(seed)
	var bestState *kmeans.State
	err := t.RunContext(ctx, func(p *core.P) error {
		p.Work(kmLoad)
		res, err := p.Region(core.RegionSpec{
			Name: "kmeans", Samples: 20,
			Strategy: strategy.MCMC(strategy.MCMCOptions{}),
			Score: func(sp *core.SP) float64 {
				v, ok := sp.Get("sil")
				if !ok {
					return math.NaN()
				}
				return v.(float64)
			},
		}, func(sp *core.SP) error {
			k := sp.Int("k", kmK)
			st := kmeans.Init(ds.Points, k, seed)
			for it := 0; it < kmMaxIter; it++ {
				sp.Work(kmeans.WorkPerIter)
				if !st.Step() {
					break
				}
				if it == 2 {
					// @check: terminate degenerate runs long before the
					// aggregation point.
					sp.Check(st.Healthy())
				}
			}
			sp.Commit("sil", kmeans.Score(st))
			sp.Commit("state", st)
			return nil
		})
		if err != nil {
			return err
		}
		if i := res.BestIndex(); i >= 0 {
			bestState = res.MustValue("state", i).(*kmeans.State)
		}
		return nil
	})
	out := tunedOutcome(t)
	if bestState != nil {
		out.Score = kmeans.Quality(bestState, ds.Labels)
		out.Internal = kmeans.Score(bestState)
	}
	return out, err
}

// OTTune implements Benchmark: every sample repays loading and never
// prunes mid-run.
func (KmeansBench) OTTune(seed int64, budget float64) Outcome {
	ds := kmDataset(seed)
	wc := &workCounter{budget: budget}
	obj := func(cfg map[string]float64) (float64, any) {
		wc.add(kmLoad + kmMaxIter*kmeans.WorkPerIter)
		st := kmeans.Run(ds.Points, int(cfg["k"]), seed, kmMaxIter)
		return kmeans.Score(st), st
	}
	tu := opentuner.New(opentuner.Space{{Name: "k", D: kmK}}, obj, opentuner.Options{
		Seed: seed, Stop: wc.exceeded, MaxEvals: 100000,
		InitialConfig: map[string]float64{"k": 8},
	})
	best := tu.Run()
	st := best.Artifact.(*kmeans.State)
	return Outcome{
		Score: kmeans.Quality(st, ds.Labels), Internal: best.Score,
		Work: wc.used, WorkSerial: wc.used, Samples: tu.Evals(),
	}
}

// DBScanBench tunes eps and minPts with MCMC and MAX aggregation.
type DBScanBench struct{}

// Name implements Benchmark.
func (DBScanBench) Name() string { return "DBScan" }

// HigherIsBetter implements Benchmark.
func (DBScanBench) HigherIsBetter() bool { return true }

// ParamCount implements Benchmark.
func (DBScanBench) ParamCount() int { return 2 }

// SamplingName implements Benchmark.
func (DBScanBench) SamplingName() string { return "MCMC" }

// AggName implements Benchmark.
func (DBScanBench) AggName() string { return "MAX" }

const dbLoad = 15.0

func dbDataset(seed int64) points.Dataset { return points.Gen(seed, 140, 4, 3, 0.15) }

var (
	dbEps    = dist.Uniform(0.1, 5)
	dbMinPts = dist.IntRange(2, 12)
)

// Native implements Benchmark.
func (DBScanBench) Native(seed int64) Outcome {
	ds := dbDataset(seed)
	labels := dbscan.Run(ds.Points, dbscan.Params{Eps: 0.5, MinPts: 5})
	w := dbLoad + float64(len(ds.Points))*dbscan.WorkPerPoint
	return Outcome{
		Score: dbscan.Quality(labels, ds.Labels), Internal: dbscan.Score(ds.Points, labels),
		Work: w, WorkSerial: w, Samples: 1,
	}
}

// WBTune implements Benchmark.
func (b DBScanBench) WBTune(seed int64, budget float64) Outcome { return wbTune(b, seed, budget) }

// Tune implements Benchmark.
func (DBScanBench) Tune(ctx context.Context, t *core.Tuner, seed int64) (Outcome, error) {
	ds := dbDataset(seed)
	var bestLabels []int
	err := t.RunContext(ctx, func(p *core.P) error {
		p.Work(dbLoad)
		res, err := p.Region(core.RegionSpec{
			Name: "dbscan", Samples: 20,
			Strategy: strategy.MCMC(strategy.MCMCOptions{}),
			Score: func(sp *core.SP) float64 {
				v, ok := sp.Get("score")
				if !ok {
					return math.NaN()
				}
				return v.(float64)
			},
		}, func(sp *core.SP) error {
			prm := dbscan.Params{
				Eps:    sp.Float("eps", dbEps),
				MinPts: sp.Int("minPts", dbMinPts),
			}
			sp.Work(float64(len(ds.Points)) * dbscan.WorkPerPoint)
			labels := dbscan.Run(ds.Points, prm)
			// @check: a labelling with no clusters at all is useless.
			sp.Check(dbscan.NumClusters(labels) >= 1)
			sp.Commit("score", dbscan.Score(ds.Points, labels))
			sp.Commit("labels", labels)
			return nil
		})
		if err != nil {
			return err
		}
		if i := res.BestIndex(); i >= 0 {
			bestLabels = res.MustValue("labels", i).([]int)
		}
		return nil
	})
	out := tunedOutcome(t)
	if bestLabels != nil {
		out.Score = dbscan.Quality(bestLabels, ds.Labels)
		out.Internal = dbscan.Score(ds.Points, bestLabels)
	}
	return out, err
}

// OTTune implements Benchmark.
func (DBScanBench) OTTune(seed int64, budget float64) Outcome {
	ds := dbDataset(seed)
	wc := &workCounter{budget: budget}
	obj := func(cfg map[string]float64) (float64, any) {
		wc.add(dbLoad + float64(len(ds.Points))*dbscan.WorkPerPoint)
		labels := dbscan.Run(ds.Points, dbscan.Params{
			Eps: cfg["eps"], MinPts: int(cfg["minPts"]),
		})
		return dbscan.Score(ds.Points, labels), labels
	}
	tu := opentuner.New(opentuner.Space{
		{Name: "eps", D: dbEps}, {Name: "minPts", D: dbMinPts},
	}, obj, opentuner.Options{
		Seed: seed, Stop: wc.exceeded, MaxEvals: 100000,
		InitialConfig: map[string]float64{"eps": 0.5, "minPts": 5},
	})
	best := tu.Run()
	labels := best.Artifact.([]int)
	return Outcome{
		Score: dbscan.Quality(labels, ds.Labels), Internal: best.Score,
		Work: wc.used, WorkSerial: wc.used, Samples: tu.Evals(),
	}
}
