package bench

import (
	"context"
	"math"

	"repro/internal/c45"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/metis"
	"repro/internal/opentuner"
	"repro/internal/svm"
)

// MetisBench tunes the graph partitioner (3 params; score = edge cut).
type MetisBench struct{}

// Name implements Benchmark.
func (MetisBench) Name() string { return "METIS" }

// HigherIsBetter implements Benchmark.
func (MetisBench) HigherIsBetter() bool { return false }

// ParamCount implements Benchmark.
func (MetisBench) ParamCount() int { return 3 }

// SamplingName implements Benchmark.
func (MetisBench) SamplingName() string { return "RAND" }

// AggName implements Benchmark.
func (MetisBench) AggName() string { return "MAX" }

const (
	metisLoad   = 10.0
	metisNParts = 4
)

var (
	meImb    = dist.Uniform(1.0, 1.3)
	meRefine = dist.IntRange(0, 12)
	meGreed  = dist.Uniform(0, 1)
)

func meGraph(seed int64) metis.Graph {
	g, _ := metis.Gen(seed, metisNParts, 24, 0.35, 0.02)
	return g
}

// Native implements Benchmark.
func (MetisBench) Native(seed int64) Outcome {
	g := meGraph(seed)
	part := metis.Partition(g, metisNParts, metis.DefaultParams(), seed)
	w := metisLoad + metis.WorkPerPartition
	return Outcome{Score: float64(metis.Cut(g, part)), Work: w, WorkSerial: w, Samples: 1}
}

// WBTune implements Benchmark.
func (b MetisBench) WBTune(seed int64, budget float64) Outcome { return wbTune(b, seed, budget) }

// Tune implements Benchmark.
func (MetisBench) Tune(ctx context.Context, t *core.Tuner, seed int64) (Outcome, error) {
	g := meGraph(seed)
	best := math.NaN()
	err := t.RunContext(ctx, func(p *core.P) error {
		p.Work(metisLoad) // graph loading, once
		res, err := p.Region(core.RegionSpec{
			Name: "metis", Samples: 20, Minimize: true,
			Score: func(sp *core.SP) float64 {
				v, _ := sp.Get("cut")
				return v.(float64)
			},
		}, func(sp *core.SP) error {
			prm := metis.Params{
				Imbalance: sp.Float("imbalance", meImb),
				Refine:    sp.Int("refine", meRefine),
				Greed:     sp.Float("greed", meGreed),
			}
			sp.Work(metis.WorkPerPartition)
			part := metis.Partition(g, metisNParts, prm, seed+int64(sp.Index()))
			sp.Commit("cut", float64(metis.Cut(g, part)))
			return nil
		})
		if err != nil {
			return err
		}
		best = res.BestScore()
		return nil
	})
	out := tunedOutcome(t)
	out.Score, out.Internal = best, best
	return out, err
}

// OTTune implements Benchmark.
func (MetisBench) OTTune(seed int64, budget float64) Outcome {
	g := meGraph(seed)
	wc := &workCounter{budget: budget}
	evals := 0
	obj := func(cfg map[string]float64) (float64, any) {
		wc.add(metisLoad + metis.WorkPerPartition)
		evals++
		prm := metis.Params{
			Imbalance: cfg["imbalance"], Refine: int(cfg["refine"]), Greed: cfg["greed"],
		}
		part := metis.Partition(g, metisNParts, prm, seed+int64(evals))
		return float64(metis.Cut(g, part)), nil
	}
	tu := opentuner.New(opentuner.Space{
		{Name: "imbalance", D: meImb}, {Name: "refine", D: meRefine}, {Name: "greed", D: meGreed},
	}, obj, opentuner.Options{
		Seed: seed, Minimize: true, Stop: wc.exceeded, MaxEvals: 100000,
		InitialConfig: map[string]float64{"imbalance": 1.03, "refine": 0, "greed": 0},
	})
	best := tu.Run()
	return Outcome{
		Score: best.Score, Internal: best.Score,
		Work: wc.used, WorkSerial: wc.used, Samples: tu.Evals(),
	}
}

// C45Bench tunes the decision tree with RAND sampling plus k-fold
// cross-validation (Table I: RAND+CV, MIN).
type C45Bench struct{}

// Name implements Benchmark.
func (C45Bench) Name() string { return "C4.5" }

// HigherIsBetter implements Benchmark.
func (C45Bench) HigherIsBetter() bool { return false }

// ParamCount implements Benchmark.
func (C45Bench) ParamCount() int { return 2 }

// SamplingName implements Benchmark.
func (C45Bench) SamplingName() string { return "RAND+CV" }

// AggName implements Benchmark.
func (C45Bench) AggName() string { return "MIN" }

var (
	c45Conf  = dist.LogUniform(0.005, 1)
	c45Split = dist.IntRange(2, 40)
)

const c45CVFolds = 3

func c45Data(seed int64) (train, test c45.Dataset) {
	ds := c45.Gen(seed, 360, 6, 4, 0.2)
	half := len(ds.X) / 2
	idxA := make([]int, half)
	idxB := make([]int, len(ds.X)-half)
	for i := range idxA {
		idxA[i] = i
	}
	for i := range idxB {
		idxB[i] = half + i
	}
	return ds.Subset(idxA), ds.Subset(idxB)
}

// c45Folds partitions the training indices into contiguous folds.
func c45Folds(n, k int) [][]int {
	out := make([][]int, k)
	for i := 0; i < n; i++ {
		f := i * k / n
		out[f] = append(out[f], i)
	}
	return out
}

// Native implements Benchmark.
func (C45Bench) Native(seed int64) Outcome {
	train, test := c45Data(seed)
	tree := c45.Train(train, c45.DefaultParams())
	w := c45.WorkLoad + c45.WorkPerTrain
	return Outcome{Score: c45.ErrorRate(tree, test), Work: w, WorkSerial: w, Samples: 1}
}

// WBTune implements Benchmark.
func (b C45Bench) WBTune(seed int64, budget float64) Outcome { return wbTune(b, seed, budget) }

// Tune implements Benchmark: one region with built-in k-fold CV; each SVG
// member trains on k-1 folds and validates on its own.
func (C45Bench) Tune(ctx context.Context, t *core.Tuner, seed int64) (Outcome, error) {
	train, test := c45Data(seed)
	folds := c45Folds(len(train.X), c45CVFolds)
	var best c45.Params
	found := false
	err := t.RunContext(ctx, func(p *core.P) error {
		p.Work(c45.WorkLoad)
		res, err := p.Region(core.RegionSpec{
			Name: "c45", Samples: 12, CV: c45CVFolds, Minimize: true,
			Score: func(sp *core.SP) float64 {
				v, _ := sp.Get("valErr")
				return v.(float64)
			},
		}, func(sp *core.SP) error {
			prm := c45.Params{
				Confidence: sp.Float("confidence", c45Conf),
				MinSplit:   sp.Int("minSplit", c45Split),
			}
			fold, _ := sp.Fold()
			var trIdx []int
			for f, idx := range folds {
				if f != fold {
					trIdx = append(trIdx, idx...)
				}
			}
			sp.Work(c45.WorkPerTrain)
			tree := c45.Train(train.Subset(trIdx), prm)
			sp.Commit("valErr", c45.ErrorRate(tree, train.Subset(folds[fold])))
			return nil
		})
		if err != nil {
			return err
		}
		if i := res.BestIndex(); i >= 0 {
			prm := res.Params(i)
			best = c45.Params{Confidence: prm["confidence"], MinSplit: int(prm["minSplit"])}
			found = true
		}
		return nil
	})
	out := tunedOutcome(t)
	if found {
		tree := c45.Train(train, best)
		out.Score = c45.ErrorRate(tree, test)
	}
	return out, err
}

// OTTune implements Benchmark: the paper implements the same
// cross-validation inside OpenTuner for these two benchmarks, so each full
// execution runs all k folds.
func (C45Bench) OTTune(seed int64, budget float64) Outcome {
	train, test := c45Data(seed)
	folds := c45Folds(len(train.X), c45CVFolds)
	wc := &workCounter{budget: budget}
	obj := func(cfg map[string]float64) (float64, any) {
		prm := c45.Params{Confidence: cfg["confidence"], MinSplit: int(cfg["minSplit"])}
		total := 0.0
		for hold := range folds {
			wc.add(c45.WorkLoad + c45.WorkPerTrain)
			var trIdx []int
			for f, idx := range folds {
				if f != hold {
					trIdx = append(trIdx, idx...)
				}
			}
			tree := c45.Train(train.Subset(trIdx), prm)
			total += c45.ErrorRate(tree, train.Subset(folds[hold]))
		}
		return total / float64(len(folds)), prm
	}
	tu := opentuner.New(opentuner.Space{
		{Name: "confidence", D: c45Conf}, {Name: "minSplit", D: c45Split},
	}, obj, opentuner.Options{
		Seed: seed, Minimize: true, Stop: wc.exceeded, MaxEvals: 100000,
		InitialConfig: map[string]float64{"confidence": 0.25, "minSplit": 2},
	})
	best := tu.Run()
	prm := best.Artifact.(c45.Params)
	tree := c45.Train(train, prm)
	return Outcome{
		Score: c45.ErrorRate(tree, test), Internal: best.Score,
		Work: wc.used, WorkSerial: wc.used, Samples: tu.Evals(),
	}
}

// SVMBench tunes the 8 SVM hyper-parameters with RAND+CV and MIN
// aggregation (Table I).
type SVMBench struct {
	// NoCV disables cross-validation and scores on the training error —
	// the overfitting arm of Fig. 17.
	NoCV bool
}

// Name implements Benchmark.
func (SVMBench) Name() string { return "SVM" }

// HigherIsBetter implements Benchmark.
func (SVMBench) HigherIsBetter() bool { return false }

// ParamCount implements Benchmark.
func (SVMBench) ParamCount() int { return 8 }

// SamplingName implements Benchmark.
func (b SVMBench) SamplingName() string {
	if b.NoCV {
		return "RAND"
	}
	return "RAND+CV"
}

// AggName implements Benchmark.
func (SVMBench) AggName() string { return "MIN" }

const svmCVFolds = 3

func svmSpace() opentuner.Space {
	return opentuner.Space{
		{Name: "lambda", D: dist.LogUniform(1e-7, 1)},
		{Name: "epochs", D: dist.IntRange(5, 80)},
		{Name: "eta0", D: dist.LogUniform(0.01, 2)},
		{Name: "etaDecay", D: dist.Uniform(0.3, 1.2)},
		{Name: "bias", D: dist.Uniform(0, 3)},
		{Name: "margin", D: dist.Uniform(0.2, 3)},
		{Name: "featScale", D: dist.LogUniform(0.1, 10)},
		{Name: "posWeight", D: dist.Uniform(0.3, 3)},
	}
}

func svmParams(cfg map[string]float64) svm.Params {
	return svm.Params{
		Lambda: cfg["lambda"], Epochs: int(cfg["epochs"]),
		Eta0: cfg["eta0"], EtaDecay: cfg["etaDecay"],
		Bias: cfg["bias"], Margin: cfg["margin"],
		FeatScale: cfg["featScale"], PosWeight: cfg["posWeight"],
	}
}

func svmData(seed int64) (train, test svm.Dataset) {
	ds := svm.Gen(seed, 120, 60, 3, 0.12)
	return ds.Split()
}

// Native implements Benchmark.
func (SVMBench) Native(seed int64) Outcome {
	train, test := svmData(seed)
	m := svm.Train(train, svm.DefaultParams(), seed)
	w := svm.WorkLoad + svm.WorkPerTrain
	return Outcome{Score: svm.ErrorRate(m, test), Work: w, WorkSerial: w, Samples: 1}
}

// TrainTestErrors tunes and reports both train and test error of the
// selected configuration — the Fig. 17 bars.
func (b SVMBench) TrainTestErrors(seed int64, budget float64) (trainErr, testErr float64) {
	train, test := svmData(seed)
	// A run error already excluded its samples from the selection.
	prm, ok, _ := b.tune(context.Background(), standardTuner(seed, budget), seed, train)
	if !ok {
		return math.NaN(), math.NaN()
	}
	m := svm.Train(train, prm, seed)
	return svm.ErrorRate(m, train), svm.ErrorRate(m, test)
}

// tune runs the white-box region on t and returns the selected params,
// whether any were selected, and the run error.
func (b SVMBench) tune(ctx context.Context, t *core.Tuner, seed int64, train svm.Dataset) (svm.Params, bool, error) {
	folds := svm.Folds(len(train.X), svmCVFolds)
	var best svm.Params
	found := false
	err := t.RunContext(ctx, func(p *core.P) error {
		p.Work(svm.WorkLoad)
		spec := core.RegionSpec{
			Name: "svm", Samples: 12, Minimize: true,
			Score: func(sp *core.SP) float64 {
				v, _ := sp.Get("err")
				return v.(float64)
			},
		}
		if !b.NoCV {
			spec.CV = svmCVFolds
		}
		res, err := p.Region(spec, func(sp *core.SP) error {
			cfg := map[string]float64{}
			for _, prm := range svmSpace() {
				cfg[prm.Name] = sp.Float(prm.Name, prm.D)
			}
			prm := svmParams(cfg)
			sp.Work(svm.WorkPerTrain)
			if b.NoCV {
				// Overfitting arm: score on the training error itself.
				m := svm.Train(train, prm, seed)
				sp.Commit("err", svm.ErrorRate(m, train))
				return nil
			}
			fold, _ := sp.Fold()
			sp.Commit("err", svm.TrainFold(train, prm, folds, fold, seed))
			return nil
		})
		if err != nil {
			return err
		}
		if i := res.BestIndex(); i >= 0 {
			best = svmParams(res.Params(i))
			found = true
		}
		return nil
	})
	return best, found, err
}

// WBTune implements Benchmark.
func (b SVMBench) WBTune(seed int64, budget float64) Outcome { return wbTune(b, seed, budget) }

// Tune implements Benchmark.
func (b SVMBench) Tune(ctx context.Context, t *core.Tuner, seed int64) (Outcome, error) {
	train, test := svmData(seed)
	best, found, err := b.tune(ctx, t, seed, train)
	out := tunedOutcome(t)
	if found {
		model := svm.Train(train, best, seed)
		out.Score = svm.ErrorRate(model, test)
	}
	return out, err
}

// OTTune implements Benchmark: cross-validation implemented inside the
// objective, as the paper's extended OpenTuner does.
func (b SVMBench) OTTune(seed int64, budget float64) Outcome {
	train, test := svmData(seed)
	folds := svm.Folds(len(train.X), svmCVFolds)
	wc := &workCounter{budget: budget}
	obj := func(cfg map[string]float64) (float64, any) {
		prm := svmParams(cfg)
		if b.NoCV {
			wc.add(svm.WorkLoad + svm.WorkPerTrain)
			m := svm.Train(train, prm, seed)
			return svm.ErrorRate(m, train), prm
		}
		total := 0.0
		for hold := range folds {
			wc.add(svm.WorkLoad + svm.WorkPerTrain)
			total += svm.TrainFold(train, prm, folds, hold, seed)
		}
		return total / float64(len(folds)), prm
	}
	tu := opentuner.New(svmSpace(), obj, opentuner.Options{
		Seed: seed, Minimize: true, Stop: wc.exceeded, MaxEvals: 100000,
		InitialConfig: map[string]float64{
			"lambda": 1e-4, "epochs": 20, "eta0": 0.5, "etaDecay": 1,
			"bias": 1, "margin": 1, "featScale": 1, "posWeight": 1,
		},
	})
	best := tu.Run()
	prm := best.Artifact.(svm.Params)
	model := svm.Train(train, prm, seed)
	return Outcome{
		Score: svm.ErrorRate(model, test), Internal: best.Score,
		Work: wc.used, WorkSerial: wc.used, Samples: tu.Evals(),
	}
}
