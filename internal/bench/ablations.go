package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/kmeans"
	"repro/internal/points"
	"repro/internal/strategy"
	"repro/internal/svm"
)

// StrategyAblationRow compares sampling strategies on the same region
// under the same budget (the RAND vs MCMC design choice of Sec. IV-C).
type StrategyAblationRow struct {
	Benchmark string
	Strategy  string
	Score     float64 // external quality of the selected configuration
	Samples   int
}

// StrategyAblation tunes K-means' K with RAND and with MCMC over several
// feedback rounds; MCMC should concentrate sampling and find at least as
// good a K with the same sample count.
func StrategyAblation(seed int64) []StrategyAblationRow {
	var rows []StrategyAblationRow
	ds := points.Gen(seed, 150, 5, 3, 0.05)
	for _, st := range []strategy.Strategy{strategy.Rand(), strategy.MCMC(strategy.MCMCOptions{})} {
		t := core.New(core.Options{Seed: seed, MaxPool: 8})
		var best *kmeans.State
		bestScore := math.Inf(-1)
		_ = t.Run(func(p *core.P) error {
			for round := 0; round < 4; round++ { // same-named region shares feedback
				res, err := p.Region(core.RegionSpec{
					Name: "ablate-k", Samples: 10, Strategy: st,
					Score: func(sp *core.SP) float64 {
						v, _ := sp.Get("sil")
						return v.(float64)
					},
				}, func(sp *core.SP) error {
					k := sp.Int("k", dist.IntRange(2, 14))
					stt := kmeans.Run(ds.Points, k, seed, 40)
					sp.Work(1)
					sp.Commit("sil", kmeans.Score(stt))
					sp.Commit("state", stt)
					return nil
				})
				if err != nil {
					return err
				}
				if i := res.BestIndex(); i >= 0 && res.Score(i) > bestScore {
					bestScore = res.Score(i)
					best = res.MustValue("state", i).(*kmeans.State)
				}
			}
			return nil
		})
		row := StrategyAblationRow{
			Benchmark: "Kmeans", Strategy: st.Name(),
			Samples: int(t.Metrics().Samples),
		}
		if best != nil {
			row.Score = kmeans.Quality(best, ds.Labels)
		}
		rows = append(rows, row)
	}
	return rows
}

// CVAblationRow reports SVM test error for one cross-validation setting.
type CVAblationRow struct {
	K        int // 0 = no cross-validation
	TrainErr float64
	TestErr  float64
}

// CVAblation sweeps the cross-validation fold count on the SVM benchmark,
// extending Fig. 17's with/without comparison to the k choice itself.
func CVAblation(seed int64) []CVAblationRow {
	var rows []CVAblationRow
	noTr, noTe := SVMBench{NoCV: true}.TrainTestErrors(seed, 0)
	rows = append(rows, CVAblationRow{K: 0, TrainErr: noTr, TestErr: noTe})
	for _, k := range []int{2, 3, 5} {
		train, test := svmData(seed)
		t := core.New(core.Options{Seed: seed, MaxPool: 8})
		folds := svm.Folds(len(train.X), k)
		var best svm.Params
		found := false
		_ = t.Run(func(p *core.P) error {
			res, err := p.Region(core.RegionSpec{
				Name: "svm-cv", Samples: 12, CV: k, Minimize: true,
				Score: func(sp *core.SP) float64 {
					v, _ := sp.Get("err")
					return v.(float64)
				},
			}, func(sp *core.SP) error {
				cfg := map[string]float64{}
				for _, prm := range svmSpace() {
					cfg[prm.Name] = sp.Float(prm.Name, prm.D)
				}
				fold, _ := sp.Fold()
				sp.Work(svm.WorkPerTrain)
				sp.Commit("err", svm.TrainFold(train, svmParams(cfg), folds, fold, seed))
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
		row := CVAblationRow{K: k, TrainErr: math.NaN(), TestErr: math.NaN()}
		if found {
			m := svm.Train(train, best, seed)
			row.TrainErr = svm.ErrorRate(m, train)
			row.TestErr = svm.ErrorRate(m, test)
		}
		rows = append(rows, row)
	}
	return rows
}

// PoolAblationRow reports the effect of the scheduler pool size.
type PoolAblationRow struct {
	Pool          int
	ElapsedMS     float64
	PeakProcesses int
}

// PoolAblation sweeps the Algorithm 1 pool size on the Canny workload.
func PoolAblation(seed int64) []PoolAblationRow {
	var rows []PoolAblationRow
	for _, pool := range []int{1, 2, 4, 8, 16} {
		t := core.New(core.Options{Seed: seed, MaxPool: pool})
		start := time.Now()
		CannyBench{}.Tune(context.Background(), t, seed) // the row measures time and occupancy
		rows = append(rows, PoolAblationRow{
			Pool:          pool,
			ElapsedMS:     float64(time.Since(start).Microseconds()) / 1000,
			PeakProcesses: t.Metrics().Scheduler.PeakInUse,
		})
	}
	return rows
}

// AutoSamplingRow compares a fixed sample count against the auto-tuned
// count (Sec. IV-D) on the same region.
type AutoSamplingRow struct {
	Mode    string
	Samples int
	Score   float64
}

// AutoSamplingAblation tunes K-means' K with a fixed sample count and with
// auto-tuned doubling; the auto mode should spend samples only while the
// score improves.
func AutoSamplingAblation(seed int64) []AutoSamplingRow {
	ds := points.Gen(seed, 150, 5, 3, 0.05)
	runOne := func(mode string, samples int) AutoSamplingRow {
		t := core.New(core.Options{Seed: seed, MaxPool: 8})
		var best *kmeans.State
		_ = t.Run(func(p *core.P) error {
			res, err := p.Region(core.RegionSpec{
				Name: "auto-" + mode, Samples: samples, AutoStart: 4, MaxSamples: 64,
				Score: func(sp *core.SP) float64 {
					v, _ := sp.Get("sil")
					return v.(float64)
				},
			}, func(sp *core.SP) error {
				k := sp.Int("k", dist.IntRange(2, 14))
				st := kmeans.Run(ds.Points, k, seed, 40)
				sp.Work(1)
				sp.Commit("sil", kmeans.Score(st))
				sp.Commit("state", st)
				return nil
			})
			if err != nil {
				return err
			}
			if i := res.BestIndex(); i >= 0 {
				best = res.MustValue("state", i).(*kmeans.State)
			}
			return nil
		})
		row := AutoSamplingRow{Mode: mode, Samples: int(t.Metrics().Samples), Score: math.NaN()}
		if best != nil {
			row.Score = kmeans.Quality(best, ds.Labels)
		}
		return row
	}
	return []AutoSamplingRow{
		runOne("fixed-32", 32),
		runOne("auto", 0),
	}
}

// WriteAblations renders all four ablations.
func WriteAblations(w io.Writer, seed int64) {
	fmt.Fprintln(w, "-- sampling strategy (K-means, 4 feedback rounds) --")
	for _, r := range StrategyAblation(seed) {
		fmt.Fprintf(w, "%-8s %-6s samples=%3d quality=%.3f\n", r.Benchmark, r.Strategy, r.Samples, r.Score)
	}
	fmt.Fprintln(w, "\n-- cross-validation folds (SVM) --")
	for _, r := range CVAblation(seed) {
		k := "none"
		if r.K > 0 {
			k = fmt.Sprintf("k=%d", r.K)
		}
		fmt.Fprintf(w, "%-6s train=%.3f test=%.3f\n", k, r.TrainErr, r.TestErr)
	}
	fmt.Fprintln(w, "\n-- scheduler pool size (Canny) --")
	for _, r := range PoolAblation(seed) {
		fmt.Fprintf(w, "pool=%-3d time=%7.1fms peakProcs=%d\n", r.Pool, r.ElapsedMS, r.PeakProcesses)
	}
	fmt.Fprintln(w, "\n-- auto-tuned sampling count (K-means) --")
	for _, r := range AutoSamplingAblation(seed) {
		fmt.Fprintf(w, "%-9s samples=%3d quality=%.3f\n", r.Mode, r.Samples, r.Score)
	}
}
