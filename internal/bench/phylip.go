package bench

import (
	"context"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/opentuner"
	"repro/internal/phylip"
	"repro/internal/strategy"
)

// PhylipBench tunes the 5-stage phylogenetic pipeline (Fig. 14): stage 1's
// transition model (ease) with DEDUP aggregation — a tuning process splits
// per unique quantized matrix — then stage 3's distance correction
// (invarfrac, cvi) and stage 5's weighting power, selecting the tree with
// the lowest sum of squares.
type PhylipBench struct {
	// DataSeed offsets the dataset (Fig. 15 sweeps 10 datasets).
	DataSeed int64
}

// Name implements Benchmark.
func (PhylipBench) Name() string { return "Phylip" }

// HigherIsBetter implements Benchmark.
func (PhylipBench) HigherIsBetter() bool { return false }

// ParamCount implements Benchmark.
func (PhylipBench) ParamCount() int { return 4 }

// SamplingName implements Benchmark.
func (PhylipBench) SamplingName() string { return "RAND" }

// AggName implements Benchmark.
func (PhylipBench) AggName() string { return "DEDUP/MIN" }

const phylipSpecies = 9

func (b PhylipBench) dataset(seed int64) phylip.Dataset {
	return phylip.GenDataset(seed+b.DataSeed*1009, phylipSpecies)
}

var (
	phEase  = dist.Uniform(0.3, 2.5)
	phInvar = dist.Uniform(0, 0.4)
	phCVI   = dist.Uniform(0.5, 2)
	phPower = dist.Uniform(0, 3)
)

// Native implements Benchmark.
func (b PhylipBench) Native(seed int64) Outcome {
	ds := b.dataset(seed)
	tree, _ := phylip.Run(ds, phylip.DefaultParams())
	w := phylip.WorkLoad + phylip.WorkTrans + phylip.WorkDist + phylip.WorkTree
	return Outcome{Score: phylip.Quality(ds, tree), Work: w, WorkSerial: w, Samples: 1}
}

// WBTune implements Benchmark.
func (b PhylipBench) WBTune(seed int64, budget float64) Outcome { return wbTune(b, seed, budget) }

// Tune implements Benchmark: three nested tuning regions with loading done
// once; stage-1 DEDUP prunes sample runs that produced the same transition
// matrix, so tuning processes split only for unique models.
func (b PhylipBench) Tune(ctx context.Context, t *core.Tuner, seed int64) (Outcome, error) {
	ds := b.dataset(seed)
	var mu sync.Mutex
	bestSS := math.Inf(1) // internal: fit to the computed distance matrix
	var bestTree phylip.Tree
	haveTree := false

	err := t.RunContext(ctx, func(p *core.P) error {
		p.Work(phylip.WorkLoad) // stage 2: load + preprocess, once

		// Stage 1: sample ease; DEDUP the quantized transition matrices.
		res, err := p.Region(core.RegionSpec{
			Name: "transmat", Samples: 10,
		}, func(sp *core.SP) error {
			ease := sp.Float("ease", phEase)
			sp.Work(phylip.WorkTrans)
			sp.Commit("key", phylip.QuantizeMatrix(phylip.TransMatrix(ease)))
			sp.Commit("ease", ease)
			return nil
		})
		if err != nil {
			return err
		}
		// Custom DEDUP aggregation: keep one sample per unique matrix.
		seen := map[string]bool{}
		splits := 0
		for _, i := range res.Indices("key") {
			key := res.MustValue("key", i).(string)
			if seen[key] {
				continue
			}
			seen[key] = true
			ease := res.MustValue("ease", i).(float64)
			if splits > 0 && t.BudgetExceeded() {
				break
			}
			splits++
			p.Split(func(c *core.P) error {
				// Stage 3: distance matrices for this model, scored by
				// tree-likeness (four-point violation) — the white-box
				// internal signal for this stage. MCMC sampling exploits
				// feedback shared across the splits (same region name).
				res3, err := c.Region(core.RegionSpec{
					Name: "distmat", Samples: 10, Minimize: true,
					Strategy: strategy.MCMC(strategy.MCMCOptions{}),
					Score: func(sp *core.SP) float64 {
						v, _ := sp.Get("fpv")
						return v.(float64)
					},
				}, func(sp *core.SP) error {
					prm := phylip.Params{
						Ease:      ease,
						InvarFrac: sp.Float("invarfrac", phInvar),
						CVI:       sp.Float("cvi", phCVI),
					}
					sp.Work(phylip.WorkDist)
					d := phylip.DistMatrix(ds.PObs, prm)
					// Saturated (clamped) distances fake additivity, so
					// they carry a heavy score penalty; a mostly-saturated
					// matrix is pruned outright (@check).
					sat := phylip.SaturatedEntries(d)
					pairs := ds.N * (ds.N - 1) / 2
					sp.Check(sat*2 < pairs)
					sp.Commit("fpv", phylip.FourPointViolation(d)+float64(sat))
					sp.Commit("d", d)
					return nil
				})
				if err != nil {
					return err
				}
				// Stage 4/5: only the most tree-like matrices proceed to
				// tree construction (the MIN side of the DEDUP/MIN row).
				best3 := bestKByScore(res3, 3)
				inner := 0
				for _, j := range best3 {
					d := res3.MustValue("d", j).([][]float64)
					if inner > 0 && t.BudgetExceeded() {
						break
					}
					inner++
					c.Split(func(cc *core.P) error {
						res5, err := cc.Region(core.RegionSpec{
							Name: "tree", Samples: 4, Minimize: true,
							Score: func(sp *core.SP) float64 {
								v, _ := sp.Get("ss")
								return v.(float64)
							},
						}, func(sp *core.SP) error {
							power := sp.Float("power", phPower)
							sp.Work(phylip.WorkTree)
							tree := phylip.BuildTree(d, power)
							sp.Commit("ss", phylip.NormalizedSS(d, tree))
							sp.Commit("tree", tree)
							return nil
						})
						if err != nil {
							return err
						}
						if i := res5.BestIndex(); i >= 0 {
							ss := res5.Score(i)
							tree := res5.MustValue("tree", i).(phylip.Tree)
							mu.Lock()
							if ss < bestSS {
								bestSS = ss
								bestTree = tree
								haveTree = true
							}
							mu.Unlock()
						}
						return nil
					})
				}
				return c.Wait()
			})
		}
		return p.Wait()
	})
	out := tunedOutcome(t)
	if haveTree {
		out.Score = phylip.Quality(ds, bestTree)
		out.Internal = bestSS
	} else {
		// Budget exhausted before any tree was built: fall back to the
		// untuned pipeline output.
		tree, _ := phylip.Run(ds, phylip.DefaultParams())
		out.Score = phylip.Quality(ds, tree)
	}
	return out, err
}

// bestKByScore returns the indices of the k best-scoring samples of a
// minimizing region, best first.
func bestKByScore(res *core.Result, k int) []int {
	type cand struct {
		idx   int
		score float64
	}
	var cands []cand
	for i := 0; i < res.N(); i++ {
		if s := res.Score(i); !math.IsNaN(s) {
			cands = append(cands, cand{i, s})
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].score < cands[b].score })
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.idx
	}
	return out
}

// OTTune implements Benchmark: the full 4-parameter space, one complete
// pipeline execution per sample.
func (b PhylipBench) OTTune(seed int64, budget float64) Outcome {
	ds := b.dataset(seed)
	wc := &workCounter{budget: budget}
	obj := func(cfg map[string]float64) (float64, any) {
		wc.add(phylip.WorkLoad + phylip.WorkTrans + phylip.WorkDist + phylip.WorkTree)
		prm := phylip.Params{
			Ease: cfg["ease"], InvarFrac: cfg["invarfrac"],
			CVI: cfg["cvi"], Power: cfg["power"],
		}
		tree, d := phylip.Run(ds, prm)
		return phylip.NormalizedSS(d, tree), tree
	}
	tu := opentuner.New(opentuner.Space{
		{Name: "ease", D: phEase},
		{Name: "invarfrac", D: phInvar},
		{Name: "cvi", D: phCVI},
		{Name: "power", D: phPower},
	}, obj, opentuner.Options{
		Seed: seed, Minimize: true, Stop: wc.exceeded, MaxEvals: 100000,
		InitialConfig: map[string]float64{"ease": 1, "invarfrac": 0, "cvi": 1, "power": 0},
	})
	best := tu.Run()
	tree := best.Artifact.(phylip.Tree)
	return Outcome{
		Score: phylip.Quality(ds, tree), Internal: best.Score,
		Work: wc.used, WorkSerial: wc.used, Samples: tu.Evals(),
	}
}
