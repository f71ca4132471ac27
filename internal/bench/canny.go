package bench

import (
	"context"
	"math"
	"sort"
	"sync"

	"repro/internal/agg"
	"repro/internal/canny"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/img"
	"repro/internal/opentuner"
	"repro/internal/stats"
)

// CannyBench is the paper's running example: two tuned stages (Gaussian
// smoothing with sigma, hysteresis traversal with low/high), custom
// aggregation after stage one (prune poorly smoothed samples, split a
// tuning process per survivor), majority voting at the end (Fig. 4/6).
type CannyBench struct {
	// Scene overrides the input scene ("" = coffeemaker, Fig. 7's image).
	Scene string
	// Stage1/Stage2 override the per-stage sample counts (0 = defaults).
	Stage1, Stage2 int
}

// Name implements Benchmark.
func (CannyBench) Name() string { return "Canny" }

// HigherIsBetter implements Benchmark.
func (CannyBench) HigherIsBetter() bool { return true }

// ParamCount implements Benchmark.
func (CannyBench) ParamCount() int { return 3 }

// SamplingName implements Benchmark.
func (CannyBench) SamplingName() string { return "RAND" }

// AggName implements Benchmark.
func (CannyBench) AggName() string { return "CUSTOM/MV" }

const cannySize = 64

func (b CannyBench) scene() string {
	if b.Scene == "" {
		return "coffeemaker"
	}
	return b.Scene
}

func (b CannyBench) dataset(seed int64) img.Dataset {
	return img.GenDataset(b.scene(), cannySize, cannySize, seed)
}

func (b CannyBench) stages() (int, int) {
	s1, s2 := b.Stage1, b.Stage2
	if s1 == 0 {
		s1 = 16
	}
	if s2 == 0 {
		s2 = 12
	}
	return s1, s2
}

// Native implements Benchmark.
func (b CannyBench) Native(seed int64) Outcome {
	ds := b.dataset(seed)
	edges := canny.Detect(ds.Noisy, canny.DefaultParams())
	return Outcome{
		Score:      canny.Score(edges, ds.Truth),
		Work:       canny.WorkLoad + canny.WorkSmooth + canny.WorkGradient + canny.WorkTraverse,
		WorkSerial: canny.WorkLoad + canny.WorkSmooth + canny.WorkGradient + canny.WorkTraverse,
		Samples:    1,
	}
}

// sigmaDist and thresholds are the tuning domains.
var (
	cannySigma = dist.Uniform(0.4, 4.0)
	cannyLow   = dist.Uniform(0.05, 0.6)
	cannyHigh  = dist.Uniform(0.2, 0.95)
)

// cannyRun is the Fig. 4 pipeline body, shared by the offline benchmark
// harness (WBTune) and the wbtuned service program (bench.RegisterPrograms).
// Its body method is the function handed to Tuner.Run/RunContext; votes
// returns the per-survivor majority-voted edge maps in split order, so
// downstream consensus selection sees a deterministic ordering regardless of
// how the split children were scheduled.
type cannyRun struct {
	bench            CannyBench
	t                *core.Tuner
	ds               img.Dataset
	nStage1, nStage2 int
	// emit, when non-nil, observes each completed region round (the
	// service's SSE progress hook). It must be safe for concurrent use.
	emit func(region string, best float64)

	mu     sync.Mutex
	childs []cannyVote // one majority-voted edge map per survivor
	splits int
}

// cannyVote pairs a child's vote with its survivor split index.
type cannyVote struct {
	idx  int
	vote []float64
}

func (c *cannyRun) note(region string, best float64) {
	if c.emit != nil {
		c.emit(region, best)
	}
}

// votes returns the child edge maps ordered by split index.
func (c *cannyRun) votes() [][]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	sort.Slice(c.childs, func(i, j int) bool { return c.childs[i].idx < c.childs[j].idx })
	out := make([][]float64, len(c.childs))
	for i, cv := range c.childs {
		out[i] = cv.vote
	}
	return out
}

func (c *cannyRun) body(p *core.P) error {
	// Expensive loading/preprocessing happens once.
	p.Work(canny.WorkLoad)
	noisy := c.ds.Noisy
	p.Expose("imgSize", noisy.W*noisy.H)

	// Stage 1: sample sigma; commit the smoothed image.
	res, err := p.Region(core.RegionSpec{
		Name: "gaussian", Samples: c.nStage1,
	}, func(sp *core.SP) error {
		sigma := sp.Float("sigma", cannySigma)
		sp.Work(canny.WorkSmooth)
		sp.Commit("sImage", canny.SmoothStage(noisy, sigma))
		return nil
	})
	if err != nil {
		return err
	}
	c.note("gaussian", res.BestScore())

	// Custom aggregation (AggregateGaussian): prune poorly smoothed
	// samples, split one tuning process per survivor. If the heuristic
	// rejects everything (an unusually clean or noisy scene), fall back
	// to all samples rather than producing nothing.
	_ = p.Load("imgSize") // the callback reads the exposed size, as in Fig. 4
	survivors := make([]int, 0, len(res.Indices("sImage")))
	for _, i := range res.Indices("sImage") {
		if canny.WellSmoothed(res.MustValue("sImage", i).(img.Image), noisy) {
			survivors = append(survivors, i)
		}
	}
	if len(survivors) == 0 {
		survivors = res.Indices("sImage")
	}
	for _, i := range survivors {
		sm := res.MustValue("sImage", i).(img.Image)
		// Always carry at least one survivor forward so a tight budget
		// still produces a result.
		if c.splits > 0 && c.t.BudgetExceeded() {
			break
		}
		c.splits++
		si := c.splits
		p.Split(func(cp *core.P) error {
			cp.Work(canny.WorkGradient)
			g := canny.GradientStage(sm)
			res2, err := cp.Region(core.RegionSpec{
				Name: "traversal", Samples: c.nStage2,
			}, func(sp *core.SP) error {
				low := sp.Float("low", cannyLow)
				high := sp.Float("high", cannyHigh)
				sp.Work(canny.WorkTraverse)
				edges := canny.TraverseStage(g, low, high)
				// @check: threshold combinations that find no edges at
				// all are pruned immediately — the white-box shortcut a
				// black box only discovers after paying for the full
				// execution.
				plaus := cannyHeuristic(edges)
				sp.Check(plaus > -9)
				sp.Commit("plaus", plaus)
				sp.Commit("edges", edges.Pix)
				return nil
			})
			if err != nil {
				return err
			}
			// Neither canny region declares a Score function (aggregation is
			// custom), so report the best plausibility as the round's score.
			bestPlaus := math.Inf(-1)
			for _, j := range res2.Indices("plaus") {
				if v := res2.MustValue("plaus", j).(float64); v > bestPlaus {
					bestPlaus = v
				}
			}
			c.note("traversal", bestPlaus)
			// Custom aggregation: majority-vote the plausible samples,
			// falling back to all survivors when the plausibility band
			// rejects everything (very dim scenes).
			vote, _ := agg.New(agg.MV)
			for _, j := range res2.Indices("edges") {
				if res2.MustValue("plaus", j).(float64) > -0.7 {
					vote.Add(res2.MustValue("edges", j))
				}
			}
			if vote.Count() == 0 {
				for _, j := range res2.Indices("edges") {
					vote.Add(res2.MustValue("edges", j))
				}
			}
			if v := vote.Result(); v != nil {
				c.mu.Lock()
				c.childs = append(c.childs, cannyVote{idx: si, vote: v.([]float64)})
				c.mu.Unlock()
			}
			return nil
		})
	}
	return p.Wait()
}

// WBTune implements Benchmark.
func (b CannyBench) WBTune(seed int64, budget float64) Outcome { return wbTune(b, seed, budget) }

// Tune implements Benchmark: the Fig. 4 program.
func (b CannyBench) Tune(ctx context.Context, t *core.Tuner, seed int64) (Outcome, error) {
	ds := b.dataset(seed)
	nStage1, nStage2 := b.stages()
	run := &cannyRun{bench: b, t: t, ds: ds, nStage1: nStage1, nStage2: nStage2}
	err := t.RunContext(ctx, run.body)

	out := tunedOutcome(t)
	if final := consensusSelect(run.votes()); final != nil {
		edges := img.Image{W: cannySize, H: cannySize, Pix: final}
		out.Score = canny.Score(edges, ds.Truth)
		out.Internal = out.Score
	} else {
		// The budget ran out before any tuned result materialized: the
		// program falls back to its untuned output, so budget curves start
		// at the native score instead of reporting nothing.
		out.Score = canny.Score(canny.Detect(ds.Noisy, canny.DefaultParams()), ds.Truth)
	}
	return out, err
}

// consensusSelect picks the child result that agrees most with the
// majority vote across all children — ground-truth-free ensemble
// selection: a result consistent with the consensus of many independently
// tuned detectors is likely a good one, without the edge thinning a second
// strict-majority vote would cause.
func consensusSelect(childVotes [][]float64) []float64 {
	return consensusSelectN(childVotes, cannySize)
}

// consensusSelectN is consensusSelect for an arbitrary image width.
func consensusSelectN(childVotes [][]float64, width int) []float64 {
	if len(childVotes) == 0 {
		return nil
	}
	if len(childVotes) == 1 {
		return childVotes[0]
	}
	consensus, _ := agg.New(agg.MV)
	for _, v := range childVotes {
		consensus.Add(v)
	}
	ref := consensus.Result().([]float64)
	best := childVotes[0]
	bestScore := math.Inf(-1)
	for _, v := range childVotes {
		if s := stats.SSIM(v, ref, width); s > bestScore {
			best, bestScore = v, s
		}
	}
	return best
}

// cannyHeuristic is the internal black-box guide: no ground truth exists,
// so (like the paper) we score samples by a plausibility heuristic — the
// edge-pixel fraction should sit in a sane band.
func cannyHeuristic(edges img.Image) float64 {
	frac := float64(edges.CountAbove(0.5)) / float64(len(edges.Pix))
	if frac <= 0 {
		return -10
	}
	const target = 0.06
	return -math.Abs(math.Log(frac / target))
}

// OTTune implements Benchmark: one full execution per configuration, the
// same voting aggregation applied to the plausible samples afterwards.
func (b CannyBench) OTTune(seed int64, budget float64) Outcome {
	ds := b.dataset(seed)
	wc := &workCounter{budget: budget}
	space := opentuner.Space{
		{Name: "sigma", D: cannySigma},
		{Name: "low", D: cannyLow},
		{Name: "high", D: cannyHigh},
	}
	obj := func(cfg map[string]float64) (float64, any) {
		wc.add(canny.WorkLoad + canny.WorkSmooth + canny.WorkGradient + canny.WorkTraverse)
		edges := canny.Detect(ds.Noisy, canny.Params{
			Sigma: cfg["sigma"], Low: cfg["low"], High: cfg["high"],
		})
		return cannyHeuristic(edges), edges.Pix
	}
	tu := opentuner.New(space, obj, opentuner.Options{
		Seed: seed, Minimize: false, Stop: wc.exceeded, MaxEvals: 100000,
		InitialConfig: map[string]float64{"sigma": 1.0, "low": 0.3, "high": 0.6},
	})
	tu.Run()

	// Aggregate the plausible samples the same way the white-box driver
	// does (the paper extends OpenTuner with the same aggregation).
	var votes [][]float64
	for _, ev := range tu.History() {
		if ev.Score > -0.7 { // plausibility threshold
			votes = append(votes, ev.Artifact.([]float64))
		}
	}
	if len(votes) == 0 {
		votes = append(votes, tu.Best().Artifact.([]float64))
	}
	edges := img.Image{W: cannySize, H: cannySize, Pix: consensusSelect(votes)}
	return Outcome{
		Score:      canny.Score(edges, ds.Truth),
		Internal:   tu.Best().Score,
		Work:       wc.used,
		WorkSerial: wc.used,
		Samples:    tu.Evals(),
	}
}
