package bench

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/img"
	"repro/internal/opentuner"
	"repro/internal/watershed"
)

// WatershedBench tunes the marker-based watershed (3 params, MV
// aggregation of the boundary maps).
type WatershedBench struct{ Scene string }

// Name implements Benchmark.
func (WatershedBench) Name() string { return "Watershed" }

// HigherIsBetter implements Benchmark.
func (WatershedBench) HigherIsBetter() bool { return true }

// ParamCount implements Benchmark.
func (WatershedBench) ParamCount() int { return 3 }

// SamplingName implements Benchmark.
func (WatershedBench) SamplingName() string { return "RAND" }

// AggName implements Benchmark.
func (WatershedBench) AggName() string { return "MV" }

const wsSize = 48

func (b WatershedBench) dataset(seed int64) img.Dataset {
	scene := b.Scene
	if scene == "" {
		scene = "trashcan"
	}
	return img.GenDataset(scene, wsSize, wsSize, seed)
}

var (
	wsSigma = dist.Uniform(0.3, 3)
	wsThr   = dist.Uniform(0.05, 0.6)
	wsDx    = dist.Uniform(2, 16)
)

const wsLoad = 10.0

// Native implements Benchmark.
func (b WatershedBench) Native(seed int64) Outcome {
	ds := b.dataset(seed)
	_, boundary := watershed.Segment(ds.Noisy, watershed.DefaultParams())
	w := wsLoad + watershed.WorkPerRun
	return Outcome{Score: watershed.Score(boundary, ds.Truth), Work: w, WorkSerial: w, Samples: 1}
}

// WBTune implements Benchmark.
func (b WatershedBench) WBTune(seed int64, budget float64) Outcome { return wbTune(b, seed, budget) }

// Tune implements Benchmark: loading happens once, one sampling region
// covers all three parameters, boundaries are majority-voted.
func (b WatershedBench) Tune(ctx context.Context, t *core.Tuner, seed int64) (Outcome, error) {
	ds := b.dataset(seed)
	var voted []float64
	err := t.RunContext(ctx, func(p *core.P) error {
		p.Work(wsLoad)
		res, err := p.Region(core.RegionSpec{
			Name: "watershed", Samples: 24,
		}, func(sp *core.SP) error {
			prm := watershed.Params{
				Sigma:       sp.Float("sigma", wsSigma),
				MarkerThr:   sp.Float("thr", wsThr),
				MinMarkerDx: sp.Float("dx", wsDx),
			}
			sp.Work(watershed.WorkPerRun)
			_, boundary := watershed.Segment(ds.Noisy, prm)
			// @check: a segmentation with no watershed lines at all (or
			// lines everywhere) is useless; prune before it dilutes the
			// vote.
			sp.Check(wsHeuristic(boundary) > -9)
			sp.Commit("plaus", wsHeuristic(boundary))
			sp.Commit("boundary", boundary.Pix)
			return nil
		})
		if err != nil {
			return err
		}
		// Majority-vote the plausible boundary maps, then keep the sample
		// that agrees most with the consensus (same ensemble selection as
		// the Canny driver).
		var maps [][]float64
		for _, i := range res.Indices("boundary") {
			if res.MustValue("plaus", i).(float64) > -0.9 {
				maps = append(maps, res.MustValue("boundary", i).([]float64))
			}
		}
		if len(maps) == 0 {
			for _, i := range res.Indices("boundary") {
				maps = append(maps, res.MustValue("boundary", i).([]float64))
			}
		}
		voted = consensusSelectN(maps, wsSize)
		return nil
	})
	out := tunedOutcome(t)
	if voted != nil {
		out.Score = watershed.Score(img.Image{W: wsSize, H: wsSize, Pix: voted}, ds.Truth)
		out.Internal = out.Score
	}
	return out, err
}

// wsHeuristic guides the black-box search without ground truth: boundary
// pixels should be sparse but present.
func wsHeuristic(boundary img.Image) float64 {
	frac := float64(boundary.CountAbove(0.5)) / float64(len(boundary.Pix))
	if frac <= 0 {
		return -10
	}
	const target = 0.05
	return -math.Abs(math.Log(frac / target))
}

// OTTune implements Benchmark.
func (b WatershedBench) OTTune(seed int64, budget float64) Outcome {
	ds := b.dataset(seed)
	wc := &workCounter{budget: budget}
	space := opentuner.Space{
		{Name: "sigma", D: wsSigma},
		{Name: "thr", D: wsThr},
		{Name: "dx", D: wsDx},
	}
	obj := func(cfg map[string]float64) (float64, any) {
		wc.add(wsLoad + watershed.WorkPerRun)
		_, boundary := watershed.Segment(ds.Noisy, watershed.Params{
			Sigma: cfg["sigma"], MarkerThr: cfg["thr"], MinMarkerDx: cfg["dx"],
		})
		return wsHeuristic(boundary), boundary.Pix
	}
	tu := opentuner.New(space, obj, opentuner.Options{
		Seed: seed, Stop: wc.exceeded, MaxEvals: 100000,
		InitialConfig: map[string]float64{"sigma": 1.0, "thr": 0.2, "dx": 4},
	})
	tu.Run()
	// Same consensus aggregation as the white-box driver.
	var maps [][]float64
	for _, ev := range tu.History() {
		if ev.Score > -0.9 {
			maps = append(maps, ev.Artifact.([]float64))
		}
	}
	if len(maps) == 0 {
		maps = append(maps, tu.Best().Artifact.([]float64))
	}
	boundary := img.Image{W: wsSize, H: wsSize, Pix: consensusSelectN(maps, wsSize)}
	return Outcome{
		Score: watershed.Score(boundary, ds.Truth), Internal: tu.Best().Score,
		Work: wc.used, WorkSerial: wc.used, Samples: tu.Evals(),
	}
}
