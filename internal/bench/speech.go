package bench

import (
	"context"
	"math"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/opentuner"
	"repro/internal/speech"
)

// SpeechBench tunes the 16-parameter DTW recognizer; predictions are
// majority-voted per audio across sample runs (no general scoring function
// exists, as in the paper).
type SpeechBench struct {
	// SpeakerSet selects the speaker set (default 0); Fig. 20 sweeps 0..9.
	SpeakerSet int
}

// Name implements Benchmark.
func (SpeechBench) Name() string { return "Speech Rec" }

// HigherIsBetter implements Benchmark.
func (SpeechBench) HigherIsBetter() bool { return true }

// ParamCount implements Benchmark.
func (SpeechBench) ParamCount() int { return 16 }

// SamplingName implements Benchmark.
func (SpeechBench) SamplingName() string { return "RAND" }

// AggName implements Benchmark.
func (SpeechBench) AggName() string { return "MV" }

const speechAudios = 5

func (b SpeechBench) data(seed int64) []speech.Audio {
	_, audios := speech.GenSpeakerSet(seed, b.SpeakerSet, speechAudios)
	return audios
}

// speechSpace is the 16-parameter joint space.
func speechSpace() opentuner.Space {
	return opentuner.Space{
		{Name: "filterLow", D: dist.Uniform(0, 0.3)},
		{Name: "filterHigh", D: dist.Uniform(0.6, 1)},
		{Name: "numFilters", D: dist.IntRange(6, 20)},
		{Name: "frameLen", D: dist.IntRange(3, 6)},
		{Name: "frameShift", D: dist.IntRange(1, 3)},
		{Name: "preemph", D: dist.Uniform(0, 0.8)},
		{Name: "energyFloor", D: dist.LogUniform(1e-6, 1e-3)},
		{Name: "noiseGate", D: dist.Uniform(0, 0.25)},
		{Name: "dtwBand", D: dist.IntRange(8, 40)},
		{Name: "distExp", D: dist.Uniform(0.8, 2.5)},
		{Name: "langWeight", D: dist.Uniform(0, 0.2)},
		{Name: "insertPenalty", D: dist.Uniform(0, 1)},
		{Name: "templateSmooth", D: dist.Uniform(0, 0.6)},
		{Name: "warpAlpha", D: dist.Uniform(-0.25, 0.25)},
		{Name: "silenceThresh", D: dist.Uniform(0, 0.2)},
		{Name: "beamWidth", D: dist.Uniform(2, 10)},
	}
}

// speechDefaultConfig is the shipped default configuration clamped into
// the search ranges; both tuners evaluate it first.
func speechDefaultConfig() map[string]float64 {
	return map[string]float64{
		"filterLow": 0, "filterHigh": 1, "numFilters": 12,
		"frameLen": 4, "frameShift": 2, "preemph": 0,
		"energyFloor": 1e-4, "noiseGate": 0, "dtwBand": 40,
		"distExp": 2, "langWeight": 0, "insertPenalty": 0,
		"templateSmooth": 0, "warpAlpha": 0, "silenceThresh": 0,
		"beamWidth": 2,
	}
}

func speechParams(cfg map[string]float64) speech.Params {
	return speech.Params{
		FilterLow: cfg["filterLow"], FilterHigh: cfg["filterHigh"],
		NumFilters: int(cfg["numFilters"]), FrameLen: int(cfg["frameLen"]),
		FrameShift: int(cfg["frameShift"]), Preemph: cfg["preemph"],
		EnergyFloor: cfg["energyFloor"], NoiseGate: cfg["noiseGate"],
		DTWBand: int(cfg["dtwBand"]), DistExponent: cfg["distExp"],
		LangWeight: cfg["langWeight"], InsertPenalty: cfg["insertPenalty"],
		TemplateSmooth: cfg["templateSmooth"], WarpAlpha: cfg["warpAlpha"],
		SilenceThresh: cfg["silenceThresh"], BeamWidth: cfg["beamWidth"],
	}
}

// Native implements Benchmark.
func (b SpeechBench) Native(seed int64) Outcome {
	audios := b.data(seed)
	p := speech.DefaultParams()
	tmpl := speech.Templates(p)
	w := speech.WorkLoad*speechAudios + speechAudios*(speech.WorkFeatures+speech.WorkDecode)
	return Outcome{
		Score: speech.Precision(audios, tmpl, p),
		Work:  w, WorkSerial: w, Samples: 1,
	}
}

// marginWeight converts a recognition margin into a vote weight.
// Exponential scaling makes the vote confidence-dominated: one decode with
// margin 0.7 outweighs dozens at 0.05.
func marginWeight(margin float64) int {
	m := math.Min(1.5, math.Max(0, margin))
	return 1 + int(math.Exp(8*m))
}

// votePrecision majority-votes per-audio predictions across sample runs
// and scores the voted words against the ground truth.
func votePrecision(audios []speech.Audio, votes []map[int]int) float64 {
	correct := 0.0
	for i, a := range audios {
		bestW, bestN := -1, 0
		for w := 0; w < len(speech.Vocabulary); w++ {
			// Words are visited in rising order and only a strictly larger
			// count takes over, so a tie already goes to the lower word.
			if n := votes[i][w]; n > bestN {
				bestW, bestN = w, n
			}
		}
		if bestW == a.Word {
			correct++
		}
	}
	return correct
}

// WBTune implements Benchmark.
func (b SpeechBench) WBTune(seed int64, budget float64) Outcome { return wbTune(b, seed, budget) }

// Tune implements Benchmark: the audio loading and spectrogram stage is
// shared; every sample run re-extracts features and decodes, committing its
// predicted words, which are majority-voted per audio.
func (b SpeechBench) Tune(ctx context.Context, t *core.Tuner, seed int64) (Outcome, error) {
	audios := b.data(seed)
	votes := make([]map[int]int, len(audios))
	for i := range votes {
		votes[i] = map[int]int{}
	}
	err := t.RunContext(ctx, func(p *core.P) error {
		p.Work(speech.WorkLoad * speechAudios) // load + spectrograms, once

		// The incumbent (default) configuration votes first: tuning must
		// beat it, not merely replace it.
		defPrm := speechParams(speechDefaultConfig())
		defTmpl := speech.Templates(defPrm)
		p.Work(speechAudios * (speech.WorkFeatures + speech.WorkDecode))
		defPreds, defMargin := speechDecode(audios, defTmpl, defPrm)
		defW := marginWeight(defMargin)
		for i, w := range defPreds {
			votes[i][w] += defW
		}

		// White-box pitch estimation: read the spectrograms' spectral
		// centroid (internal state) to localize the speaker's shift, so
		// sampling concentrates on warp values that can possibly work.
		estShift := speech.EstimatePitchShift(audios)
		p.Work(0.5)

		res, err := p.Region(core.RegionSpec{
			Name: "speech", Samples: 40,
			Aggregate: map[string]agg.Kind{"words": agg.Custom},
			Score: func(sp *core.SP) float64 {
				v, _ := sp.Get("margin")
				return v.(float64)
			},
		}, func(sp *core.SP) error {
			cfg := map[string]float64{}
			for _, prm := range speechSpace() {
				cfg[prm.Name] = sp.Float(prm.Name, prm.D)
			}
			// @check: a warp that contradicts the measured pitch shift
			// cannot align the speaker with the templates; prune before
			// any decoding happens.
			sp.Check(math.Abs(cfg["warpAlpha"]-estShift) < 0.08)
			prm := speechParams(cfg)
			sp.Work(speech.WorkFeatures) // template + calibration cost
			tmpl := speech.Templates(prm)
			// @check: a configuration that cannot recognize its own clean
			// calibration words is broken; prune it before paying for the
			// real decoding work — the white-box shortcut.
			sp.Check(speech.SelfTest(tmpl, prm, 8) >= 8)
			sp.Work(speechAudios * (speech.WorkFeatures + speech.WorkDecode))
			preds, margin := speechDecode(audios, tmpl, prm)
			sp.Commit("words", preds)
			sp.Commit("margin", margin)
			return nil
		})
		if err != nil {
			return err
		}
		// Majority-vote the surviving sample runs with
		// confidence-dominated weights: among non-broken configurations
		// (the self-test pruned the rest) the recognition margin is the
		// reliable decode signal, so a confidently-decoding configuration
		// outvotes many hesitant ones.
		for _, i := range res.Indices("words") {
			preds := res.MustValue("words", i).([]int)
			weight := marginWeight(res.MustValue("margin", i).(float64))
			for a, w := range preds {
				votes[a][w] += weight
			}
		}
		return nil
	})
	out := tunedOutcome(t)
	out.Score = votePrecision(audios, votes)
	out.Internal = out.Score
	return out, err
}

// speechDecode recognizes every audio in one decode pass each and returns
// the predicted words and the ground-truth-free guide for the black-box
// search: the average confidence margin between the best and second-best
// word.
func speechDecode(audios []speech.Audio, tmpl [][][]float64, p speech.Params) ([]int, float64) {
	preds := make([]int, len(audios))
	total := 0.0
	for i, a := range audios {
		w, margin := speech.Decode(a, tmpl, p)
		preds[i] = w
		total += margin
	}
	return preds, total / float64(len(audios))
}

// OTTune implements Benchmark.
func (b SpeechBench) OTTune(seed int64, budget float64) Outcome {
	audios := b.data(seed)
	wc := &workCounter{budget: budget}
	type otSample struct {
		preds  []int
		selfOK bool
		margin float64
	}
	obj := func(cfg map[string]float64) (float64, any) {
		// A full execution: load, templates, calibration, decode — the
		// black box cannot prune after the calibration step.
		wc.add(speech.WorkLoad*speechAudios + speech.WorkFeatures +
			speechAudios*(speech.WorkFeatures+speech.WorkDecode))
		prm := speechParams(cfg)
		tmpl := speech.Templates(prm)
		self := speech.SelfTest(tmpl, prm, 0)
		preds, margin := speechDecode(audios, tmpl, prm)
		return self*10 + margin, otSample{preds: preds, selfOK: self >= 8, margin: margin}
	}
	tu := opentuner.New(speechSpace(), obj, opentuner.Options{
		Seed: seed, Stop: wc.exceeded, MaxEvals: 100000,
		// The shipped defaults, clamped into the search ranges.
		InitialConfig: speechDefaultConfig(),
	})
	tu.Run()
	votes := make([]map[int]int, len(audios))
	for i := range votes {
		votes[i] = map[int]int{}
	}
	voted := false
	for _, ev := range tu.History() {
		s := ev.Artifact.(otSample)
		if !s.selfOK {
			continue
		}
		voted = true
		weight := marginWeight(s.margin)
		for a, w := range s.preds {
			votes[a][w] += weight
		}
	}
	if !voted { // nothing passed the heuristic: fall back to the best sample
		s := tu.Best().Artifact.(otSample)
		for a, w := range s.preds {
			votes[a][w]++
		}
	}
	return Outcome{
		Score: votePrecision(audios, votes), Internal: tu.Best().Score,
		Work: wc.used, WorkSerial: wc.used, Samples: tu.Evals(),
	}
}
