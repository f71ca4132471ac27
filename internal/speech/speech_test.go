package speech

import (
	"math"
	"testing"
)

func TestSynthesizeShape(t *testing.T) {
	sp := Speaker{Pitch: 0, Rate: 1, Noise: 0.1}
	a := Synthesize(1, sp, 3)
	if a.Word != 3 {
		t.Fatal("word lost")
	}
	if a.Spec.T < 12 || a.Spec.F != 32 {
		t.Fatalf("spectrogram %dx%d", a.Spec.T, a.Spec.F)
	}
	for _, e := range a.Spec.E {
		if e < 0 || math.IsNaN(e) {
			t.Fatal("bad energy")
		}
	}
}

func TestSpeakerRateChangesLength(t *testing.T) {
	slow := Synthesize(1, Speaker{Rate: 1.3, Noise: 0}, 2)
	fast := Synthesize(1, Speaker{Rate: 0.7, Noise: 0}, 2)
	if slow.Spec.T <= fast.Spec.T {
		t.Fatal("speaking rate does not affect duration")
	}
}

func TestGenSpeakerDeterministicAndVaried(t *testing.T) {
	a := GenSpeaker(1, 0)
	b := GenSpeaker(1, 0)
	if a != b {
		t.Fatal("GenSpeaker not deterministic")
	}
	c := GenSpeaker(1, 1)
	if a == c {
		t.Fatal("speakers identical")
	}
}

func TestGenSpeakerSet(t *testing.T) {
	_, audios := GenSpeakerSet(1, 0, 5)
	if len(audios) != 5 {
		t.Fatalf("%d audios", len(audios))
	}
	for _, a := range audios {
		if a.Word < 0 || a.Word >= len(Vocabulary) {
			t.Fatalf("word %d", a.Word)
		}
	}
}

func TestFeaturesShape(t *testing.T) {
	a := Synthesize(2, Speaker{Rate: 1, Noise: 0.1}, 1)
	p := DefaultParams()
	f := Features(a.Spec, p)
	if len(f) == 0 {
		t.Fatal("no frames")
	}
	for _, fr := range f {
		if len(fr) != p.NumFilters {
			t.Fatalf("frame size %d", len(fr))
		}
		for _, v := range fr {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("bad feature value")
			}
		}
	}
}

func TestFeaturesDegenerateParamsClamped(t *testing.T) {
	a := Synthesize(3, Speaker{Rate: 1, Noise: 0.1}, 0)
	p := Params{
		FilterLow: 0.95, FilterHigh: 0.1, NumFilters: 0,
		FrameLen: 0, FrameShift: 0, EnergyFloor: 0,
		DTWBand: 0, DistExponent: 0,
	}
	f := Features(a.Spec, p)
	if len(f) == 0 {
		t.Fatal("clamped params produced no frames")
	}
}

func TestDTWIdentityZero(t *testing.T) {
	a := Synthesize(4, Speaker{Rate: 1, Noise: 0}, 5)
	f := Features(a.Spec, DefaultParams())
	if d := DTW(f, f, DefaultParams()); d > 1e-9 {
		t.Fatalf("DTW(x,x) = %g", d)
	}
}

func TestDTWEmptyInfinite(t *testing.T) {
	f := [][]float64{{1, 2}}
	if !math.IsInf(DTW(nil, f, DefaultParams()), 1) {
		t.Fatal("empty input should be infinitely far")
	}
}

func TestDTWHandlesDifferentLengths(t *testing.T) {
	// The same word at different speaking rates should still be close
	// under DTW — closer than a different word at the same rate.
	p := DefaultParams()
	w0slow := Features(Synthesize(5, Speaker{Rate: 1.3, Noise: 0}, 0).Spec, p)
	w0fast := Features(Synthesize(5, Speaker{Rate: 0.8, Noise: 0}, 0).Spec, p)
	w7fast := Features(Synthesize(5, Speaker{Rate: 0.8, Noise: 0}, 7).Spec, p)
	same := DTW(w0slow, w0fast, p)
	diff := DTW(w0slow, w7fast, p)
	if same >= diff {
		t.Fatalf("DTW cannot tell words apart: same=%g diff=%g", same, diff)
	}
}

func TestRecognizeCleanNeutralSpeaker(t *testing.T) {
	p := DefaultParams()
	tmpl := Templates(p)
	neutral := Speaker{Rate: 1, Noise: 0}
	correct := 0
	for w := range Vocabulary {
		a := Synthesize(0x7E3, neutral, w) // exactly the template source
		if Recognize(a, tmpl, p) == w {
			correct++
		}
	}
	if correct != len(Vocabulary) {
		t.Fatalf("only %d/%d clean words recognized", correct, len(Vocabulary))
	}
}

func TestPrecisionRangeAndDefaultImperfect(t *testing.T) {
	p := DefaultParams()
	tmpl := Templates(p)
	total, perfect := 0.0, 0
	for set := 0; set < 6; set++ {
		_, audios := GenSpeakerSet(11, set, 5)
		prec := Precision(audios, tmpl, p)
		if prec < 0 || prec > 5 {
			t.Fatalf("precision %g out of range", prec)
		}
		total += prec
		if prec == 5 {
			perfect++
		}
	}
	// Untuned defaults should not already be perfect across all speakers —
	// the paper's native Sphinx recognizes 2.7/5 on average.
	if perfect == 6 {
		t.Fatal("default params already perfect; nothing to tune")
	}
}

func TestTuningHelpsSomeSpeaker(t *testing.T) {
	// For shifted-pitch speakers, adjusting the filter band must beat the
	// default full-band analysis on at least some sets.
	def := DefaultParams()
	improved := 0
	for set := 0; set < 6; set++ {
		sp, audios := GenSpeakerSet(11, set, 5)
		base := Precision(audios, Templates(def), def)
		tuned := def
		tuned.WarpAlpha = sp.Pitch // follow the known pitch shift
		tuned.NoiseGate = 0.15
		tp := Precision(audios, Templates(tuned), tuned)
		if tp > base {
			improved++
		}
	}
	if improved == 0 {
		t.Fatal("parameter changes never help; tuning would be pointless")
	}
}

func TestTemplateSmoothChangesTemplates(t *testing.T) {
	p := DefaultParams()
	p.TemplateSmooth = 0.8
	a := Templates(DefaultParams())
	b := Templates(p)
	diff := false
	for w := range a {
		for ti := range a[w] {
			for bi := range a[w][ti] {
				if a[w][ti][bi] != b[w][ti][bi] {
					diff = true
				}
			}
		}
	}
	if !diff {
		t.Fatal("TemplateSmooth has no effect")
	}
}

func TestInsertPenaltyAffectsDecision(t *testing.T) {
	// With a huge insertion penalty, the recognizer prefers templates of
	// matching length regardless of spectral fit; results must change for
	// at least one audio in a varied set.
	tmplDef := Templates(DefaultParams())
	changed := false
	for set := 0; set < 4 && !changed; set++ {
		_, audios := GenSpeakerSet(13, set, 5)
		for _, a := range audios {
			p1 := DefaultParams()
			p2 := DefaultParams()
			p2.InsertPenalty = 50
			if Recognize(a, tmplDef, p1) != Recognize(a, tmplDef, p2) {
				changed = true
				break
			}
		}
	}
	if !changed {
		t.Fatal("InsertPenalty never changes any decision")
	}
}

func TestBeamWidthStillRecognizesClean(t *testing.T) {
	p := DefaultParams()
	p.BeamWidth = 5
	tmpl := Templates(p)
	a := Synthesize(0x7E3, Speaker{Rate: 1, Noise: 0}, 4)
	if Recognize(a, tmpl, p) != 4 {
		t.Fatal("beam pruning broke clean recognition")
	}
}

func TestSpectralCentroidTracksContour(t *testing.T) {
	lowWord := Synthesize(1, Speaker{Rate: 1, Noise: 0}, 0)
	shifted := Synthesize(1, Speaker{Rate: 1, Noise: 0, Pitch: 0.2}, 0)
	lo := SpectralCentroid(lowWord.Spec)
	hi := SpectralCentroid(shifted.Spec)
	if hi <= lo {
		t.Fatalf("pitch shift did not raise the centroid: %g vs %g", lo, hi)
	}
	if d := hi - lo; d < 0.1 || d > 0.3 {
		t.Fatalf("centroid shift %g far from the 0.2 pitch shift", d)
	}
}

func TestSpectralCentroidEmpty(t *testing.T) {
	spec := Spectrogram{T: 2, F: 4, E: make([]float64, 8)}
	if got := SpectralCentroid(spec); got != 0.5 {
		t.Fatalf("all-zero spectrogram centroid = %g, want neutral 0.5", got)
	}
}

func TestEstimatePitchShiftAccuracy(t *testing.T) {
	for _, pitch := range []float64{-0.15, 0, 0.12} {
		sp := Speaker{Rate: 1, Noise: 0.05, Pitch: pitch}
		var audios []Audio
		for w := 0; w < 5; w++ {
			audios = append(audios, Synthesize(3, sp, w))
		}
		est := EstimatePitchShift(audios)
		if d := est - pitch; d < -0.06 || d > 0.06 {
			t.Fatalf("pitch %g estimated as %g", pitch, est)
		}
	}
}

func TestSelfTestDiscriminates(t *testing.T) {
	good := DefaultParams()
	if got := SelfTest(Templates(good), good, 0); got < 8 {
		t.Fatalf("defaults self-test = %g, want >= 8", got)
	}
	broken := DefaultParams()
	broken.FilterLow = 0.9 // band squeezed into silence
	broken.FilterHigh = 0.95
	if got := SelfTest(Templates(broken), broken, 0); got >= 8 {
		t.Fatalf("degenerate band self-test = %g, should fail", got)
	}
}

func TestDTWUnreachableBandIsInfinite(t *testing.T) {
	p := DefaultParams()
	p.BeamWidth = 1e-9 // prune everything but one cell per row
	a := Features(Synthesize(4, Speaker{Rate: 1.4, Noise: 0.2}, 1).Spec, p)
	b := Features(Synthesize(4, Speaker{Rate: 0.7, Noise: 0.2}, 8).Spec, p)
	d := DTW(a, b, p)
	// Either a finite path survives the beam or the result is a true +Inf;
	// the MaxFloat sentinel must never leak.
	if !math.IsInf(d, 1) && d > 1e100 {
		t.Fatalf("DTW leaked the internal sentinel: %g", d)
	}
}

func TestVocabularyDistinctContours(t *testing.T) {
	// Every pair of words must be distinguishable by template distance.
	p := DefaultParams()
	tmpl := Templates(p)
	for a := 0; a < len(Vocabulary); a++ {
		for b := a + 1; b < len(Vocabulary); b++ {
			if d := DTW(tmpl[a], tmpl[b], p); d < 1e-6 {
				t.Fatalf("words %q and %q have identical templates", Vocabulary[a], Vocabulary[b])
			}
		}
	}
}
