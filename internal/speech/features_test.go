package speech

import (
	"math"
	"math/rand"
	"testing"
)

// inLoopFeatures is Features as it was before the band bins were hoisted:
// it tests every bin against the band in every frame. It is the oracle
// TestFeaturesMatchesInLoopOracle holds Features to.
func inLoopFeatures(spec Spectrogram, p Params) [][]float64 {
	nf := p.NumFilters
	if nf < 2 {
		nf = 2
	}
	lo := max(0, min(p.FilterLow, 0.9))
	hi := min(1, math.Max(p.FilterHigh, lo+0.05))
	flen := p.FrameLen
	if flen < 1 {
		flen = 1
	}
	shift := p.FrameShift
	if shift < 1 {
		shift = 1
	}
	floor := max(p.EnergyFloor, 1e-9)
	peak := 0.0
	for _, e := range spec.E {
		if e > peak {
			peak = e
		}
	}
	gate := p.NoiseGate * peak
	var frames [][]float64
	for t0 := 0; t0+flen <= spec.T; t0 += shift {
		feat := make([]float64, nf)
		for b := 0; b < nf; b++ {
			bandLo := lo + (hi-lo)*float64(b)/float64(nf)
			bandHi := lo + (hi-lo)*float64(b+1)/float64(nf)
			bandLo = clamp01(bandLo + p.WarpAlpha)
			bandHi = clamp01(bandHi + p.WarpAlpha)
			sum := 0.0
			n := 0
			for t := t0; t < t0+flen; t++ {
				for f := 0; f < spec.F; f++ {
					freq := float64(f) / float64(spec.F-1)
					if freq < bandLo || freq >= bandHi {
						continue
					}
					e := spec.at(t, f)
					if e < gate {
						e = 0
					}
					sum += e
					n++
				}
			}
			if n > 0 {
				sum /= float64(n)
			}
			tilt := 1 + p.Preemph*(float64(b)/float64(nf-1)-0.5)
			feat[b] = math.Log(math.Max(sum*tilt, floor))
		}
		frames = append(frames, feat)
	}
	if p.SilenceThresh > 0 {
		kept := frames[:0]
		for _, f := range frames {
			sum := 0.0
			for _, v := range f {
				sum += math.Exp(v)
			}
			if sum >= p.SilenceThresh {
				kept = append(kept, f)
			}
		}
		if len(kept) > 0 {
			frames = kept
		}
	}
	return frames
}

// sameFrames reports whether two feature sequences hold the same bits.
func sameFrames(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestFeaturesMatchesInLoopOracle compares Features with the in-loop band
// test, and Templates with templates extracted from fresh renderings, bit
// for bit: over random tunings, over NaN and infinite band edges and warps
// (a NaN edge admits every bin), over bands the warp pushes off the axis,
// and over a one-bin spectrogram whose only frequency is 0/0.
func TestFeaturesMatchesInLoopOracle(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	nan, inf := math.NaN(), math.Inf(1)
	var params []Params
	for i := 0; i < 24; i++ {
		params = append(params, randomParams(r))
	}
	for _, edit := range []func(*Params){
		func(p *Params) { p.WarpAlpha = nan },
		func(p *Params) { p.WarpAlpha = inf },
		func(p *Params) { p.WarpAlpha = -inf },
		func(p *Params) { p.WarpAlpha = 0.95 },
		func(p *Params) { p.FilterLow = nan },
		func(p *Params) { p.FilterHigh = nan },
		func(p *Params) { p.NumFilters, p.FrameLen, p.FrameShift = 1, 0, 0 },
		func(p *Params) { p.NumFilters = 40 },
	} {
		p := randomParams(r)
		edit(&p)
		params = append(params, p)
	}
	var specs []Spectrogram
	for speaker := 0; speaker < 3; speaker++ {
		_, audios := GenSpeakerSet(int64(1+speaker), speaker, 3)
		for _, a := range audios {
			specs = append(specs, a.Spec)
		}
	}
	specs = append(specs, Spectrogram{T: 6, F: 1, E: []float64{0.1, 0.5, 0.2, 0.9, 0.3, 0.4}})
	neutral := Speaker{Pitch: 0, Rate: 1, Noise: 0}
	for i, p := range params {
		for j, spec := range specs {
			if got, want := Features(spec, p), inLoopFeatures(spec, p); !sameFrames(got, want) {
				t.Fatalf("params %d %+v, spectrogram %d: Features differs from the in-loop oracle", i, p, j)
			}
		}
		got := Templates(p)
		for w := range Vocabulary {
			tp := p
			tp.WarpAlpha = 0
			want := inLoopFeatures(Synthesize(0x7E3, neutral, w).Spec, tp)
			if p.TemplateSmooth > 0 && len(want) > 1 {
				sm := min(p.TemplateSmooth, 0.95)
				for t := 1; t < len(want); t++ {
					for b := range want[t] {
						want[t][b] = (1-sm)*want[t][b] + sm*want[t-1][b]
					}
				}
			}
			if !sameFrames(got[w], want) {
				t.Fatalf("params %d %+v: template %d differs from fresh renderings", i, p, w)
			}
		}
	}
}

func BenchmarkFeatures(b *testing.B) {
	p := DefaultParams()
	_, audios := GenSpeakerSet(1, 0, speechTestAudios)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range audios {
			benchFrames = Features(a.Spec, p)
		}
	}
}

var benchFrames [][]float64
