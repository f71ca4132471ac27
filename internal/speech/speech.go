// Package speech implements a DTW template-matching word recognizer in the
// style of classic small-vocabulary systems (the paper's Sphinx benchmark
// on the AN4 corpus). Audio is a synthetic spectrogram; recognition runs in
// three stages — load/spectrogram (expensive), filter-bank feature
// extraction, and DTW decoding against word templates — with 16 tunable
// parameters split across the latter two stages, matching Table I's 16
// parameters. Different synthetic speakers have different pitch shifts and
// speaking rates, so different audio sets need different parameter
// settings, as the paper observes.
package speech

import (
	"math"
	"math/rand"
	"sync"

	"repro/internal/dist"
	"repro/internal/stats"
)

// Params are the recognizer's 16 tunables.
type Params struct {
	// Feature extraction (stage 2).
	FilterLow   float64 // lower edge of the filter bank, in [0, 1)
	FilterHigh  float64 // upper edge of the filter bank, in (FilterLow, 1]
	NumFilters  int     // filter-bank size
	FrameLen    int     // spectrogram columns per analysis frame
	FrameShift  int     // frame hop
	Preemph     float64 // spectral tilt compensation in [0, 1]
	EnergyFloor float64
	NoiseGate   float64 // energies below this fraction of the peak are zeroed
	// Decoding (stage 3).
	DTWBand        int     // Sakoe-Chiba band half-width
	DistExponent   float64 // frame distance exponent
	LangWeight     float64 // weight of the word prior
	InsertPenalty  float64 // flat per-word penalty
	TemplateSmooth float64 // template time-smoothing factor in [0, 1)
	WarpAlpha      float64 // frequency-warp compensation in [-0.3, 0.3]
	SilenceThresh  float64 // frames quieter than this are dropped
	BeamWidth      float64 // prune DTW cells worse than best*(1+beam); <=0 disables
}

// DefaultParams is the untuned configuration.
func DefaultParams() Params {
	return Params{
		FilterLow: 0.0, FilterHigh: 1.0, NumFilters: 12,
		FrameLen: 4, FrameShift: 2, Preemph: 0,
		EnergyFloor: 1e-4, NoiseGate: 0,
		DTWBand: 1000, DistExponent: 2, LangWeight: 0,
		InsertPenalty: 0, TemplateSmooth: 0, WarpAlpha: 0,
		SilenceThresh: 0, BeamWidth: 0,
	}
}

// Work-unit costs per stage.
const (
	WorkLoad     = 20.0
	WorkFeatures = 1.0
	WorkDecode   = 1.5
)

// Spectrogram is a time × frequency energy matrix (T rows of F bins).
type Spectrogram struct {
	T, F int
	E    []float64 // row-major
}

func (s Spectrogram) at(t, f int) float64 { return s.E[t*s.F+f] }

// Vocabulary is the word list; priors fall off with index (frequent words
// first), giving the language weight something to exploit.
var Vocabulary = []string{
	"zero", "one", "two", "three", "four",
	"five", "six", "seven", "eight", "nine",
}

// contour returns word w's canonical frequency contour at relative time
// u in [0,1]: each word is a distinct trajectory through frequency space.
func contour(w int, u float64) float64 {
	a := 0.25 + 0.05*float64(w%5)
	b := 0.15 * math.Sin(2*math.Pi*(u+float64(w)/10))
	c := 0.2 * u * float64(w%3)
	v := a + b + c
	return min(0.95, max(0.05, v))
}

// Audio is one utterance with its ground-truth word.
type Audio struct {
	Spec Spectrogram
	Word int
}

// Speaker holds the per-speaker warps that make parameter settings
// speaker-dependent.
type Speaker struct {
	Pitch float64 // frequency shift
	Rate  float64 // speaking-rate multiplier
	Noise float64
}

// GenSpeaker derives speaker i's characteristics deterministically.
func GenSpeaker(seed int64, i int) Speaker {
	r := rand.New(rand.NewSource(int64(dist.Mix(uint64(seed), uint64(i)+0x5B))))
	return Speaker{
		Pitch: (r.Float64() - 0.5) * 0.3,
		Rate:  0.7 + 0.6*r.Float64(),
		Noise: 0.05 + 0.15*r.Float64(),
	}
}

// Synthesize renders word w spoken by the speaker as a spectrogram.
func Synthesize(seed int64, sp Speaker, w int) Audio {
	r := rand.New(rand.NewSource(int64(dist.Mix(uint64(seed), uint64(w)*31+7))))
	baseT := 32 + 2*w // words have distinct canonical durations
	T := int(float64(baseT) * sp.Rate)
	if T < 12 {
		T = 12
	}
	const F = 32
	spec := Spectrogram{T: T, F: F, E: make([]float64, T*F)}
	for t := 0; t < T; t++ {
		u := float64(t) / float64(T-1)
		center := contour(w, u) + sp.Pitch
		for f := 0; f < F; f++ {
			freq := float64(f) / float64(F-1)
			d := (freq - center) / 0.08
			spec.E[t*F+f] = math.Exp(-d*d) + r.Float64()*sp.Noise
		}
	}
	return Audio{Spec: spec, Word: w}
}

// GenSpeakerSet builds one test set: n utterances of random words by one
// speaker (the paper uses 10 sets of 5 audios).
func GenSpeakerSet(seed int64, speaker int, n int) (Speaker, []Audio) {
	sp := GenSpeaker(seed, speaker)
	r := rand.New(rand.NewSource(int64(dist.Mix(uint64(seed), uint64(speaker)*977))))
	var audios []Audio
	for i := 0; i < n; i++ {
		w := r.Intn(len(Vocabulary))
		audios = append(audios, Synthesize(seed+int64(i)*131, sp, w))
	}
	return sp, audios
}

// Features converts a spectrogram into filter-bank feature frames under the
// given parameters (stage 2).
func Features(spec Spectrogram, p Params) [][]float64 {
	nf := p.NumFilters
	if nf < 2 {
		nf = 2
	}
	lo := max(0, min(p.FilterLow, 0.9))
	// math.Max, not the builtin, wherever neither side is a constant: the
	// builtin answers NaN where math.Max answers +Inf (+Inf against NaN).
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

	// Peak energy for the noise gate.
	peak := 0.0
	for _, e := range spec.E {
		if e > peak {
			peak = e
		}
	}
	gate := p.NoiseGate * peak

	// Each band's bins, bins[start[b]:start[b+1]], in frequency order.
	var bins []int
	start := make([]int, nf+1)
	for b := 0; b < nf; b++ {
		bandLo := lo + (hi-lo)*float64(b)/float64(nf)
		bandHi := lo + (hi-lo)*float64(b+1)/float64(nf)
		// Frequency-warp compensation: shift the analysis bands to
		// follow a pitch-shifted speaker back into template space.
		bandLo = clamp01(bandLo + p.WarpAlpha)
		bandHi = clamp01(bandHi + p.WarpAlpha)
		for f := 0; f < spec.F; f++ {
			freq := float64(f) / float64(spec.F-1)
			if freq < bandLo || freq >= bandHi {
				continue
			}
			bins = append(bins, f)
		}
		start[b+1] = len(bins)
	}

	var frames [][]float64
	for t0 := 0; t0+flen <= spec.T; t0 += shift {
		feat := make([]float64, nf)
		for b := 0; b < nf; b++ {
			sum := 0.0
			band := bins[start[b]:start[b+1]]
			for t := t0; t < t0+flen; t++ {
				row := spec.E[t*spec.F:]
				for _, f := range band {
					e := row[f]
					if e < gate {
						e = 0
					}
					sum += e
				}
			}
			if n := flen * len(band); n > 0 {
				sum /= float64(n)
			}
			// Pre-emphasis tilts energy toward high bands.
			tilt := 1 + p.Preemph*(float64(b)/float64(nf-1)-0.5)
			feat[b] = math.Log(math.Max(sum*tilt, floor))
		}
		frames = append(frames, feat)
	}
	// Silence removal: drop frames whose total energy is below threshold.
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

func clamp01(v float64) float64 { return min(1, max(0, v)) }

// Templates extracts the reference features of every vocabulary word from
// clean canonical renderings (a neutral speaker) under the same parameters,
// except WarpAlpha: the warp maps a shifted speaker into canonical template
// space, so templates themselves are always extracted unwarped.
func Templates(p Params) [][][]float64 {
	tp := p
	tp.WarpAlpha = 0
	out := make([][][]float64, len(Vocabulary))
	for w, a := range canonical() {
		f := Features(a.Spec, tp)
		if p.TemplateSmooth > 0 && len(f) > 1 {
			sm := min(p.TemplateSmooth, 0.95)
			for t := 1; t < len(f); t++ {
				for b := range f[t] {
					f[t][b] = (1-sm)*f[t][b] + sm*f[t-1][b]
				}
			}
		}
		out[w] = f
	}
	return out
}

// canonical is every vocabulary word rendered by the neutral speaker, the
// source of Templates and of EstimatePitchShift's reference. The
// renderings depend on nothing else, so they are made once and only read.
var canonical = sync.OnceValue(func() []Audio {
	neutral := Speaker{Pitch: 0, Rate: 1, Noise: 0}
	out := make([]Audio, len(Vocabulary))
	for w := range out {
		out[w] = Synthesize(0x7E3, neutral, w)
	}
	return out
})

// DTW computes the band-constrained dynamic-time-warping distance between
// two feature sequences, normalized by path length. Every feature value
// must be finite, as Features' are (the log of a value at least the energy
// floor): a cell whose predecessors are all unreachable is then skipped
// without computing its frame distance.
func DTW(a, b [][]float64, p Params) float64 {
	inf := math.Inf(1)
	return dtw(a, b, p, &dtwRows{}, abandon{second: inf, bestScore: inf})
}

// dtwRows are the two DP rows, reused across the templates of one Decode
// or SelfTest.
type dtwRows struct{ prev, cur []float64 }

// abandon carries the caller's running bests into dtw, the second-best
// distance and the best score so far, and this template's score terms.
type abandon struct {
	second, bestScore float64
	prior, mismatch   float64
}

// terms returns word w's score terms against an utterance of frames
// frames, with no running bests.
func terms(w, frames int, tmpl [][]float64) abandon {
	inf := math.Inf(1)
	return abandon{
		second: inf, bestScore: inf,
		// Zipf-ish prior over the vocabulary.
		prior: math.Log(float64(w) + 1.5),
		// The insertion penalty charges length mismatch between utterance
		// and template — the single-word analogue of penalizing inserted
		// words in a sequence decode.
		mismatch: math.Abs(float64(frames-len(tmpl))) / float64(len(tmpl)+1),
	}
}

// score is a template's decode score at DTW distance d. dtw's bound and
// the final score go through this one expression, so the bound cannot
// round above the score.
func (ab abandon) score(d float64, p Params) float64 {
	return d + p.LangWeight*ab.prior + p.InsertPenalty*ab.mismatch
}

// dtw is DTW with early abandoning. Frame distances are non-negative, so
// a row's cheapest cell bounds the final distance from below (rounding is
// monotone). Once that bound reaches the second-best distance and its
// score reaches the best score, the template can change neither the word
// nor the margin, and dtw returns +Inf instead of finishing the band.
//
// For the same reason a cell whose cheapest predecessor already exceeds
// the row's best so far plus the beam is left unreachable without its
// frame distance: its value would exceed the row's final best plus the
// beam, so the beam would cut it, and so would every later cell of the
// row that took it as its cheapest predecessor. The pruned row is the one
// the full row would give.
func dtw(a, b [][]float64, p Params, rows *dtwRows, ab abandon) float64 {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return math.Inf(1)
	}
	band := p.DTWBand
	if band < 1 {
		band = 1
	}
	exp := p.DistExponent
	if exp <= 0 {
		exp = 1
	}
	pow, root := stats.NewPowPlan(exp), stats.NewPowPlan(1/exp)
	const inf = math.MaxFloat64 / 4
	if cap(rows.prev) < m+1 {
		rows.prev = make([]float64, m+1)
		rows.cur = make([]float64, m+1)
	}
	prev, cur := rows.prev[:m+1], rows.cur[:m+1]
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		for j := range cur {
			cur[j] = inf
		}
		lo := 1
		hi := m
		if band < m {
			c := i * m / n
			lo = max(1, c-band)
			hi = min(m, c+band)
		}
		rowBest := inf
		for j := lo; j <= hi; j++ {
			best := min(prev[j], cur[j-1], prev[j-1])
			if best >= inf {
				continue // inf + d == inf: the cell stays unreachable
			}
			if p.BeamWidth > 0 && best > rowBest+p.BeamWidth {
				continue // the cell is at least best: the beam would cut it
			}
			cur[j] = frameDist(a[i-1], b[j-1], &pow, &root) + best
			if cur[j] < rowBest {
				rowBest = cur[j]
			}
		}
		if rowBest >= inf {
			return math.Inf(1) // every path is cut
		}
		lb := rowBest / float64(n+m)
		if lb >= ab.second && ab.score(lb, p) >= ab.bestScore {
			return math.Inf(1)
		}
		// Beam pruning: drop cells too far above the row's best path.
		if p.BeamWidth > 0 {
			limit := rowBest + p.BeamWidth
			for j := lo; j <= hi; j++ {
				if cur[j] > limit {
					cur[j] = inf
				}
			}
		}
		prev, cur = cur, prev
	}
	if prev[m] >= inf/2 {
		// The band/beam constraints cut every path to the end: no valid
		// alignment exists under these parameters.
		return math.Inf(1)
	}
	return prev[m] / float64(n+m)
}

// frameDist is the Minkowski distance of two frames: pow and root are the
// plans for the exponent and its reciprocal.
func frameDist(a, b []float64, pow, root *stats.PowPlan) float64 {
	n := min(len(a), len(b))
	s := 0.0
	for i := 0; i < n; i++ {
		s += pow.Pow(math.Abs(a[i] - b[i]))
	}
	return root.Pow(s / float64(n))
}

// Recognize decodes one audio against the templates: the word minimizing
// DTW distance plus language-model and insertion terms.
func Recognize(a Audio, templates [][][]float64, p Params) int {
	w, _ := Decode(a, templates, p)
	return w
}

// Decode is one pass over the templates. It returns the word Recognize
// picks and the confidence margin: the gap between the best and the
// second-best DTW distance, or 0 when either is infinite. A template whose
// DTW is abandoned early could not have changed either result.
func Decode(a Audio, templates [][][]float64, p Params) (word int, margin float64) {
	feats := Features(a.Spec, p)
	var rows dtwRows
	bestScore := math.Inf(1)
	best, second := math.Inf(1), math.Inf(1)
	for w, tmpl := range templates {
		ab := terms(w, len(feats), tmpl)
		ab.second, ab.bestScore = second, bestScore
		d := dtw(feats, tmpl, p, &rows, ab)
		score := ab.score(d, p)
		if score < bestScore {
			word, bestScore = w, score
		}
		if d < best {
			best, second = d, best
		} else if d < second {
			second = d
		}
	}
	if !math.IsInf(second, 1) && !math.IsInf(best, 1) {
		margin = second - best
	}
	return word, margin
}

// SelfTest scores a configuration on calibration recordings: clean
// renderings of every vocabulary word by a neutral speaker at a slightly
// different speaking rate than the templates. A configuration that cannot
// recognize its own calibration set is broken (degenerate filter band,
// over-aggressive gating); the white-box tuning program prunes such
// samples before paying for real decoding. Returns the number of
// calibration words recognized (0..len(Vocabulary)), or a smaller count
// once reaching need has become impossible; need 0 counts every word.
func SelfTest(templates [][][]float64, p Params, need int) float64 {
	cal := Speaker{Pitch: 0, Rate: 0.9, Noise: 0.02}
	var rows dtwRows
	correct := 0
	for w := range Vocabulary {
		if correct+len(Vocabulary)-w < need {
			break
		}
		if wins(Synthesize(0xCA1, cal, w), w, templates, p, &rows) {
			correct++
		}
	}
	return float64(correct)
}

// wins reports whether Recognize picks word w for a, without finding out
// what it picks otherwise. Template w is aligned in full; every other
// template only until its score bound shows it cannot beat w's score, and
// the first that beats it ends the search. Decode keeps the first of tied
// scores, so an earlier word beats w on a tie and a later one only
// strictly below; when no template scores finite, Decode answers word 0.
func wins(a Audio, w int, templates [][][]float64, p Params, rows *dtwRows) bool {
	if w >= len(templates) {
		return w == 0 // no templates at all: Decode answers 0
	}
	feats := Features(a.Spec, p)
	ab := terms(w, len(feats), templates[w])
	target := ab.score(dtw(feats, templates[w], p, rows, ab), p)
	inf := math.Inf(1)
	if w > 0 && !(target < inf) {
		return false
	}
	for v, tmpl := range templates {
		if v == w {
			continue
		}
		// v beats w iff its score is below bar. Only the word matters
		// here, so no distance bound holds dtw back.
		bar := target
		if v < w {
			bar = math.Nextafter(target, inf)
		}
		ab := terms(v, len(feats), tmpl)
		ab.second, ab.bestScore = math.Inf(-1), bar
		if ab.score(dtw(feats, tmpl, p, rows, ab), p) < bar {
			return false
		}
	}
	return true
}

// SpectralCentroid is the energy-weighted mean frequency of a spectrogram,
// in the same normalized [0, 1] frequency axis the filter bank uses.
func SpectralCentroid(spec Spectrogram) float64 {
	num, den := 0.0, 0.0
	for t := 0; t < spec.T; t++ {
		for f := 0; f < spec.F; f++ {
			freq := float64(f) / float64(spec.F-1)
			e := spec.at(t, f)
			num += freq * e
			den += e
		}
	}
	if den == 0 {
		return 0.5
	}
	return num / den
}

// EstimatePitchShift estimates a speaker's pitch shift from internal state:
// the gap between the audios' mean spectral centroid and the canonical
// vocabulary's. This is information only a white-box tuner can use — the
// black box never sees the spectrograms.
func EstimatePitchShift(audios []Audio) float64 {
	obs := 0.0
	for _, a := range audios {
		obs += SpectralCentroid(a.Spec)
	}
	obs /= float64(len(audios))
	ref := 0.0
	for _, a := range canonical() {
		ref += SpectralCentroid(a.Spec)
	}
	ref /= float64(len(Vocabulary))
	return obs - ref
}

// Precision counts how many of the audios are recognized correctly under
// the given parameters (0..len(audios)), the Fig. 20 metric.
func Precision(audios []Audio, templates [][][]float64, p Params) float64 {
	correct := 0
	for _, a := range audios {
		if Recognize(a, templates, p) == a.Word {
			correct++
		}
	}
	return float64(correct)
}
