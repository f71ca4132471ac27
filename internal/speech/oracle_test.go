package speech

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dist"
)

// refDTW is the full-band DTW the early-abandoning one replaced: every cell
// of the band is filled, dead or not, and every row runs to the end.
func refDTW(a, b [][]float64, p Params) float64 {
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
	const inf = math.MaxFloat64 / 4
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
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
			d := refFrameDist(a[i-1], b[j-1], exp)
			best := math.Min(prev[j], math.Min(cur[j-1], prev[j-1]))
			cur[j] = d + best
			if cur[j] < rowBest {
				rowBest = cur[j]
			}
		}
		if p.BeamWidth > 0 && rowBest < inf {
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
		return math.Inf(1)
	}
	return prev[m] / float64(n+m)
}

// refFrameDist is frameDist as it was before its exponent plans: two
// math.Pow calls per element and per frame.
func refFrameDist(a, b []float64, exp float64) float64 {
	n := min(len(a), len(b))
	s := 0.0
	for i := 0; i < n; i++ {
		s += math.Pow(math.Abs(a[i]-b[i]), exp)
	}
	return math.Pow(s/float64(n), 1/exp)
}

// refDecode is what Decode replaced: Recognize's word loop and the
// benchmark's separate margin loop, which each ran refDTW once per template.
// The distances are deterministic, so one refDTW per template serves both.
func refDecode(a Audio, templates [][][]float64, p Params) (word int, best, second float64) {
	feats := Features(a.Spec, p)
	bestScore := math.Inf(1)
	best, second = math.Inf(1), math.Inf(1)
	for w, tmpl := range templates {
		d := refDTW(feats, tmpl, p)
		prior := math.Log(float64(w) + 1.5)
		mismatch := math.Abs(float64(len(feats)-len(tmpl))) / float64(len(tmpl)+1)
		score := d + p.LangWeight*prior + p.InsertPenalty*mismatch
		if score < bestScore {
			word, bestScore = w, score
		}
		if d < best {
			best, second = d, best
		} else if d < second {
			second = d
		}
	}
	return word, best, second
}

// refSelfTest is the self-test as a full decode of every calibration word:
// the count, and which words were recognized.
func refSelfTest(templates [][][]float64, p Params) (float64, []bool) {
	cal := Speaker{Pitch: 0, Rate: 0.9, Noise: 0.02}
	correct := 0
	won := make([]bool, len(Vocabulary))
	for w := range Vocabulary {
		if rw, _, _ := refDecode(Synthesize(0xCA1, cal, w), templates, p); rw == w {
			correct++
			won[w] = true
		}
	}
	return float64(correct), won
}

// checkWins holds wins to the full decode for every calibration word.
func checkWins(t *testing.T, label string, templates [][][]float64, p Params, want []bool) {
	t.Helper()
	cal := Speaker{Pitch: 0, Rate: 0.9, Noise: 0.02}
	var rows dtwRows
	for w := range Vocabulary {
		if got := wins(Synthesize(0xCA1, cal, w), w, templates, p, &rows); got != want[w] {
			t.Errorf("%s: wins(word %d) = %v, full decode %v (%+v)", label, w, got, want[w], p)
		}
	}
}

// randomParams draws a configuration from the ranges the Speech benchmark
// tunes over.
func randomParams(r *rand.Rand) Params {
	u := func(lo, hi float64) float64 { return dist.Uniform(lo, hi).Draw(r) }
	n := func(lo, hi int) int { return int(dist.IntRange(lo, hi).Draw(r)) }
	return Params{
		FilterLow: u(0, 0.3), FilterHigh: u(0.6, 1),
		NumFilters: n(6, 20), FrameLen: n(3, 6), FrameShift: n(1, 3),
		Preemph: u(0, 0.8), EnergyFloor: dist.LogUniform(1e-6, 1e-3).Draw(r),
		NoiseGate: u(0, 0.25), DTWBand: n(8, 40), DistExponent: u(0.8, 2.5),
		LangWeight: u(0, 0.2), InsertPenalty: u(0, 1),
		TemplateSmooth: u(0, 0.6), WarpAlpha: u(-0.25, 0.25),
		SilenceThresh: u(0, 0.2), BeamWidth: u(2, 10),
	}
}

// TestDecodeMatchesFullBandOracle checks that the one early-abandoning
// decode pass returns bit for bit what the full-band Recognize and the
// separate margin pass returned, that the self-test's check of whether the
// right word wins agrees with a full decode word by word, and that
// SelfTest's early stop keeps its count (need 0) and its >= 8 verdict
// (need 8).
func TestDecodeMatchesFullBandOracle(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	var configs []Params
	// Edge rows, each on the defaults and on two random configurations:
	// every row dies under a near-zero beam, the narrowest band, score ties
	// between templates, a score dominated by the insertion penalty, and
	// the exponent the defaults use.
	edges := []func(*Params){
		func(p *Params) { p.BeamWidth = 1e-9 },
		func(p *Params) { p.DTWBand = 1 },
		func(p *Params) { p.LangWeight, p.InsertPenalty = 0, 0 },
		func(p *Params) { p.InsertPenalty = 50 },
		func(p *Params) { p.DistExponent = 2 },
	}
	for _, edge := range edges {
		for _, base := range []Params{DefaultParams(), randomParams(r), randomParams(r)} {
			edge(&base)
			configs = append(configs, base)
		}
	}
	for len(configs) < 515 {
		configs = append(configs, randomParams(r))
	}
	sets := make([][]Audio, 10)
	for s := range sets {
		_, sets[s] = GenSpeakerSet(int64(s)+1, s, speechTestAudios)
	}
	check := func(i int, p Params) {
		tmpl := Templates(p)
		want, won := refSelfTest(tmpl, p)
		checkWins(t, fmt.Sprintf("config %d", i), tmpl, p, won)
		if got := SelfTest(tmpl, p, 0); got != want {
			t.Errorf("config %d: SelfTest(need 0) = %g, oracle %g (%+v)", i, got, want, p)
		}
		if got := SelfTest(tmpl, p, 8) >= 8; got != (want >= 8) {
			t.Errorf("config %d: SelfTest(need 8) >= 8 is %v, oracle count %g (%+v)", i, got, want, p)
		}
		// Each configuration decodes one speaker set; the sets cycle 0-9.
		audios := sets[i%len(sets)]
		total, refTotal := 0.0, 0.0
		for k, a := range audios {
			w, margin := Decode(a, tmpl, p)
			rw, best, second := refDecode(a, tmpl, p)
			if w != rw {
				t.Errorf("config %d audio %d: Decode word %d, oracle %d (%+v)", i, k, w, rw, p)
			}
			total += margin
			// The benchmark's old margin loop, verbatim.
			if !math.IsInf(second, 1) && !math.IsInf(best, 1) {
				refTotal += second - best
				if math.Float64bits(margin) != math.Float64bits(second-best) {
					t.Errorf("config %d audio %d: Decode margin %v, oracle %v (%+v)", i, k, margin, second-best, p)
				}
			} else if margin != 0 {
				t.Errorf("config %d audio %d: Decode margin %v, oracle none (%+v)", i, k, margin, p)
			}
		}
		mean, refMean := total/float64(len(audios)), refTotal/float64(len(audios))
		if math.Float64bits(mean) != math.Float64bits(refMean) {
			t.Errorf("config %d: mean margin %v, oracle %v", i, mean, refMean)
		}
	}
	// The configurations are independent: spread them over the CPUs.
	next := make(chan int)
	var wg sync.WaitGroup
	for n := runtime.GOMAXPROCS(0); n > 0; n-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				check(i, configs[i])
			}
		}()
	}
	for i := range configs {
		next <- i
	}
	close(next)
	wg.Wait()
}

// TestDTWMatchesFullBandOracle holds fullDTW to refDTW bit for bit on the
// distance itself, template by template: the cells dtw skips under the
// beam must be exactly the ones the beam would have cut. Each edge beam (a
// near-zero one, ones narrower and wider than a frame distance, +Inf and
// disabled) runs on the defaults and on two random configurations.
func TestDTWMatchesFullBandOracle(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	var configs []Params
	for _, beam := range []float64{1e-9, 0.25, 2, math.Inf(1), 0} {
		for _, base := range []Params{DefaultParams(), randomParams(r), randomParams(r)} {
			base.BeamWidth = beam
			configs = append(configs, base)
		}
	}
	for len(configs) < 515 {
		configs = append(configs, randomParams(r))
	}
	cut := 0
	for i, p := range configs {
		tmpl := Templates(p)
		_, audios := GenSpeakerSet(int64(i)+1, i%10, 1)
		feats := Features(audios[0].Spec, p)
		for w, tm := range tmpl {
			got, want := fullDTW(feats, tm, p), refDTW(feats, tm, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("config %d template %d: DTW %v, oracle %v (%+v)", i, w, got, want, p)
			}
			if math.IsInf(want, 1) {
				cut++
			}
		}
	}
	if cut == 0 {
		t.Error("no template was cut by the beam; the near-zero beam rows exercise nothing")
	}
}

// TestWinsBreaksTiesLikeDecode gives some words an exact copy of another
// word's template. With no language weight their scores tie exactly, and
// Decode keeps the earlier word: the self-test must count the earlier word
// of each copied pair and never the later one.
func TestWinsBreaksTiesLikeDecode(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	ties := 0
	for i := 0; i < 24; i++ {
		p := DefaultParams()
		if i > 0 {
			p = randomParams(r)
		}
		p.LangWeight = 0
		tmpl := Templates(p)
		// Copy each of three templates over another, in both directions.
		for k := 0; k < 3; k++ {
			a, b := r.Intn(len(tmpl)), r.Intn(len(tmpl))
			tmpl[b] = tmpl[a]
		}
		want, won := refSelfTest(tmpl, p)
		checkWins(t, fmt.Sprintf("config %d", i), tmpl, p, won)
		if got := SelfTest(tmpl, p, 0); got != want {
			t.Errorf("config %d: SelfTest(need 0) = %g, oracle %g", i, got, want)
		}
		for w := range tmpl {
			for v := w + 1; v < len(tmpl); v++ {
				if &tmpl[w][0] == &tmpl[v][0] && won[w] {
					ties++
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no copied template won its tie; the test exercises nothing")
	}
}

// speechTestAudios matches the Speech benchmark's utterances per set.
const speechTestAudios = 5

func BenchmarkDecode(b *testing.B) {
	p := DefaultParams()
	p.DTWBand, p.BeamWidth, p.DistExponent = 20, 4, 1.7
	tmpl := Templates(p)
	_, audios := GenSpeakerSet(1, 0, speechTestAudios)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range audios {
			benchWord, benchMargin = Decode(a, tmpl, p)
		}
	}
}

func BenchmarkSelfTest(b *testing.B) {
	p := DefaultParams()
	p.DTWBand, p.BeamWidth, p.DistExponent = 20, 4, 1.7
	tmpl := Templates(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchMargin = SelfTest(tmpl, p, 8)
	}
}

var (
	benchWord   int
	benchMargin float64
)

// fullDTW is dtw with no running bests, so it never abandons: the whole
// band-constrained distance.
func fullDTW(a, b [][]float64, p Params) float64 {
	inf := math.Inf(1)
	return dtw(a, b, p, &dtwRows{}, abandon{second: inf, bestScore: inf})
}
