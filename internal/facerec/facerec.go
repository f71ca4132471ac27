// Package facerec implements a subspace face-identification pipeline in the
// style of the CSU face identification evaluation system (Bolme et al.),
// the paper's Face Rec benchmark. Faces are feature vectors; the gallery
// defines per-subject prototypes; probes are identified by nearest
// prototype in a variance-ranked subspace. The three tunable parameters are
// the subspace dimensionality, the Minkowski distance exponent, and the
// rejection threshold (probes farther than it from every prototype are
// rejected as impostors). The score is the identification error rate
// (lower is better, aggregated with MIN).
package facerec

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/dist"
	"repro/internal/stats"
)

// Params are the recognizer's tunables.
type Params struct {
	Components int     // subspace dimensionality (top-variance features)
	Exponent   float64 // Minkowski distance exponent p
	Threshold  float64 // rejection distance
}

// DefaultParams is the untuned configuration.
func DefaultParams() Params { return Params{Components: 8, Exponent: 2, Threshold: 1e9} }

// WorkTrain and WorkPerProbe are the work-unit costs: building the gallery
// model is the expensive preprocessing stage, probing is cheap.
const (
	WorkTrain    = 15.0
	WorkPerProbe = 0.05
)

// Dataset is a face identification workload.
type Dataset struct {
	Dim      int
	Gallery  [][]float64 // one enrollment vector per subject
	Probes   [][]float64
	ProbeIDs []int // subject of each probe; -1 marks an impostor
}

// Gen builds a synthetic workload: subjects are random prototypes, genuine
// probes are noisy copies, impostors are fresh random vectors. A block of
// nuisance dimensions carries pure noise, so keeping too many components
// hurts — that is what makes Components worth tuning.
func Gen(seed int64, subjects, dim, probesPerSubject int, impostorFrac float64) Dataset {
	if subjects < 2 || dim < 4 {
		panic("facerec: need >= 2 subjects and >= 4 dims")
	}
	r := rand.New(rand.NewSource(int64(dist.Mix(uint64(seed), 0xFACE))))
	signalDims := dim / 2 // the rest is nuisance noise
	ds := Dataset{Dim: dim}
	protos := make([][]float64, subjects)
	for s := range protos {
		p := make([]float64, dim)
		for d := 0; d < signalDims; d++ {
			p[d] = r.NormFloat64() * 2
		}
		protos[s] = p
		enroll := perturb(r, p, signalDims, 0.3)
		ds.Gallery = append(ds.Gallery, enroll)
	}
	for s := range protos {
		for i := 0; i < probesPerSubject; i++ {
			ds.Probes = append(ds.Probes, perturb(r, protos[s], signalDims, 0.4))
			ds.ProbeIDs = append(ds.ProbeIDs, s)
		}
	}
	nImp := int(float64(len(ds.Probes)) * impostorFrac)
	for i := 0; i < nImp; i++ {
		imp := make([]float64, dim)
		for d := 0; d < signalDims; d++ {
			imp[d] = r.NormFloat64() * 2
		}
		addNuisance(r, imp, signalDims)
		ds.Probes = append(ds.Probes, imp)
		ds.ProbeIDs = append(ds.ProbeIDs, -1)
	}
	return ds
}

func perturb(r *rand.Rand, p []float64, signalDims int, sigma float64) []float64 {
	out := make([]float64, len(p))
	for d := 0; d < signalDims; d++ {
		out[d] = p[d] + r.NormFloat64()*sigma
	}
	addNuisance(r, out, signalDims)
	return out
}

// addNuisance fills the non-signal dimensions with noise. Its per-dimension
// variance (1) is below the signal variance (~4), so variance ranking finds
// the signal dims first — but any nuisance dim that is kept adds identical
// noise to every comparison and dilutes discrimination, which is what makes
// Components worth tuning.
func addNuisance(r *rand.Rand, v []float64, signalDims int) {
	for d := signalDims; d < len(v); d++ {
		v[d] = r.NormFloat64()
	}
}

// Model is a trained recognizer: the selected feature subset plus the
// gallery projected into it.
type Model struct {
	dims    []int
	gallery [][]float64
	p       Params
}

// Train ranks features by gallery variance, keeps the top Components, and
// projects the gallery. This is the expensive stage white-box tuning reuses.
func Train(ds Dataset, p Params) *Model {
	if p.Components < 1 {
		p.Components = 1
	}
	if p.Components > ds.Dim {
		p.Components = ds.Dim
	}
	if p.Exponent < 0.25 {
		p.Exponent = 0.25
	}
	vars := make([]float64, ds.Dim)
	for d := 0; d < ds.Dim; d++ {
		mean := 0.0
		for _, g := range ds.Gallery {
			mean += g[d]
		}
		mean /= float64(len(ds.Gallery))
		for _, g := range ds.Gallery {
			vars[d] += (g[d] - mean) * (g[d] - mean)
		}
	}
	idx := make([]int, ds.Dim)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vars[idx[a]] > vars[idx[b]] })
	dims := idx[:p.Components]

	m := &Model{dims: append([]int(nil), dims...), p: p}
	for _, g := range ds.Gallery {
		m.gallery = append(m.gallery, project(g, m.dims))
	}
	return m
}

func project(v []float64, dims []int) []float64 {
	out := make([]float64, len(dims))
	for i, d := range dims {
		out[i] = v[d]
	}
	return out
}

// Identify classifies one probe: the nearest gallery subject, or -1 when
// the distance exceeds the rejection threshold.
func (m *Model) Identify(probe []float64) int {
	best, bestD := m.nearest(probe)
	if bestD > m.p.Threshold {
		return -1
	}
	return best
}

// nearest returns the gallery subject nearest to the probe and its
// distance.
func (m *Model) nearest(probe []float64) (best int, bestD float64) {
	pv := project(probe, m.dims)
	pow, root := stats.NewPowPlan(m.p.Exponent), stats.NewPowPlan(1/m.p.Exponent)
	best, bestD = -1, math.Inf(1)
	for s, g := range m.gallery {
		if d := minkowski(pv, g, &pow, &root); d < bestD {
			best, bestD = s, d
		}
	}
	return best, bestD
}

// minkowski is the Minkowski distance of two vectors: pow and root are
// the plans for the exponent and its reciprocal.
func minkowski(a, b []float64, pow, root *stats.PowPlan) float64 {
	s := 0.0
	for i := range a {
		s += pow.Pow(math.Abs(a[i] - b[i]))
	}
	return root.Pow(s)
}

// Error runs every probe and returns the identification error rate: a
// genuine probe must be identified as its subject, an impostor must be
// rejected. Lower is better.
func Error(ds Dataset, m *Model) float64 {
	wrong := 0
	for i, probe := range ds.Probes {
		if m.Identify(probe) != ds.ProbeIDs[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(len(ds.Probes))
}
