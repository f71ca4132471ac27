// Package svm implements a multi-class linear support-vector machine
// trained with the pegasos stochastic subgradient method (one-vs-rest),
// the paper's SVM benchmark (after Joachims' SVM-light multiclass). Eight
// hyper-parameters control regularization, optimization, and featurization;
// several settings reach zero training error while generalizing badly,
// which is exactly the overfitting scenario the paper's k-fold
// cross-validation support exists for (Sec. IV-A, Fig. 17).
package svm

import (
	"math"
	"math/rand"

	"repro/internal/dist"
)

// Params are the eight tunables of Table I's SVM row.
type Params struct {
	Lambda    float64 // regularization strength (log scale)
	Epochs    int     // SGD passes over the data
	Eta0      float64 // initial learning rate
	EtaDecay  float64 // learning-rate decay exponent
	Bias      float64 // bias feature magnitude
	Margin    float64 // hinge margin
	FeatScale float64 // global feature scaling
	PosWeight float64 // weight of positive examples in one-vs-rest
}

// DefaultParams is the untuned configuration.
func DefaultParams() Params {
	return Params{
		Lambda: 1e-4, Epochs: 20, Eta0: 0.5, EtaDecay: 1,
		Bias: 1, Margin: 1, FeatScale: 1, PosWeight: 1,
	}
}

// Work-unit costs: loading/featurizing dominates; each training run is
// moderate.
const (
	WorkLoad     = 16.0
	WorkPerTrain = 1.0
)

// Dataset is a multi-class classification workload.
type Dataset struct {
	X       [][]float64
	Y       []int
	Classes int
}

// Gen builds a workload designed to overfit: informative prototype
// dimensions plus a large block of noise dimensions, with n comparable to
// the dimensionality and label noise.
func Gen(seed int64, n, dim, classes int, labelNoise float64) Dataset {
	if n < classes*4 || dim < classes {
		panic("svm: workload too small")
	}
	r := rand.New(rand.NewSource(int64(dist.Mix(uint64(seed), 0x5F4))))
	info := dim / 4
	if info < 2 {
		info = 2
	}
	protos := make([][]float64, classes)
	for c := range protos {
		p := make([]float64, info)
		for d := range p {
			p[d] = r.NormFloat64() * 1.2
		}
		protos[c] = p
	}
	ds := Dataset{Classes: classes}
	for i := 0; i < n; i++ {
		c := i % classes
		x := make([]float64, dim)
		for d := 0; d < info; d++ {
			x[d] = protos[c][d] + r.NormFloat64()*0.9
		}
		for d := info; d < dim; d++ {
			x[d] = r.NormFloat64() // pure noise a big model can memorize
		}
		y := c
		if r.Float64() < labelNoise {
			y = r.Intn(classes)
		}
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, y)
	}
	return ds
}

// Subset restricts the dataset to the given example indices.
func (ds Dataset) Subset(idx []int) Dataset {
	out := Dataset{Classes: ds.Classes}
	for _, i := range idx {
		out.X = append(out.X, ds.X[i])
		out.Y = append(out.Y, ds.Y[i])
	}
	return out
}

// Split divides the dataset into two halves (train/test) deterministically.
func (ds Dataset) Split() (train, test Dataset) {
	half := len(ds.X) / 2
	a := make([]int, half)
	b := make([]int, len(ds.X)-half)
	for i := range a {
		a[i] = i
	}
	for i := range b {
		b[i] = half + i
	}
	return ds.Subset(a), ds.Subset(b)
}

// Model is a trained one-vs-rest linear classifier.
type Model struct {
	W [][]float64 // per class: weights (last entry is the bias weight)
	p Params
}

// Train fits the model with pegasos SGD, deterministic in seed.
func Train(ds Dataset, p Params, seed int64) *Model {
	p = clampParams(p)
	dim := len(ds.X[0])
	m := &Model{p: p, W: make([][]float64, ds.Classes)}
	for c := range m.W {
		m.W[c] = make([]float64, dim+1)
	}
	r := rand.New(rand.NewSource(int64(dist.Mix(uint64(seed), 0x514D))))
	n := len(ds.X)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	t := 0
	for epoch := 0; epoch < p.Epochs; epoch++ {
		r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			t++
			eta := p.Eta0 / math.Pow(float64(t), p.EtaDecay)
			k := 1 - eta*p.Lambda
			x := ds.X[i]
			for c, w := range m.W {
				y := -1.0
				weight := 1.0
				if ds.Y[i] == c {
					y = 1
					weight = p.PosWeight
				}
				// score, with the regularization shrink applied to each
				// weight once the sum has read it.
				score := 0.0
				for d, xd := range x {
					score += w[d] * xd * p.FeatScale
					w[d] *= k
				}
				score += w[dim] * p.Bias
				w[dim] *= k
				if y*score < p.Margin {
					g := eta * weight * y
					for d, xd := range x {
						w[d] += g * xd * p.FeatScale
					}
					w[dim] += g * p.Bias
				}
			}
		}
	}
	return m
}

func clampParams(p Params) Params {
	if p.Lambda < 0 {
		p.Lambda = 0
	}
	if p.Epochs < 1 {
		p.Epochs = 1
	}
	if p.Eta0 <= 0 {
		p.Eta0 = 0.01
	}
	if p.EtaDecay < 0 {
		p.EtaDecay = 0
	}
	if p.EtaDecay > 2 {
		p.EtaDecay = 2
	}
	if p.FeatScale <= 0 {
		p.FeatScale = 1e-3
	}
	if p.PosWeight <= 0 {
		p.PosWeight = 1e-3
	}
	if p.Margin < 0 {
		p.Margin = 0
	}
	return p
}

func (m *Model) score(c int, x []float64) float64 {
	w := m.W[c]
	s := 0.0
	for d := range x {
		s += w[d] * x[d] * m.p.FeatScale
	}
	return s + w[len(x)]*m.p.Bias
}

// Predict classifies one example by the highest one-vs-rest score.
func (m *Model) Predict(x []float64) int {
	best, bestS := 0, math.Inf(-1)
	for c := range m.W {
		if s := m.score(c, x); s > bestS {
			best, bestS = c, s
		}
	}
	return best
}

// ErrorRate is the misclassification rate on a dataset (lower is better).
func ErrorRate(m *Model, ds Dataset) float64 {
	if len(ds.X) == 0 {
		return 0
	}
	wrong := 0
	for i, x := range ds.X {
		if m.Predict(x) != ds.Y[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(len(ds.X))
}

// Folds partitions example indices into k contiguous folds for
// cross-validation. Contiguous blocks keep folds class-balanced for the
// round-robin labelled datasets Gen produces (a stride-k partition would
// put a whole class into one fold whenever k divides the class count).
func Folds(n, k int) [][]int {
	if k < 2 {
		panic("svm: need k >= 2 folds")
	}
	out := make([][]int, k)
	for i := 0; i < n; i++ {
		f := i * k / n
		out[f] = append(out[f], i)
	}
	return out
}

// TrainFold trains on every fold except hold and evaluates on hold,
// returning the validation error — one SVG member's computation in the
// paper's tuning-validation model (Fig. 9).
func TrainFold(ds Dataset, p Params, folds [][]int, hold int, seed int64) float64 {
	var trainIdx []int
	for f, idx := range folds {
		if f != hold {
			trainIdx = append(trainIdx, idx...)
		}
	}
	m := Train(ds.Subset(trainIdx), p, seed)
	return ErrorRate(m, ds.Subset(folds[hold]))
}
