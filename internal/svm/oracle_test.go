package svm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
)

// threePassTrain is Train as it was before the shrink moved into the
// scoring pass: per class it scores, then shrinks every weight, then
// applies the hinge step, each in its own pass over the weights. It is the
// oracle TestTrainMatchesThreePassOracle holds Train to.
func threePassTrain(ds Dataset, p Params, seed int64) *Model {
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
			for c := 0; c < ds.Classes; c++ {
				y := -1.0
				weight := 1.0
				if ds.Y[i] == c {
					y = 1
					weight = p.PosWeight
				}
				score := m.score(c, ds.X[i])
				for d := range m.W[c] {
					m.W[c][d] *= 1 - eta*p.Lambda
				}
				if y*score < p.Margin {
					g := eta * weight * y
					for d := 0; d < dim; d++ {
						m.W[c][d] += g * ds.X[i][d] * p.FeatScale
					}
					m.W[c][dim] += g * p.Bias
				}
			}
		}
	}
	return m
}

// TestTrainMatchesThreePassOracle trains on the SVM datasets of seeds 1-4
// under the defaults, clamped corner values and random draws from the
// tuning space, and requires bit-identical weights.
func TestTrainMatchesThreePassOracle(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	params := []Params{
		DefaultParams(),
		{Lambda: 0, Epochs: 0, Eta0: 0, EtaDecay: -1, Bias: 0, Margin: -1, FeatScale: 0, PosWeight: 0},
		{Lambda: 1, Epochs: 3, Eta0: 2, EtaDecay: 3, Bias: 3, Margin: 3, FeatScale: 10, PosWeight: 3},
	}
	for i := 0; i < 8; i++ {
		params = append(params, Params{
			Lambda: math.Exp(math.Log(1e-7) * r.Float64()), Epochs: 5 + r.Intn(20),
			Eta0: 0.01 + 2*r.Float64(), EtaDecay: 0.3 + 0.9*r.Float64(),
			Bias: 3 * r.Float64(), Margin: 0.2 + 2.8*r.Float64(),
			FeatScale: 0.1 + 9.9*r.Float64(), PosWeight: 0.3 + 2.7*r.Float64(),
		})
	}
	for seed := int64(1); seed <= 4; seed++ {
		train, _ := Gen(seed, 120, 60, 3, 0.12).Split()
		for _, p := range params {
			got, want := Train(train, p, seed), threePassTrain(train, p, seed)
			for c := range want.W {
				for d := range want.W[c] {
					if math.Float64bits(got.W[c][d]) != math.Float64bits(want.W[c][d]) {
						t.Fatalf("seed %d %+v: W[%d][%d] = %v, three-pass oracle %v", seed, p, c, d, got.W[c][d], want.W[c][d])
					}
				}
			}
		}
	}
}

func BenchmarkSVMTrain(b *testing.B) {
	train, _ := Gen(1, 120, 60, 3, 0.12).Split()
	p := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchModel = Train(train, p, 1)
	}
}

var benchModel *Model
