package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestPowPlanMatchesPow holds PowPlan to math.Pow bit for bit. Exponents:
// random ones in [0.25, 4] and their reciprocals (the Speech and Face Rec
// ranges), integers, halves, the values Pow special-cases, and huge ones.
// Bases: ±0, subnormals, 1 and its neighbors, huge and tiny values, ±Inf,
// NaN, negatives, and random values.
func TestPowPlanMatchesPow(t *testing.T) {
	r := rand.New(rand.NewSource(4343))
	ys := []float64{0, math.Copysign(0, -1), 1, -1, 2, -2, 3, 0.5, -0.5, 1.5, 2.5, 0.25, 4, 1.0 / 3,
		math.Nextafter(0.5, 1), math.Nextafter(0.5, 0), 1 << 62, 1 << 63, -(1 << 64), 1e300,
		math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for range 200 {
		y := 0.25 + 3.75*r.Float64()
		ys = append(ys, y, 1/y, -y)
	}
	xs := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1040, 1e-300,
		1, math.Nextafter(1, 2), math.Nextafter(1, 0), 1e300, math.MaxFloat64, 0x1p1000,
		math.Inf(1), math.Inf(-1), math.NaN(), -1, -2, -0.5, -math.MaxFloat64, 2, 0.5, 10}
	for range 200 {
		xs = append(xs, r.Float64(), r.ExpFloat64()*100, math.Ldexp(r.Float64(), r.Intn(2000)-1000))
	}
	for _, y := range ys {
		plan := NewPowPlan(y)
		for _, x := range xs {
			got, want := plan.Pow(x), math.Pow(x, y)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Pow(%v, %v): plan %v (%#x), math.Pow %v (%#x)", x, y, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func BenchmarkPowPlan(b *testing.B) {
	xs := make([]float64, 1024)
	r := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = r.Float64()
	}
	b.Run("math.Pow", func(b *testing.B) {
		s := 0.0
		for i := 0; i < b.N; i++ {
			s += math.Pow(xs[i%len(xs)], 2.7)
		}
		powSink = s
	})
	b.Run("PowPlan", func(b *testing.B) {
		plan := NewPowPlan(2.7)
		s := 0.0
		for i := 0; i < b.N; i++ {
			s += plan.Pow(xs[i%len(xs)])
		}
		powSink = s
	})
}

var powSink float64
