package facerec

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// refMinkowski is minkowski as it was before its exponent plans: two
// math.Pow calls per element and per vector.
func refMinkowski(a, b []float64, p float64) float64 {
	s := 0.0
	for i := range a {
		s += math.Pow(math.Abs(a[i]-b[i]), p)
	}
	return math.Pow(s, 1/p)
}

// TestMinkowskiMatchesPowOracle holds every probe-to-gallery distance, and
// each probe's nearest subject and distance, to the math.Pow distance bit
// for bit, for exponents at and beyond both clamps, integers, halves and
// random ones from the tuned range [0.5, 4].
func TestMinkowskiMatchesPowOracle(t *testing.T) {
	ds := Gen(3, 10, 32, 5, 0.2)
	r := rand.New(rand.NewSource(43))
	exps := []float64{0, 0.25, 0.5, 1, 1.5, 2, 3, 4, 9}
	for range 40 {
		exps = append(exps, 0.5+3.5*r.Float64())
	}
	for _, e := range exps {
		m := Train(ds, Params{Components: 1 + r.Intn(32), Exponent: e, Threshold: 1})
		pow, root := stats.NewPowPlan(m.p.Exponent), stats.NewPowPlan(1/m.p.Exponent)
		for i, probe := range ds.Probes {
			pv := project(probe, m.dims)
			want, wantD := -1, math.Inf(1)
			for s, g := range m.gallery {
				got, ref := minkowski(pv, g, &pow, &root), refMinkowski(pv, g, m.p.Exponent)
				if math.Float64bits(got) != math.Float64bits(ref) {
					t.Fatalf("exponent %v probe %d subject %d: distance %v, math.Pow %v", e, i, s, got, ref)
				}
				if ref < wantD {
					want, wantD = s, ref
				}
			}
			if got, gotD := m.nearest(probe); got != want || math.Float64bits(gotD) != math.Float64bits(wantD) {
				t.Fatalf("exponent %v probe %d: nearest %d at %v, oracle %d at %v", e, i, got, gotD, want, wantD)
			}
		}
	}
}
