package watershed

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/img"
)

// TestKthSmallestMatchesSort holds kthSmallest to sort.Float64s at every
// rank: on random slices drawn from a few values (so most are ties), from
// values that include -0 and +0, on sorted, reversed and constant
// slices, on the gradient topographies markers thresholds, and on slices
// holding NaN, which take the sorting fallback. The two agree bit for bit
// except that either zero may stand for the other: sort.Float64s leaves
// equal values in no set order either.
func TestKthSmallestMatchesSort(t *testing.T) {
	negZero := math.Copysign(0, -1)
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || a == 0 && b == 0
	}
	check := func(what string, vals []float64) {
		t.Helper()
		sorted := slices.Clone(vals)
		sort.Float64s(sorted)
		for k := range vals {
			if got := kthSmallest(slices.Clone(vals), k); !same(got, sorted[k]) {
				t.Fatalf("%s: rank %d of %d = %v, sort gives %v", what, k, len(vals), got, sorted[k])
			}
		}
	}
	r := rand.New(rand.NewSource(4343))
	for trial := 0; trial < 300; trial++ {
		pool := []float64{negZero, 0, 1, -1, 0.5, math.Inf(1), math.Inf(-1), r.Float64()}[:1+r.Intn(8)]
		vals := make([]float64, 1+r.Intn(70))
		for i := range vals {
			vals[i] = pool[r.Intn(len(pool))]
		}
		check("pool", vals)
		if trial%3 == 0 {
			vals[r.Intn(len(vals))] = math.NaN()
			check("pool with NaN", vals)
		}
	}
	ramp := make([]float64, 257)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	check("sorted", ramp)
	slices.Reverse(ramp)
	check("reversed", ramp)
	check("constant", make([]float64, 64))
	check("all NaN", []float64{math.NaN(), math.NaN(), math.NaN()})
	for _, name := range img.SceneNames {
		check(name, img.Gradient(img.Smooth(img.GenDataset(name, 48, 48, 3).Noisy, 1)).Pix)
	}
}

// TestNonFiniteParamsPanic requires Segment to refuse a NaN parameter or
// an infinite Sigma by name, and GaussianKernel a non-finite sigma,
// instead of indexing with int(NaN) or smoothing with a NaN kernel.
func TestNonFiniteParamsPanic(t *testing.T) {
	in := img.GenDataset("trashcan", 48, 48, 1).Noisy
	nan := math.NaN()
	for _, tc := range []struct {
		p    Params
		want string
	}{
		{Params{Sigma: nan, MarkerThr: 0.2, MinMarkerDx: 4}, "Sigma"},
		{Params{Sigma: math.Inf(1), MarkerThr: 0.2, MinMarkerDx: 4}, "Sigma"},
		{Params{Sigma: math.Inf(-1), MarkerThr: 0.2, MinMarkerDx: 4}, "Sigma"},
		{Params{Sigma: 1, MarkerThr: nan, MinMarkerDx: 4}, "MarkerThr"},
		{Params{Sigma: 1, MarkerThr: 0.2, MinMarkerDx: nan}, "MinMarkerDx"},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("Segment(%+v) panicked with %q, want a message naming %s", tc.p, msg, tc.want)
				}
			}()
			Segment(in, tc.p)
		}()
	}
	for _, sigma := range []float64{nan, math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GaussianKernel(%v) did not panic", sigma)
				}
			}()
			img.GaussianKernel(sigma)
		}()
	}
	// Infinite marker parameters are well defined: the quantile clamps
	// and the distance admits one marker or all of them.
	for _, p := range []Params{{1, math.Inf(1), 4}, {1, math.Inf(-1), 4}, {1, 0.2, math.Inf(1)}, {1, 0.2, math.Inf(-1)}} {
		Segment(in, p)
	}
}
