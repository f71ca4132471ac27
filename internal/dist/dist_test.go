package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestUniformDrawInBounds(t *testing.T) {
	d := Uniform(-2, 5)
	r := rng(1)
	for i := 0; i < 1000; i++ {
		v := d.Draw(r)
		if v < -2 || v > 5 {
			t.Fatalf("draw %g out of [-2, 5]", v)
		}
	}
}

func TestUniformMeanApprox(t *testing.T) {
	d := Uniform(0, 10)
	r := rng(2)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += d.Draw(r)
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.1 {
		t.Fatalf("uniform mean = %g, want ~5", mean)
	}
}

func TestUniformPerturbStaysInBounds(t *testing.T) {
	d := Uniform(0, 1)
	r := rng(3)
	cur := 0.99
	for i := 0; i < 500; i++ {
		cur = d.Perturb(r, cur, 0.5)
		if cur < 0 || cur > 1 {
			t.Fatalf("perturb escaped bounds: %g", cur)
		}
	}
}

func TestUniformInvertedBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inverted bounds")
		}
	}()
	Uniform(5, 1)
}

func TestLogUniformDrawInBounds(t *testing.T) {
	d := LogUniform(1e-3, 1e3)
	r := rng(4)
	for i := 0; i < 1000; i++ {
		v := d.Draw(r)
		if v < 1e-3 || v > 1e3 {
			t.Fatalf("draw %g out of support", v)
		}
	}
}

func TestLogUniformMedianApproxOne(t *testing.T) {
	// Support [1e-3, 1e3] is symmetric in log space around 1, so the
	// median of many draws should be near 1.
	d := LogUniform(1e-3, 1e3)
	r := rng(5)
	below := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if d.Draw(r) < 1 {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("fraction below 1 = %g, want ~0.5", frac)
	}
}

func TestLogUniformRejectsBadBounds(t *testing.T) {
	for _, tc := range [][2]float64{{0, 1}, {-1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LogUniform(%g, %g) did not panic", tc[0], tc[1])
				}
			}()
			LogUniform(tc[0], tc[1])
		}()
	}
}

func TestLogUniformPerturbFromZero(t *testing.T) {
	d := LogUniform(0.1, 10)
	v := d.Perturb(rng(6), 0, 0.5) // cur <= 0 must not produce NaN
	if math.IsNaN(v) || v < 0.1 || v > 10 {
		t.Fatalf("perturb from 0 gave %g", v)
	}
}

func TestIntRangeDrawsIntegers(t *testing.T) {
	d := IntRange(3, 9)
	r := rng(7)
	seen := map[float64]bool{}
	for i := 0; i < 2000; i++ {
		v := d.Draw(r)
		if v != math.Trunc(v) || v < 3 || v > 9 {
			t.Fatalf("draw %g is not an integer in [3, 9]", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("expected all 7 values drawn, saw %d", len(seen))
	}
}

func TestIntRangePerturbMovesAtLeastOneStep(t *testing.T) {
	d := IntRange(0, 100)
	r := rng(8)
	moved := false
	for i := 0; i < 200; i++ {
		if d.Perturb(r, 50, 0.01) != 50 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("perturb with tiny scale never moved; minimum step should be 1")
	}
}

func TestIntRangeClampRounds(t *testing.T) {
	d := IntRange(0, 10)
	if got := d.Clamp(4.6); got != 5 {
		t.Fatalf("Clamp(4.6) = %g, want 5", got)
	}
	if got := d.Clamp(-3); got != 0 {
		t.Fatalf("Clamp(-3) = %g, want 0", got)
	}
	if got := d.Clamp(99); got != 10 {
		t.Fatalf("Clamp(99) = %g, want 10", got)
	}
}

func TestChoiceCoversAllOptions(t *testing.T) {
	d := Choice(4)
	r := rng(9)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[int(d.Draw(r))]++
	}
	for i, c := range counts {
		if c < 800 {
			t.Fatalf("option %d drawn only %d/4000 times", i, c)
		}
	}
}

func TestChoicePerturbKeepsWithLowScale(t *testing.T) {
	d := Choice(10)
	r := rng(10)
	kept := 0
	for i := 0; i < 1000; i++ {
		if d.Perturb(r, 3, 0.1) == 3 {
			kept++
		}
	}
	if kept < 800 {
		t.Fatalf("low-scale perturb kept current value only %d/1000 times", kept)
	}
}

func TestChoiceZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Choice(0) should panic")
		}
	}()
	Choice(0)
}

// Property: for every distribution, Clamp is idempotent and Perturb results
// are always inside Bounds.
func TestPropertyPerturbWithinBounds(t *testing.T) {
	dists := []struct {
		d      Dist
		lo, hi float64
	}{{Uniform(-1, 1), -1, 1}, {LogUniform(0.01, 100), 0.01, 100}, {IntRange(-5, 5), -5, 5}, {Choice(7), 0, 6}}
	f := func(seed int64, cur, scale float64) bool {
		if math.IsNaN(cur) || math.IsInf(cur, 0) {
			return true
		}
		scale = math.Mod(math.Abs(scale), 1)
		if scale == 0 {
			scale = 0.5
		}
		r := rng(seed)
		for _, b := range dists {
			d, lo, hi := b.d, b.lo, b.hi
			v := d.Perturb(r, d.Clamp(cur), scale)
			if v < lo || v > hi {
				return false
			}
			if d.Clamp(v) != d.Clamp(d.Clamp(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNewRandStreamsDiffer(t *testing.T) {
	a := NewRand(42, 0)
	b := NewRand(42, 1)
	same := 0
	for i := 0; i < 32; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 0 and 1 coincide on %d/32 draws", same)
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a := NewRand(7, 3)
	b := NewRand(7, 3)
	for i := 0; i < 16; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed, stream) must reproduce the same sequence")
		}
	}
}

func TestMixAvalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := Mix(12345, 678)
	flipped := Mix(12345^1, 678)
	diff := base ^ flipped
	bits := 0
	for diff != 0 {
		bits += int(diff & 1)
		diff >>= 1
	}
	if bits < 16 || bits > 48 {
		t.Fatalf("avalanche too weak: %d differing bits", bits)
	}
}
