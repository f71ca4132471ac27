package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanBasics(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %g, want 2.5", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) should be 0")
	}
}

func TestMSERMSE(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 2, 5}
	if got := MSE(a, b); !almost(got, 4.0/3, 1e-12) {
		t.Fatalf("MSE = %g", got)
	}
	if got := RMSE(a, b); !almost(got, math.Sqrt(4.0/3), 1e-12) {
		t.Fatalf("RMSE = %g", got)
	}
	if RMSE(a, a) != 0 {
		t.Fatal("RMSE of identical slices must be 0")
	}
}

func TestMSELengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MSE([]float64{1}, []float64{1, 2})
}

func TestSSIMIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	img := make([]float64, 32*32)
	for i := range img {
		img[i] = r.Float64()
	}
	if got := SSIM(img, img, 32); !almost(got, 1, 1e-9) {
		t.Fatalf("SSIM(x, x) = %g, want 1", got)
	}
}

func TestSSIMOrderingByNoise(t *testing.T) {
	// More noise must strictly reduce SSIM against the clean image.
	r := rand.New(rand.NewSource(2))
	clean := make([]float64, 40*40)
	for y := 0; y < 40; y++ {
		for x := 0; x < 40; x++ {
			if x > 10 && x < 30 && y > 10 && y < 30 {
				clean[y*40+x] = 1
			}
		}
	}
	noisy := func(sigma float64) []float64 {
		out := make([]float64, len(clean))
		for i := range clean {
			out[i] = math.Min(1, math.Max(0, clean[i]+r.NormFloat64()*sigma))
		}
		return out
	}
	s1 := SSIM(clean, noisy(0.05), 40)
	s2 := SSIM(clean, noisy(0.3), 40)
	if !(s1 > s2) {
		t.Fatalf("SSIM ordering violated: low-noise %g <= high-noise %g", s1, s2)
	}
	if !(s1 < 1) {
		t.Fatalf("noisy image scored %g, expected < 1", s1)
	}
}

func TestSSIMSmallImageFallback(t *testing.T) {
	a := []float64{0, 1, 0, 1}
	if got := SSIM(a, a, 2); !almost(got, 1, 1e-9) {
		t.Fatalf("small-image SSIM(x,x) = %g", got)
	}
}

func TestSSIMBadArgsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { SSIM([]float64{1}, []float64{1, 2}, 1) },
		func() { SSIM([]float64{1, 2}, []float64{1, 2}, 0) },
		func() { SSIM([]float64{1, 2, 3}, []float64{1, 2, 3}, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: SSIM is symmetric and bounded in [-1, 1].
func TestPropertySSIMSymmetricBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := make([]float64, 16*16)
		b := make([]float64, 16*16)
		for i := range a {
			a[i] = r.Float64()
			b[i] = r.Float64()
		}
		s1 := SSIM(a, b, 16)
		s2 := SSIM(b, a, 16)
		return almost(s1, s2, 1e-9) && s1 >= -1-1e-9 && s1 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: RMSE satisfies the triangle-ish identity RMSE(a,a)=0 and is
// symmetric.
func TestPropertyRMSESymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := make([]float64, 32)
		b := make([]float64, 32)
		for i := range a {
			a[i] = r.NormFloat64()
			b[i] = r.NormFloat64()
		}
		return almost(RMSE(a, b), RMSE(b, a), 1e-12) && RMSE(a, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
