package img

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refSobel is Sobel as it was before the stencil was shared with
// Gradient, reading every tap through the clamped At. It is the oracle
// TestGradientMatchesSobelMagnitude holds both to.
func refSobel(m Image) (mag, dir Image) {
	mag = New(m.W, m.H)
	dir = New(m.W, m.H)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			gx := m.At(x+1, y-1) + 2*m.At(x+1, y) + m.At(x+1, y+1) -
				m.At(x-1, y-1) - 2*m.At(x-1, y) - m.At(x-1, y+1)
			gy := m.At(x-1, y+1) + 2*m.At(x, y+1) + m.At(x+1, y+1) -
				m.At(x-1, y-1) - 2*m.At(x, y-1) - m.At(x+1, y-1)
			mag.Pix[y*m.W+x] = math.Hypot(gx, gy)
			dir.Pix[y*m.W+x] = math.Atan2(gy, gx)
		}
	}
	return mag, dir
}

func samePix(a, b Image) bool {
	if a.W != b.W || a.H != b.H {
		return false
	}
	for i := range a.Pix {
		if math.Float64bits(a.Pix[i]) != math.Float64bits(b.Pix[i]) {
			return false
		}
	}
	return true
}

// refConvolve is SeparableConvolve as it was before interior pixels
// read Pix directly: every tap goes through the clamped At.
func refConvolve(m Image, k []float64) Image {
	r := len(k) / 2
	tmp := New(m.W, m.H)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			s := 0.0
			for i := -r; i <= r; i++ {
				s += k[i+r] * m.At(x+i, y)
			}
			tmp.Pix[y*m.W+x] = s
		}
	}
	out := New(m.W, m.H)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			s := 0.0
			for i := -r; i <= r; i++ {
				s += k[i+r] * tmp.At(x, y+i)
			}
			out.Pix[y*m.W+x] = s
		}
	}
	return out
}

// oracleImages are the images the kernel oracles run on: every scene
// clean, noisy and smoothed; random images of odd sizes, of one row and of
// one column; and an image holding NaN, infinities and a negative zero.
func oracleImages() []Image {
	var ims []Image
	for _, name := range SceneNames {
		noisy := GenDataset(name, 48, 48, 3).Noisy
		ims = append(ims, Scene(name, 48, 48), noisy, Smooth(noisy, 1.3))
	}
	r := rand.New(rand.NewSource(43))
	for _, wh := range [][2]int{{1, 1}, {2, 2}, {3, 3}, {1, 17}, {17, 1}, {2, 9}, {9, 2}, {5, 7}, {13, 11}, {31, 3}} {
		m := New(wh[0], wh[1])
		for i := range m.Pix {
			m.Pix[i] = r.Float64()
		}
		ims = append(ims, m)
	}
	odd := New(5, 4)
	copy(odd.Pix, []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0.5, 1})
	return append(ims, odd)
}

// TestConvolveMatchesClampedOracle holds SeparableConvolve to the
// all-clamped loops bit for bit, for kernels whose radius is below, at
// and beyond the image's width and height, a kernel of one tap, and an
// asymmetric one.
func TestConvolveMatchesClampedOracle(t *testing.T) {
	kernels := [][]float64{{1}, {0.25, 0.5, 0.25}, {-1, 0, 2}, {0.1, -0.3, 0.7, 0.2, 0.3}}
	for _, sigma := range []float64{0.3, 1, 1.7, 4, 12} {
		kernels = append(kernels, GaussianKernel(sigma))
	}
	for i, m := range oracleImages() {
		for _, k := range kernels {
			if !samePix(SeparableConvolve(m, k), refConvolve(m, k)) {
				t.Fatalf("image %d (%dx%d), kernel of radius %d: differs from the clamped oracle", i, m.W, m.H, len(k)/2)
			}
		}
	}
}

// TestGradientMatchesSobelMagnitude requires Gradient to be Sobel's
// magnitude, and Sobel to be what it was, bit for bit, on every oracle
// image.
func TestGradientMatchesSobelMagnitude(t *testing.T) {
	for i, m := range oracleImages() {
		wantMag, wantDir := refSobel(m)
		mag, dir := Sobel(m)
		if !samePix(mag, wantMag) || !samePix(dir, wantDir) {
			t.Fatalf("image %d: Sobel differs from its old self", i)
		}
		if !samePix(Gradient(m), wantMag) {
			t.Fatalf("image %d: Gradient differs from Sobel's magnitude", i)
		}
	}
}

func benchImage() Image { return GenDataset("trashcan", 64, 64, 1).Noisy } // Canny's size

func BenchmarkSmooth(b *testing.B) {
	m := benchImage()
	for _, sigma := range []float64{0.4, 1, 4} { // Canny's sigma range
		b.Run(fmt.Sprint("sigma=", sigma), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchOut = Smooth(m, sigma)
			}
		})
	}
}

func BenchmarkSobel(b *testing.B) {
	m := Smooth(benchImage(), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchOut, _ = Sobel(m)
	}
}

var benchOut Image
