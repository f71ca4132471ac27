package img

import (
	"math"
	"testing"
)

// refSobel is Sobel as it was before the stencil was shared with
// Gradient. It is the oracle TestGradientMatchesSobelMagnitude holds both
// to.
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

// TestGradientMatchesSobelMagnitude requires Gradient to be Sobel's
// magnitude, and Sobel to be what it was, bit for bit: on every scene
// clean, noisy and smoothed, on a 1x1 image, and on an image holding NaN,
// infinities and a negative zero.
func TestGradientMatchesSobelMagnitude(t *testing.T) {
	var ims []Image
	for _, name := range SceneNames {
		noisy := GenDataset(name, 48, 48, 3).Noisy
		ims = append(ims, Scene(name, 48, 48), noisy, Smooth(noisy, 1.3))
	}
	odd := New(5, 4)
	copy(odd.Pix, []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0.5, 1})
	ims = append(ims, New(1, 1), odd)
	for i, m := range ims {
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
