package img

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndAtSetClamping(t *testing.T) {
	m := New(4, 3)
	m.Set(2, 1, 0.5)
	if m.At(2, 1) != 0.5 {
		t.Fatal("Set/At roundtrip failed")
	}
	// Border replication.
	m.Set(0, 0, 0.9)
	if m.At(-5, -5) != 0.9 {
		t.Fatalf("border replicate At(-5,-5) = %g", m.At(-5, -5))
	}
	if m.At(99, 99) != m.At(3, 2) {
		t.Fatal("border replicate bottom-right failed")
	}
	// Out-of-bounds Set is ignored.
	m.Set(99, 99, 1)
}

func TestNewBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 5)
}

func TestCloneIsDeep(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 0.5)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases the original")
	}
}

func TestGaussianKernelNormalizedSymmetric(t *testing.T) {
	for _, sigma := range []float64{0.3, 1.0, 2.5} {
		k := GaussianKernel(sigma)
		if len(k)%2 != 1 {
			t.Fatalf("kernel length %d not odd", len(k))
		}
		sum := 0.0
		for i := range k {
			sum += k[i]
			if k[i] != k[len(k)-1-i] {
				t.Fatal("kernel not symmetric")
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("kernel sum %g", sum)
		}
	}
}

func TestGaussianKernelBadSigmaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GaussianKernel(0)
}

func TestSmoothPreservesConstantImage(t *testing.T) {
	m := New(16, 16)
	for i := range m.Pix {
		m.Pix[i] = 0.7
	}
	s := Smooth(m, 1.5)
	for i, v := range s.Pix {
		if math.Abs(v-0.7) > 1e-9 {
			t.Fatalf("pixel %d = %g after smoothing constant image", i, v)
		}
	}
}

func TestSmoothReducesVariance(t *testing.T) {
	m := AddNoise(New(32, 32), 0.3, 1)
	s := Smooth(m, 2)
	varOf := func(im Image) float64 {
		mean := 0.0
		for _, v := range im.Pix {
			mean += v
		}
		mean /= float64(len(im.Pix))
		va := 0.0
		for _, v := range im.Pix {
			va += (v - mean) * (v - mean)
		}
		return va
	}
	if varOf(s) >= varOf(m) {
		t.Fatal("smoothing did not reduce variance of noise")
	}
}

func TestSobelDetectsVerticalEdge(t *testing.T) {
	m := New(16, 16)
	for y := 0; y < 16; y++ {
		for x := 8; x < 16; x++ {
			m.Set(x, y, 1)
		}
	}
	mag, dir := Sobel(m)
	// Strongest response along the x=7..8 boundary.
	if mag.At(7, 8) < 1 {
		t.Fatalf("edge magnitude %g too small", mag.At(7, 8))
	}
	if mag.At(2, 8) != 0 {
		t.Fatalf("flat region magnitude %g", mag.At(2, 8))
	}
	// Gradient direction across a vertical edge is horizontal (≈ 0 rad).
	if math.Abs(dir.At(7, 8)) > 0.2 {
		t.Fatalf("edge direction %g, want ~0", dir.At(7, 8))
	}
}

func TestAddNoiseDeterministicAndClamped(t *testing.T) {
	m := New(8, 8)
	a := AddNoise(m, 0.5, 42)
	b := AddNoise(m, 0.5, 42)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("noise not deterministic in seed")
		}
		if a.Pix[i] < 0 || a.Pix[i] > 1 {
			t.Fatal("noise escaped [0,1]")
		}
	}
	c := AddNoise(m, 0.5, 43)
	same := true
	for i := range a.Pix {
		if a.Pix[i] != c.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical noise")
	}
}

func TestSceneDeterministicAndDistinct(t *testing.T) {
	a := Scene("coffeemaker", 64, 64)
	b := Scene("coffeemaker", 64, 64)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("scene not deterministic")
		}
	}
	c := Scene("pitcher", 64, 64)
	diff := 0
	for i := range a.Pix {
		if a.Pix[i] != c.Pix[i] {
			diff++
		}
	}
	if diff < 50 {
		t.Fatalf("scenes barely differ: %d pixels", diff)
	}
}

func TestAllScenesRenderAndHaveEdges(t *testing.T) {
	for _, name := range SceneNames {
		m := Scene(name, 48, 48)
		truth := TruthEdges(m)
		edges := truth.CountAbove(0.5)
		if edges < 20 {
			t.Fatalf("scene %s has only %d ground-truth edge pixels", name, edges)
		}
		if edges > 48*48/2 {
			t.Fatalf("scene %s ground truth is mostly edges (%d)", name, edges)
		}
	}
}

func TestUnknownScenePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Scene("kitchen-sink", 32, 32)
}

func TestGenDataset(t *testing.T) {
	ds := GenDataset("brush", 48, 48, 7)
	if ds.Name != "brush" {
		t.Fatal("name lost")
	}
	if ds.Noisy.W != 48 || ds.Truth.W != 48 {
		t.Fatal("sizes wrong")
	}
	// Noisy must differ from the clean scene.
	clean := Scene("brush", 48, 48)
	diff := 0
	for i := range clean.Pix {
		if clean.Pix[i] != ds.Noisy.Pix[i] {
			diff++
		}
	}
	if diff < 100 {
		t.Fatalf("noise barely changed the image: %d pixels", diff)
	}
	// Truth must be binary.
	for _, v := range ds.Truth.Pix {
		if v != 0 && v != 1 {
			t.Fatal("truth not binary")
		}
	}
}

func TestMaxPixAndCountAbove(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 1, 0.8)
	m.Set(0, 1, 0.3)
	if m.MaxPix() != 0.8 {
		t.Fatalf("MaxPix = %g", m.MaxPix())
	}
	if m.CountAbove(0.5) != 1 || m.CountAbove(0.2) != 2 {
		t.Fatal("CountAbove wrong")
	}
}

// Property: smoothing never pushes pixel values outside the input range.
func TestPropertySmoothStaysInRange(t *testing.T) {
	f := func(seed int64, sigmaRaw float64) bool {
		sigma := 0.3 + math.Mod(math.Abs(sigmaRaw), 3)
		if math.IsNaN(sigma) {
			return true
		}
		m := AddNoise(New(16, 16), 0.5, seed)
		s := Smooth(m, sigma)
		for _, v := range s.Pix {
			if v < -1e-9 || v > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
