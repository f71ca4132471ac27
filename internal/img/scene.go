package img

import (
	"fmt"
	"math"

	"repro/internal/dist"
)

// SceneNames are the ten synthetic scenes, named after the objects in the
// paper's Canny evaluation (Fig. 11 uses ten object images; Fig. 7 uses the
// coffeemaker; Fig. 12/13 highlight pitcher and brush).
var SceneNames = []string{
	"coffeemaker", "pitcher", "brush", "airplane", "trashcan",
	"hammer", "mug", "scissors", "stapler", "wrench",
}

// Scene renders one of the named scenes at the given size. Each scene is a
// deterministic composition of filled primitives at scene-specific
// intensities; the per-scene variation (object sizes, contrast, clutter)
// is what makes different parameter settings optimal for different scenes,
// reproducing the paper's motivation (Fig. 1).
func Scene(name string, w, h int) Image {
	idx := -1
	for i, n := range SceneNames {
		if n == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("img: unknown scene %q", name))
	}
	m := New(w, h)
	// Scene-specific deterministic layout parameters.
	r := dist.NewRand(0x5EEDC0DE, int64(idx))
	bg := 0.12 + 0.08*r.Float64()
	for i := range m.Pix {
		m.Pix[i] = bg
	}
	fw, fh := float64(w), float64(h)

	// Base body: every object has a dominant blob (rect or ellipse).
	bodyContrast := 0.35 + 0.45*r.Float64()
	cx := fw * (0.35 + 0.3*r.Float64())
	cy := fh * (0.35 + 0.3*r.Float64())
	rw := fw * (0.12 + 0.15*r.Float64())
	rh := fh * (0.12 + 0.18*r.Float64())
	if idx%2 == 0 {
		fillEllipse(m, cx, cy, rw, rh, bg+bodyContrast)
	} else {
		fillRect(m, cx-rw, cy-rh, cx+rw, cy+rh, bg+bodyContrast)
	}

	// Appendages: handles, spouts, blades — thin rectangles and lines at
	// varying contrast; their count and contrast differ per scene, which
	// moves the optimal hysteresis thresholds around.
	parts := 2 + r.Intn(4)
	for p := 0; p < parts; p++ {
		contrast := 0.15 + 0.5*r.Float64()
		angle := 2 * math.Pi * r.Float64()
		length := fw * (0.1 + 0.25*r.Float64())
		thick := 1.5 + 3*r.Float64()
		x0 := cx + math.Cos(angle)*rw
		y0 := cy + math.Sin(angle)*rh
		drawThickLine(m, x0, y0, x0+math.Cos(angle)*length, y0+math.Sin(angle)*length, thick, bg+contrast)
	}

	// Low-contrast clutter in the background (texture that tuning must not
	// mistake for edges).
	clutter := 3 + r.Intn(5)
	for c := 0; c < clutter; c++ {
		cc := bg + 0.04 + 0.06*r.Float64()
		x := fw * r.Float64()
		y := fh * r.Float64()
		rad := 2 + 6*r.Float64()
		fillEllipse(m, x, y, rad, rad, cc)
	}
	return m.Clamp01()
}

// TruthEdges derives the ground-truth edge map of a clean scene: pixels
// whose clean-image Sobel magnitude exceeds a fixed fraction of the maximum
// gradient. On noiseless synthetic scenes this is exactly the set of
// primitive boundaries — the role of the expert-picked ground truth.
func TruthEdges(clean Image) Image {
	mag := Gradient(clean)
	thr := 0.25 * mag.MaxPix()
	out := New(clean.W, clean.H)
	for i, v := range mag.Pix {
		if v > thr {
			out.Pix[i] = 1
		}
	}
	return out
}

// Dataset bundles one benchmark input: the noisy observed image and the
// ground-truth edges of the underlying clean scene.
type Dataset struct {
	Name  string
	Noisy Image
	Truth Image
}

// GenDataset renders the named scene at the given size, derives its ground
// truth, and corrupts the observation with noise. The noise level varies
// deterministically per scene (different scenes need different smoothing).
func GenDataset(name string, w, h int, seed int64) Dataset {
	clean := Scene(name, w, h)
	truth := TruthEdges(clean)
	idx := int64(0)
	for i, n := range SceneNames {
		if n == name {
			idx = int64(i)
		}
	}
	r := dist.NewRand(seed, idx)
	noise := 0.08 + 0.18*r.Float64()
	// Per-scene contrast gain: the scene is dimmed but the sensor noise is
	// not, so the effective signal-to-noise ratio varies per scene. This is
	// what makes a fixed parameter setting suboptimal across scenes
	// (Fig. 1's motivation): relative thresholds stop being scale-invariant
	// once noise dominates the gradient peaks of dim scenes.
	gain := 0.35 + 0.65*r.Float64()
	dimmed := clean.Clone()
	for i := range dimmed.Pix {
		dimmed.Pix[i] *= gain
	}
	return Dataset{
		Name:  name,
		Noisy: AddNoise(dimmed, noise, seed+idx),
		Truth: truth,
	}
}

func fillRect(m Image, x0, y0, x1, y1 float64, v float64) {
	for y := int(y0); y <= int(y1); y++ {
		for x := int(x0); x <= int(x1); x++ {
			m.Set(x, y, v)
		}
	}
}

func fillEllipse(m Image, cx, cy, rx, ry float64, v float64) {
	if rx <= 0 || ry <= 0 {
		return
	}
	for y := int(cy - ry); y <= int(cy+ry); y++ {
		for x := int(cx - rx); x <= int(cx+rx); x++ {
			dx := (float64(x) - cx) / rx
			dy := (float64(y) - cy) / ry
			if dx*dx+dy*dy <= 1 {
				m.Set(x, y, v)
			}
		}
	}
}

func drawThickLine(m Image, x0, y0, x1, y1, thick, v float64) {
	dx, dy := x1-x0, y1-y0
	length := math.Hypot(dx, dy)
	if length == 0 {
		return
	}
	steps := int(length) * 2
	for s := 0; s <= steps; s++ {
		t := float64(s) / float64(steps)
		px := x0 + dx*t
		py := y0 + dy*t
		rad := thick / 2
		for y := int(py - rad); y <= int(py+rad); y++ {
			for x := int(px - rad); x <= int(px+rad); x++ {
				ddx := float64(x) - px
				ddy := float64(y) - py
				if ddx*ddx+ddy*ddy <= rad*rad {
					m.Set(x, y, v)
				}
			}
		}
	}
}
