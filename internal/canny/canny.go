// Package canny implements the Canny edge detector (Canny 1986), the
// paper's running example (Fig. 4). The detector is deliberately exposed
// stage by stage — Gaussian smoothing, gradient computation, non-maximal
// suppression, hysteresis edge traversal — because the staged structure is
// exactly what white-box tuning exploits: sigma only matters up to the
// smoothing stage, low/high only matter in the traversal stage.
//
// Work-unit costs per stage (relative, calibrated to the paper's
// observation that "most of its computation time was spent on the expensive
// image loading, Gaussian smoothing, and gradient computation stages"):
// load 4, smooth 4, gradient 2, traversal 1.
package canny

import (
	"math"

	"repro/internal/img"
	"repro/internal/stats"
)

// Params are Canny's three tunable parameters: the smoothing sigma and the
// low/high hysteresis thresholds (fractions of the maximum gradient).
type Params struct {
	Sigma float64
	Low   float64
	High  float64
}

// DefaultParams is the untuned configuration used for the "native" rows of
// the experiments.
func DefaultParams() Params { return Params{Sigma: 1.0, Low: 0.3, High: 0.6} }

// Work-unit costs of each stage; the experiment harness charges these
// against the tuning budget.
const (
	WorkLoad     = 20.0
	WorkSmooth   = 4.0
	WorkGradient = 2.0
	WorkTraverse = 1.0
)

// Gradient is the output of the image transformation stage: gradient
// magnitudes and the non-maximally-suppressed magnitudes.
type Gradient struct {
	Mag img.Image
	NMS img.Image
}

// SmoothStage is stage 1: Gaussian smoothing with sigma.
func SmoothStage(in img.Image, sigma float64) img.Image {
	return img.Smooth(in, sigma)
}

// GradientStage is stage 2: Sobel gradients plus non-maximal suppression.
func GradientStage(sm img.Image) Gradient {
	mag, dir := img.Sobel(sm)
	nms := nonMaxSuppress(mag, dir)
	return Gradient{Mag: mag, NMS: nms}
}

// NominalGradient is the absolute gradient scale the thresholds refer to:
// the Sobel response of a unit-contrast step edge. Real Canny
// implementations (OpenCV, Matlab) use absolute thresholds like this —
// which is precisely why a fixed (low, high) fails when scene contrast
// varies, the paper's Fig. 1 motivation.
const NominalGradient = 4.0

// TraverseStage is stage 3: hysteresis edge traversal. low and high are
// fractions of NominalGradient; pixels above high seed edges, pixels above
// low extend them. The result is a binary image.
func TraverseStage(g Gradient, low, high float64) img.Image {
	if low > high {
		low, high = high, low
	}
	hi := high * NominalGradient
	lo := low * NominalGradient
	w, h := g.NMS.W, g.NMS.H
	out := img.New(w, h)
	// Seed strong edges, then BFS through weak-but-connected pixels.
	var queue []int
	for i, v := range g.NMS.Pix {
		if v >= hi && hi > 0 {
			out.Pix[i] = 1
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		x, y := i%w, i/w
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := x+dx, y+dy
				if nx < 0 || nx >= w || ny < 0 || ny >= h {
					continue
				}
				j := ny*w + nx
				if out.Pix[j] == 0 && g.NMS.Pix[j] >= lo && lo > 0 {
					out.Pix[j] = 1
					queue = append(queue, j)
				}
			}
		}
	}
	return out
}

// Detect runs the full pipeline: smoothing, gradients, traversal.
func Detect(in img.Image, p Params) img.Image {
	sm := SmoothStage(in, p.Sigma)
	g := GradientStage(sm)
	return TraverseStage(g, p.Low, p.High)
}

// nonMaxSuppress keeps only pixels that are local maxima of the gradient
// magnitude along the gradient direction (quantized to 4 directions).
func nonMaxSuppress(mag, dir img.Image) img.Image {
	out := img.New(mag.W, mag.H)
	for y := 0; y < mag.H; y++ {
		for x := 0; x < mag.W; x++ {
			v := mag.At(x, y)
			if v == 0 {
				continue
			}
			// Quantize direction to 0, 45, 90, 135 degrees.
			a := dir.At(x, y)
			if a < 0 {
				a += math.Pi
			}
			sector := int(math.Floor(a/(math.Pi/4)+0.5)) % 4
			var n1, n2 float64
			switch sector {
			case 0: // horizontal gradient -> compare left/right
				n1, n2 = mag.At(x-1, y), mag.At(x+1, y)
			case 1: // 45°
				n1, n2 = mag.At(x-1, y-1), mag.At(x+1, y+1)
			case 2: // vertical gradient -> compare up/down
				n1, n2 = mag.At(x, y-1), mag.At(x, y+1)
			default: // 135°
				n1, n2 = mag.At(x+1, y-1), mag.At(x-1, y+1)
			}
			if v >= n1 && v >= n2 {
				out.Pix[y*mag.W+x] = v
			}
		}
	}
	return out
}

// Score compares a detected edge map against the ground truth with SSIM,
// the metric the paper uses for Canny (higher is better).
func Score(edges, truth img.Image) float64 {
	return stats.SSIM(edges.Pix, truth.Pix, truth.W)
}

// GradEnergy is the mean Sobel gradient magnitude of an image.
func GradEnergy(m img.Image) float64 {
	mag := img.Gradient(m)
	energy := 0.0
	for _, v := range mag.Pix {
		energy += v
	}
	return energy / float64(len(m.Pix))
}

// WellSmoothed implements the AggregateGaussian pruning heuristic of the
// running example (after Kerouh's no-reference blur measure): a smoothed
// image is acceptable when it removed a meaningful share of the raw
// high-frequency energy without destroying it — under-smoothed samples
// keep nearly all the noise energy (ratio near 1), over-smoothed samples
// collapse toward zero. The ratio form is invariant to scene contrast.
func WellSmoothed(sm, raw img.Image) bool {
	er := GradEnergy(raw)
	if er == 0 {
		return false
	}
	ratio := GradEnergy(sm) / er
	return ratio > 0.18 && ratio < 0.88
}
