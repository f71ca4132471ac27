// Package img provides the grayscale image substrate for the image
// processing benchmarks (Canny, Watershed): an image type, convolution,
// gradients, noise, and a deterministic synthetic scene generator that
// stands in for the paper's photographic datasets. Every scene comes with
// an analytically derived ground-truth edge map, playing the role of the
// expert-picked ground truth of Heath et al. that the paper scores against.
package img

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dist"
)

// Image is a grayscale image with float64 pixels in [0, 1], row-major.
type Image struct {
	W, H int
	Pix  []float64
}

// New returns a black image of the given size.
func New(w, h int) Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("img: bad size %dx%d", w, h))
	}
	return Image{W: w, H: h, Pix: make([]float64, w*h)}
}

// At returns the pixel at (x, y); out-of-bounds reads clamp to the border
// (replicate padding), which keeps convolution simple and artifact-free.
func (m Image) At(x, y int) float64 {
	if x < 0 {
		x = 0
	}
	if x >= m.W {
		x = m.W - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= m.H {
		y = m.H - 1
	}
	return m.Pix[y*m.W+x]
}

// Set writes the pixel at (x, y), ignoring out-of-bounds writes.
func (m Image) Set(x, y int, v float64) {
	if x < 0 || x >= m.W || y < 0 || y >= m.H {
		return
	}
	m.Pix[y*m.W+x] = v
}

// Clone returns a deep copy.
func (m Image) Clone() Image {
	out := Image{W: m.W, H: m.H, Pix: make([]float64, len(m.Pix))}
	copy(out.Pix, m.Pix)
	return out
}

// Clamp01 clamps every pixel into [0, 1] in place and returns the image.
func (m Image) Clamp01() Image {
	for i, v := range m.Pix {
		m.Pix[i] = math.Min(1, math.Max(0, v))
	}
	return m
}

// GaussianKernel returns a normalized 1-D Gaussian kernel for the given
// sigma; the radius is ceil(3*sigma). Sigma must be positive and finite.
func GaussianKernel(sigma float64) []float64 {
	if !(sigma > 0) || math.IsInf(sigma, 1) {
		panic(fmt.Sprintf("img: sigma %v must be positive and finite", sigma))
	}
	r := int(math.Ceil(3 * sigma))
	if r < 1 {
		r = 1
	}
	k := make([]float64, 2*r+1)
	sum := 0.0
	for i := -r; i <= r; i++ {
		v := math.Exp(-float64(i*i) / (2 * sigma * sigma))
		k[i+r] = v
		sum += v
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// SeparableConvolve applies the 1-D kernel horizontally then vertically —
// Gaussian smoothing when the kernel is Gaussian. Taps that fall off the
// image read the nearest border pixel, as At does; only pixels within the
// kernel's radius of the border have such taps, so the rest read Pix
// directly, with the same taps in the same order.
func SeparableConvolve(m Image, k []float64) Image {
	r := len(k) / 2
	w, h := m.W, m.H
	tmp := New(w, h)
	for y := 0; y < h; y++ {
		row := m.Pix[y*w : (y+1)*w]
		for x := 0; x < w; x++ {
			s := 0.0
			if x >= r && x+r < w {
				for i, v := range row[x-r : x+r+1] {
					s += k[i] * v
				}
			} else {
				for i := -r; i <= r; i++ {
					s += k[i+r] * m.At(x+i, y)
				}
			}
			tmp.Pix[y*w+x] = s
		}
	}
	out := New(w, h)
	for y := 0; y < h; y++ {
		interior := y >= r && y+r < h
		for x := 0; x < w; x++ {
			s := 0.0
			if interior {
				for i, j := 0, (y-r)*w+x; i < len(k); i, j = i+1, j+w {
					s += k[i] * tmp.Pix[j]
				}
			} else {
				for i := -r; i <= r; i++ {
					s += k[i+r] * tmp.At(x, y+i)
				}
			}
			out.Pix[y*w+x] = s
		}
	}
	return out
}

// Smooth is Gaussian smoothing with the given sigma.
func Smooth(m Image, sigma float64) Image {
	return SeparableConvolve(m, GaussianKernel(sigma))
}

// Sobel computes gradient magnitude and direction (radians) with the 3x3
// Sobel operator. Magnitudes are not normalized.
func Sobel(m Image) (mag, dir Image) {
	dir = New(m.W, m.H)
	return sobel(m, dir.Pix), dir
}

// Gradient is Sobel's magnitude alone.
func Gradient(m Image) Image { return sobel(m, nil) }

// sobel returns the Sobel magnitude of m and, unless dir is nil, writes
// the direction into dir. Border pixels read their clamped neighbors
// through At; interior ones read Pix directly.
func sobel(m Image, dir []float64) Image {
	w, h := m.W, m.H
	mag := New(w, h)
	p := m.Pix
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var gx, gy float64
			if x > 0 && x < w-1 && y > 0 && y < h-1 {
				i := y*w + x
				gx, gy = sobelTaps(p[i-w-1], p[i-w], p[i-w+1], p[i-1], p[i+1], p[i+w-1], p[i+w], p[i+w+1])
			} else {
				gx, gy = sobelTaps(m.At(x-1, y-1), m.At(x, y-1), m.At(x+1, y-1), m.At(x-1, y),
					m.At(x+1, y), m.At(x-1, y+1), m.At(x, y+1), m.At(x+1, y+1))
			}
			mag.Pix[y*w+x] = math.Hypot(gx, gy)
			if dir != nil {
				dir[y*w+x] = math.Atan2(gy, gx)
			}
		}
	}
	return mag
}

// sobelTaps is the 3x3 Sobel stencil over a pixel's eight neighbors,
// named by compass direction.
func sobelTaps(nw, n, ne, w, e, sw, s, se float64) (gx, gy float64) {
	gx = ne + 2*e + se - nw - 2*w - sw
	gy = sw + 2*s + se - nw - 2*n - ne
	return gx, gy
}

// AddNoise returns a copy of m with Gaussian pixel noise of the given
// standard deviation, clamped to [0, 1]. Deterministic in seed.
func AddNoise(m Image, sigma float64, seed int64) Image {
	r := rand.New(rand.NewSource(int64(dist.Mix(uint64(seed), 0xDADA))))
	out := m.Clone()
	for i := range out.Pix {
		out.Pix[i] += r.NormFloat64() * sigma
	}
	return out.Clamp01()
}

// MaxPix returns the maximum pixel value (0 for an all-black image).
func (m Image) MaxPix() float64 {
	best := 0.0
	for _, v := range m.Pix {
		if v > best {
			best = v
		}
	}
	return best
}

// CountAbove returns how many pixels exceed the threshold.
func (m Image) CountAbove(thr float64) int {
	n := 0
	for _, v := range m.Pix {
		if v > thr {
			n++
		}
	}
	return n
}
