// Package watershed implements marker-based watershed segmentation (as in
// Leptonica, the paper's Watershed benchmark). The three tunable parameters
// are the pre-smoothing sigma, the marker threshold (the topography
// quantile below which local minima seed basins), and the minimum marker
// distance (suppressing over-segmentation from nearby seeds). The sample
// result is the watershed boundary map, aggregated by majority vote.
package watershed

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/img"
	"repro/internal/stats"
)

// Params are the watershed tunables.
type Params struct {
	Sigma       float64 // gradient pre-smoothing
	MarkerThr   float64 // quantile in (0,1): minima below it become seeds
	MinMarkerDx float64 // minimum distance between seeds
}

// DefaultParams is the untuned configuration.
func DefaultParams() Params { return Params{Sigma: 1.0, MarkerThr: 0.2, MinMarkerDx: 4} }

// WorkPerRun is the work-unit cost of a full segmentation.
const WorkPerRun = 3.0

// Segment floods the gradient topography of the image from the detected
// markers and returns the label map plus the binary watershed-line image
// (pixels where two basins meet). A NaN parameter or an infinite Sigma
// panics.
func Segment(in img.Image, p Params) (labels []int, boundary img.Image) {
	switch {
	case math.IsNaN(p.Sigma) || math.IsInf(p.Sigma, 0):
		panic(fmt.Sprintf("watershed: non-finite Sigma %v", p.Sigma))
	case math.IsNaN(p.MarkerThr):
		panic("watershed: NaN MarkerThr")
	case math.IsNaN(p.MinMarkerDx):
		panic("watershed: NaN MinMarkerDx")
	}
	if p.Sigma <= 0 {
		p.Sigma = 0.1
	}
	sm := img.Smooth(in, p.Sigma)
	topo := img.Gradient(sm)
	w, h := topo.W, topo.H

	seeds := markers(topo, p.MarkerThr, p.MinMarkerDx)
	labels = make([]int, w*h)
	for i := range labels {
		labels[i] = 0 // 0 = unlabelled
	}
	for id, s := range seeds {
		labels[s] = id + 1
	}

	// Flood with an ordered frontier growing out of the markers: pop the
	// lowest-topography frontier pixel, give it the label of its labelled
	// neighbors — or mark it a watershed line when two basins meet — and
	// push its unlabelled neighbors. This is Meyer's flooding algorithm.
	pq := &pixelHeap{topo: topo.Pix}
	inQueue := make([]bool, w*h)
	pushNeighbors := func(i int) {
		x, y := i%w, i/w
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := x+dx, y+dy
				if (dx == 0 && dy == 0) || nx < 0 || nx >= w || ny < 0 || ny >= h {
					continue
				}
				j := ny*w + nx
				if labels[j] == 0 && !inQueue[j] {
					inQueue[j] = true
					pq.push(j)
				}
			}
		}
	}
	for _, s := range seeds {
		pushNeighbors(s)
	}
	boundary = img.New(w, h)
	const lineLabel = -1
	for len(pq.idx) > 0 {
		i := pq.pop()
		inQueue[i] = false
		if labels[i] != 0 {
			continue
		}
		x, y := i%w, i/w
		found := 0
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := x+dx, y+dy
				if (dx == 0 && dy == 0) || nx < 0 || nx >= w || ny < 0 || ny >= h {
					continue
				}
				l := labels[ny*w+nx]
				if l > 0 {
					if found == 0 {
						found = l
					} else if found != l {
						found = lineLabel
					}
				}
			}
		}
		switch {
		case found == lineLabel:
			labels[i] = lineLabel
			boundary.Pix[i] = 1
		case found > 0:
			labels[i] = found
			pushNeighbors(i)
		}
	}
	// Pixels unreachable from any marker (possible only when there are no
	// seeds at all) form one residual basin.
	residual := len(seeds) + 1
	for i := range labels {
		if labels[i] == 0 {
			labels[i] = residual
		}
	}
	return labels, boundary
}

// pixelHeap orders pixel indices by topography value (min-heap). push and
// pop are container/heap's Push and Pop step for step, so pixels of equal
// topography pop in the same order.
type pixelHeap struct {
	topo []float64
	idx  []int
}

func (h *pixelHeap) less(i, j int) bool { return h.topo[h.idx[i]] < h.topo[h.idx[j]] }

func (h *pixelHeap) swap(i, j int) { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }

func (h *pixelHeap) push(v int) {
	h.idx = append(h.idx, v)
	for j := len(h.idx) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h *pixelHeap) pop() int {
	n := len(h.idx) - 1
	h.swap(0, n)
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.less(j2, j) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	v := h.idx[n]
	h.idx = h.idx[:n]
	return v
}

// markers finds local minima of the topography below the given quantile,
// then thins them so no two are closer than minDist.
func markers(topo img.Image, quantile, minDist float64) []int {
	w, h := topo.W, topo.H
	q := math.Min(1, math.Max(0, quantile))
	thr := kthSmallest(append([]float64(nil), topo.Pix...), int(q*float64(len(topo.Pix)-1)))

	var cands []int
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := topo.At(x, y)
			if v > thr {
				continue
			}
			isMin := true
			for dy := -1; dy <= 1 && isMin; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 {
						continue
					}
					if topo.At(x+dx, y+dy) < v {
						isMin = false
						break
					}
				}
			}
			if isMin {
				cands = append(cands, y*w+x)
			}
		}
	}
	// Thin by minimum distance, keeping earlier (lower-topography-first is
	// not needed; raster order is deterministic).
	var out []int
	for _, c := range cands {
		cx, cy := float64(c%w), float64(c/w)
		ok := true
		for _, o := range out {
			ox, oy := float64(o%w), float64(o/w)
			if math.Hypot(cx-ox, cy-oy) < minDist {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, c)
		}
	}
	return out
}

// kthSmallest returns vals[k] of vals sorted as sort.Float64s sorts them,
// reordering vals. Without NaNs it selects (Hoare's FIND with a
// median-of-three pivot) instead of sorting; with a NaN it sorts. Equal
// values may come back in any order, so of -0 and +0 either may be
// returned, as sort.Float64s may leave either at k; markers only compares
// against the result.
func kthSmallest(vals []float64, k int) float64 {
	for _, v := range vals {
		if v != v {
			sort.Float64s(vals)
			return vals[k]
		}
	}
	lo, hi := 0, len(vals)-1
	for lo < hi {
		a, b, c := vals[lo], vals[lo+(hi-lo)/2], vals[hi]
		if a > b {
			a, b = b, a
		}
		pivot := max(a, min(b, c)) // median of the three
		i, j := lo, hi
		for i <= j {
			for vals[i] < pivot {
				i++
			}
			for pivot < vals[j] {
				j--
			}
			if i <= j {
				vals[i], vals[j] = vals[j], vals[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default: // vals[j+1:i] all equal the pivot
			return vals[k]
		}
	}
	return vals[k]
}

// Score compares the watershed boundary against the ground-truth edges
// with SSIM (higher is better), matching the MV-aggregated comparison of
// the paper's Watershed rows.
func Score(boundary, truth img.Image) float64 {
	return stats.SSIM(boundary.Pix, truth.Pix, truth.W)
}
