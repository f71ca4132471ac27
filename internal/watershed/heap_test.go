package watershed

import (
	"container/heap"
	"math/rand"
	"testing"

	"repro/internal/img"
)

// refHeap is pixelHeap as it was before its typed push and pop: a
// container/heap.Interface. It is the oracle TestPixelHeapMatchesContainerHeap
// holds pixelHeap to.
type refHeap struct {
	topo []float64
	idx  []int
}

func (h *refHeap) Len() int           { return len(h.idx) }
func (h *refHeap) Less(i, j int) bool { return h.topo[h.idx[i]] < h.topo[h.idx[j]] }
func (h *refHeap) Swap(i, j int)      { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *refHeap) Push(x any)         { h.idx = append(h.idx, x.(int)) }
func (h *refHeap) Pop() any {
	old := h.idx
	n := len(old)
	v := old[n-1]
	h.idx = old[:n-1]
	return v
}

// TestPixelHeapMatchesContainerHeap pushes and pops the same pixels in
// the same interleaving on pixelHeap and on container/heap, and requires
// the same pop order. Topographies drawn from a few values make most keys
// equal, so ties must pop in container/heap's order; the gradient
// topographies Segment floods are the real case.
func TestPixelHeapMatchesContainerHeap(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	check := func(label string, topo []float64, pushes int) {
		got := &pixelHeap{topo: topo}
		want := &refHeap{topo: topo}
		for op := 0; pushes > 0 || len(want.idx) > 0; op++ {
			if pushes > 0 && (len(want.idx) == 0 || r.Intn(3) > 0) {
				v := r.Intn(len(topo))
				got.push(v)
				heap.Push(want, v)
				pushes--
				continue
			}
			if g, w := got.pop(), heap.Pop(want).(int); g != w {
				t.Fatalf("%s: op %d popped %d, container/heap %d", label, op, g, w)
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		topo := make([]float64, 1+r.Intn(300))
		levels := 1 + r.Intn(4)
		for i := range topo {
			topo[i] = float64(r.Intn(levels))
		}
		check("few levels", topo, r.Intn(2*len(topo)))
	}
	for _, name := range img.SceneNames {
		topo := img.Gradient(img.Smooth(img.GenDataset(name, 48, 48, 3).Noisy, 1))
		check(name, topo.Pix, 3*len(topo.Pix))
	}
}

func BenchmarkSegment(b *testing.B) {
	in := img.GenDataset("trashcan", 48, 48, 1).Noisy
	p := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchLabels, _ = Segment(in, p)
	}
}

var benchLabels []int
