package watershed

import (
	"testing"

	"repro/internal/img"
)

func twoBlobs() img.Image {
	m := img.New(48, 48)
	for y := 0; y < 48; y++ {
		for x := 0; x < 48; x++ {
			dx1, dy1 := float64(x-14), float64(y-24)
			dx2, dy2 := float64(x-34), float64(y-24)
			if dx1*dx1+dy1*dy1 < 64 || dx2*dx2+dy2*dy2 < 64 {
				m.Set(x, y, 0.9)
			} else {
				m.Set(x, y, 0.1)
			}
		}
	}
	return m
}

func TestSegmentLabelsEveryPixel(t *testing.T) {
	labels, _ := Segment(twoBlobs(), DefaultParams())
	for i, l := range labels {
		if l == 0 {
			t.Fatalf("pixel %d left unlabelled", i)
		}
	}
}

func TestSegmentSeparatesBlobs(t *testing.T) {
	m := twoBlobs()
	labels, _ := Segment(m, Params{Sigma: 1.0, MarkerThr: 0.15, MinMarkerDx: 6})
	// The two blob centers must end in different basins (the gradient
	// ridge between them is a watershed).
	c1 := labels[24*48+14]
	c2 := labels[24*48+34]
	if c1 <= 0 || c2 <= 0 {
		t.Fatalf("blob centers on watershed line: %d, %d", c1, c2)
	}
	if c1 == c2 {
		t.Fatal("two separate blobs merged into one basin")
	}
}

func TestBoundaryPixelsAreBinaryAndNonEmpty(t *testing.T) {
	_, boundary := Segment(twoBlobs(), DefaultParams())
	n := 0
	for _, v := range boundary.Pix {
		if v != 0 && v != 1 {
			t.Fatal("boundary not binary")
		}
		if v == 1 {
			n++
		}
	}
	if n == 0 {
		t.Fatal("no watershed lines found between two blobs")
	}
}

func TestMinMarkerDistanceReducesBasins(t *testing.T) {
	ds := img.GenDataset("stapler", 48, 48, 1)
	many, _ := Segment(ds.Noisy, Params{Sigma: 0.8, MarkerThr: 0.3, MinMarkerDx: 1})
	few, _ := Segment(ds.Noisy, Params{Sigma: 0.8, MarkerThr: 0.3, MinMarkerDx: 12})
	if numBasins(few) >= numBasins(many) {
		t.Fatalf("MinMarkerDx has no effect: %d vs %d basins", numBasins(many), numBasins(few))
	}
}

func TestDeterministic(t *testing.T) {
	ds := img.GenDataset("mug", 40, 40, 2)
	_, a := Segment(ds.Noisy, DefaultParams())
	_, b := Segment(ds.Noisy, DefaultParams())
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("watershed not deterministic")
		}
	}
}

func TestParamsChangeScore(t *testing.T) {
	ds := img.GenDataset("trashcan", 48, 48, 3)
	_, b1 := Segment(ds.Noisy, Params{Sigma: 1.2, MarkerThr: 0.1, MinMarkerDx: 8})
	_, b2 := Segment(ds.Noisy, Params{Sigma: 0.2, MarkerThr: 0.6, MinMarkerDx: 1})
	s1 := Score(b1, ds.Truth)
	s2 := Score(b2, ds.Truth)
	if s1 == s2 {
		t.Fatal("wildly different params gave identical scores")
	}
}

func TestZeroSigmaHandled(t *testing.T) {
	ds := img.GenDataset("brush", 32, 32, 4)
	labels, _ := Segment(ds.Noisy, Params{Sigma: 0, MarkerThr: 0.2, MinMarkerDx: 4})
	if len(labels) != 32*32 {
		t.Fatal("segmentation with sigma=0 failed")
	}
}

// numBasins reports the number of distinct basins in a label map.
func numBasins(labels []int) int {
	seen := map[int]bool{}
	for _, l := range labels {
		if l > 0 {
			seen[l] = true
		}
	}
	return len(seen)
}
