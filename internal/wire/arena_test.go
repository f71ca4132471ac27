package wire

import "testing"

func TestBufClass(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{
		{0, 0},
		{1, 0},
		{2 << 10, 0},
		{2<<10 + 1, 1},
		{8 << 10, 1},
		{100 << 10, 3},
		{128 << 20, len(bufClasses) - 1},
		{128<<20 + 1, -1},
	}
	for _, c := range cases {
		if got := bufClass(c.n); got != c.want {
			t.Errorf("bufClass(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestAllocBufClassCapacity(t *testing.T) {
	for _, n := range []int{0, 1, 100, 2 << 10, 3 << 10, 1 << 20, 128 << 20} {
		b := Alloc(n)
		if len(b) != n {
			t.Fatalf("Alloc(%d): len %d", n, len(b))
		}
		ci := bufClass(n)
		if ci >= 0 && cap(b) != bufClasses[ci] {
			t.Errorf("Alloc(%d): cap %d, want class size %d", n, cap(b), bufClasses[ci])
		}
		Free(b)
	}
	// Beyond the largest class: plain allocation, exact capacity.
	huge := Alloc(128<<20 + 1)
	if len(huge) != 128<<20+1 || cap(huge) != 128<<20+1 {
		t.Errorf("oversize Alloc: len %d cap %d", len(huge), cap(huge))
	}
	Free(huge) // must be a no-op drop, not a pool poisoning
}

func TestFreeBufRejectsForeignSlices(t *testing.T) {
	// Capacities that match no class must not enter a pool; this would
	// otherwise hand short arrays to Alloc callers expecting class cap.
	Free(nil)
	Free(make([]byte, 10))
	Free(make([]byte, 0, 3<<10))
	b := Alloc(1 << 10)
	if cap(b) != bufClasses[0] {
		t.Fatalf("Alloc after foreign Free: cap %d, want %d", cap(b), bufClasses[0])
	}
	Free(b)
}

func TestGrowBuf(t *testing.T) {
	b := Alloc(100)
	b2 := Grow(b, 200)
	if &b2[0] != &b[0] {
		t.Error("Grow within capacity should reuse the backing array")
	}
	if len(b2) != 200 {
		t.Errorf("Grow len = %d, want 200", len(b2))
	}
	b3 := Grow(b2, 4<<10)
	if len(b3) != 4<<10 || cap(b3) != bufClasses[bufClass(4<<10)] {
		t.Errorf("Grow beyond capacity: len %d cap %d", len(b3), cap(b3))
	}
	Free(b3)
}
