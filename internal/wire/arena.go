package wire

import "sync"

// Size-classed buffer arena (the v2ray common/bytespool idiom). Frame
// writers encode directly into pooled buffers and the serve loops decode
// from them, so the steady-state protocol path recycles a small working set
// of slices instead of allocating per frame; the checkpoint encoder stages
// its body in one. Classes grow by 4x from 2KiB (covers every control frame)
// to 128MiB (covers a max-size reassembled message plus framing overhead);
// requests beyond the largest class fall back to plain allocation and are
// never pooled.

var bufClasses = [...]int{2 << 10, 8 << 10, 32 << 10, 128 << 10, 512 << 10, 2 << 20, 8 << 20, 32 << 20, 128 << 20}

var bufPools [len(bufClasses)]sync.Pool

// bufClass returns the index of the smallest class holding n bytes, or -1
// when n exceeds the largest class.
func bufClass(n int) int {
	for i, size := range bufClasses {
		if n <= size {
			return i
		}
	}
	return -1
}

// Alloc returns a slice with len n backed by a pooled array of the
// smallest class that holds it. The contents are unspecified.
func Alloc(n int) []byte {
	ci := bufClass(n)
	if ci < 0 {
		return make([]byte, n)
	}
	if v := bufPools[ci].Get(); v != nil {
		return (*v.(*[]byte))[:n]
	}
	return make([]byte, n, bufClasses[ci])
}

// Free returns b's backing array to its size class. Buffers whose
// capacity is not exactly a class size (including every Alloc fallback
// beyond the largest class) are dropped for the GC instead — that keeps a
// foreign slice from ever entering the pool. Free(nil) is a no-op.
func Free(b []byte) {
	if b == nil {
		return
	}
	for i, size := range bufClasses {
		if cap(b) == size {
			b = b[:0]
			bufPools[i].Put(&b)
			return
		}
	}
}

// Grow returns a buffer with len n, reusing b's backing array when it is
// large enough and recycling it through the pool otherwise.
func Grow(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	Free(b)
	return Alloc(n)
}
