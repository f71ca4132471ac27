package core

import (
	"testing"
	"unsafe"
)

// field is one struct field's offset and size, for layout tests.
type field struct {
	name      string
	off, size uintptr
}

// apart reports whether a and b can never share a 64-byte cache line,
// whatever the 8-byte-aligned address of the struct holding them: at least
// 56 bytes lie between them.
func apart(a, b field) bool {
	if a.off > b.off {
		a, b = b, a
	}
	return b.off >= a.off+a.size+56
}

// TestRegionStateHotFieldsApart: every sample reads the round's fixed fields;
// every claim writes its lock, cursor, todo mirror and sync flag, every commit
// its counters and the round's share of the tuner's and the scheduler's
// counters (folded by finish), and deadlines its timer. A write must
// not evict the line the other worker reads the fixed fields from.
func TestRegionStateHotFieldsApart(t *testing.T) {
	var rs regionState
	read := []field{
		{"ctx", unsafe.Offsetof(rs.ctx), unsafe.Sizeof(rs.ctx)},
		{"body", unsafe.Offsetof(rs.body), unsafe.Sizeof(rs.body)},
		{"timeout", unsafe.Offsetof(rs.timeout), unsafe.Sizeof(rs.timeout)},
		{"exposed", unsafe.Offsetof(rs.exposed), unsafe.Sizeof(rs.exposed)},
		{"spec", unsafe.Offsetof(rs.spec), unsafe.Sizeof(rs.spec)},
		{"shared", unsafe.Offsetof(rs.shared), unsafe.Sizeof(rs.shared)},
		{"incs", unsafe.Offsetof(rs.incs), unsafe.Sizeof(rs.incs)},
		{"ro", unsafe.Offsetof(rs.ro), unsafe.Sizeof(rs.ro)},
	}
	written := []field{
		{"mu", unsafe.Offsetof(rs.mu), unsafe.Sizeof(rs.mu)},
		{"todo", unsafe.Offsetof(rs.todo), unsafe.Sizeof(rs.todo)},
		{"synced", unsafe.Offsetof(rs.synced), unsafe.Sizeof(rs.synced)},
		{"launched", unsafe.Offsetof(rs.launched), unsafe.Sizeof(rs.launched)},
		{"total", unsafe.Offsetof(rs.total), unsafe.Sizeof(rs.total)},
		{"done", unsafe.Offsetof(rs.done), unsafe.Sizeof(rs.done)},
		{"timer", unsafe.Offsetof(rs.timer), unsafe.Sizeof(rs.timer)},
		{"arena", unsafe.Offsetof(rs.arena), unsafe.Sizeof(rs.arena)},
		{"attempts", unsafe.Offsetof(rs.attempts), unsafe.Sizeof(rs.attempts)},
		{"renewed", unsafe.Offsetof(rs.renewed), unsafe.Sizeof(rs.renewed)},
		{"outcomes", unsafe.Offsetof(rs.outcomes), unsafe.Sizeof(rs.outcomes)},
		{"durs", unsafe.Offsetof(rs.durs), unsafe.Sizeof(rs.durs)},
	}
	for _, r := range read {
		for _, w := range written {
			if !apart(r, w) {
				t.Errorf("regionState.%s [%d, %d) and .%s [%d, %d) can share a cache line",
					r.name, r.off, r.off+r.size, w.name, w.off, w.off+w.size)
			}
		}
	}
}

// TestSpSlotFillsLines: a worker writes its slot's attempt word twice per
// sample and its chunk fields per claim. A slot whose size is a multiple of
// 64 bytes sits in a size class whose objects start on cache-line
// boundaries, so no two workers' slots share a line.
func TestSpSlotFillsLines(t *testing.T) {
	if n := unsafe.Sizeof(spSlot{}); n%64 != 0 {
		t.Errorf("spSlot is %d bytes, want a multiple of 64", n)
	}
}
