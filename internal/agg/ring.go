package agg

import "sync"

// Ring is a bounded FIFO buffer: PutBatch blocks while the ring is full,
// Drain consumes everything currently buffered. The runtime no longer uses
// it — incremental aggregates fold at commit — and it stays only because the
// benchmark harness's agg probe calls NewRing, PutBatch and Drain; the rest
// of it goes with ROADMAP item 1's benchmark change.
type Ring struct {
	mu      sync.Mutex
	notFull *sync.Cond
	buf     []any
	head    int // index of oldest element
	n       int // number of buffered elements
}

// NewRing returns a ring buffer with the given capacity (>= 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		panic("agg: ring capacity must be >= 1")
	}
	r := &Ring{buf: make([]any, capacity)}
	r.notFull = sync.NewCond(&r.mu)
	return r
}

// PutBatch appends every item in order under one lock acquisition. When the
// batch exceeds the free space it fills the ring, waits for a Drain, and
// continues, so a batch larger than the capacity still respects the bound.
func (r *Ring) PutBatch(items []any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(items) > 0 {
		for r.n == len(r.buf) {
			r.notFull.Wait()
		}
		k := min(len(r.buf)-r.n, len(items))
		for _, v := range items[:k] {
			r.buf[(r.head+r.n)%len(r.buf)] = v
			r.n++
		}
		items = items[k:]
	}
}

// Drain removes and returns everything currently buffered (possibly nothing).
func (r *Ring) Drain() []any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return nil
	}
	out := make([]any, 0, r.n)
	for r.n > 0 {
		out = append(out, r.buf[r.head])
		r.buf[r.head] = nil
		r.head = (r.head + 1) % len(r.buf)
		r.n--
	}
	r.notFull.Broadcast()
	return out
}
