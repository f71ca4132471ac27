package agg

import (
	"runtime"
	"sync"
	"testing"
)

// The ring's contract as the benchmark's agg probe uses it: PutBatch appends
// in FIFO order and blocks while the ring is full, Drain takes everything
// buffered and makes room.

// drainN polls Drain until n items have come out, failing if one drain ever
// returns more than the ring's capacity.
func drainN(t *testing.T, r *Ring, n, capacity int) []any {
	t.Helper()
	var out []any
	for len(out) < n {
		items := r.Drain()
		if len(items) > capacity {
			t.Fatalf("drained %d items from a ring of capacity %d", len(items), capacity)
		}
		if len(items) == 0 {
			runtime.Gosched()
		}
		out = append(out, items...)
	}
	return out
}

func TestRingPutDrain(t *testing.T) {
	r := NewRing(4)
	r.PutBatch([]any{1, 2})
	got := r.Drain()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Drain = %v", got)
	}
	if r.Drain() != nil {
		t.Fatal("Drain of empty ring should be nil")
	}
}

func TestRingWrapsAround(t *testing.T) {
	r := NewRing(3)
	r.PutBatch([]any{1, 2})
	r.Drain()
	r.PutBatch([]any{3, 4, 5}) // wraps internally
	got := r.Drain()
	if len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("Drain after wrap = %v", got)
	}
}

// TestRingBlocksWhenFullAndPeak checks that PutBatch waits on a full ring
// until Drain makes room, and that the ring never holds more than its
// capacity meanwhile.
func TestRingBlocksWhenFullAndPeak(t *testing.T) {
	r := NewRing(2)
	r.PutBatch([]any{1, 2})
	done := make(chan struct{})
	go func() {
		r.PutBatch([]any{3}) // must block until drain
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("PutBatch did not block on full ring")
	default:
	}
	if got := r.Drain(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Drain = %v", got)
	}
	<-done
	if got := r.Drain(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Drain after unblock = %v", got)
	}
}

func TestRingConcurrentProducersConsumer(t *testing.T) {
	r := NewRing(8)
	const producers, per = 8, 100
	for p := 0; p < producers; p++ {
		go func(p int) {
			for i := 0; i < per; i++ {
				r.PutBatch([]any{p*per + i})
			}
		}(p)
	}
	seen := make([]bool, producers*per)
	for _, v := range drainN(t, r, producers*per, 8) {
		if seen[v.(int)] {
			t.Fatalf("value %v drained twice", v)
		}
		seen[v.(int)] = true
	}
}

func TestRingBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRing(0)
}

// TestRingPutBatchDeliversAll checks that concurrent batch producers and a
// draining consumer exchange every item exactly once, per-producer order
// preserved, with the ring's capacity bound respected throughout.
func TestRingPutBatchDeliversAll(t *testing.T) {
	const (
		producers = 4
		batches   = 50
		batchLen  = 7 // not a divisor of the capacity: exercises wrap+refill
		capacity  = 8
	)
	r := NewRing(capacity)

	type item struct{ producer, seq int }
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			seq := 0
			for b := 0; b < batches; b++ {
				batch := make([]any, batchLen)
				for i := range batch {
					batch[i] = item{p, seq}
					seq++
				}
				r.PutBatch(batch)
			}
		}(p)
	}

	next := make([]int, producers)
	for _, v := range drainN(t, r, producers*batches*batchLen, capacity) {
		it := v.(item)
		if it.seq != next[it.producer] {
			t.Fatalf("producer %d out of order: got seq %d, want %d", it.producer, it.seq, next[it.producer])
		}
		next[it.producer]++
	}
	wg.Wait()
	if rest := r.Drain(); rest != nil {
		t.Fatalf("ring holds %d items after every producer finished", len(rest))
	}
}

// TestRingPutBatchLargerThanCapacity pushes one batch bigger than the ring
// and checks it streams through the bound instead of overflowing.
func TestRingPutBatchLargerThanCapacity(t *testing.T) {
	r := NewRing(4)
	const n = 19
	batch := make([]any, n)
	for i := range batch {
		batch[i] = i
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.PutBatch(batch)
	}()
	for i, v := range drainN(t, r, n, 4) {
		if v.(int) != i {
			t.Fatalf("item %d out of order: %v", i, v)
		}
	}
	<-done
}

// FuzzRingDrain checks the ring's contract for any capacity, batch length and
// value stream: one producer's batches come out of Drain in FIFO order, no
// drain returns more than the capacity, and nothing is left behind.
func FuzzRingDrain(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 10, 20, 30, 40, 50})
	f.Add([]byte{7, 2, 255, 0, 128, 128, 3, 3, 3, 9})
	f.Add([]byte("incremental aggregation equivalence"))

	f.Fuzz(func(t *testing.T, data []byte) {
		capacity, batchLen := 1, 1
		if len(data) > 0 {
			capacity = 1 + int(data[0])%8
		}
		if len(data) > 1 {
			batchLen = 1 + int(data[1])%16 // may exceed the capacity
		}
		var values []any
		if len(data) > 2 {
			for _, b := range data[2:] {
				values = append(values, b)
			}
		}

		r := NewRing(capacity)
		go func() {
			for i := 0; i < len(values); i += batchLen {
				r.PutBatch(values[i:min(i+batchLen, len(values))])
			}
		}()
		got := drainN(t, r, len(values), capacity)
		for i := range values {
			if got[i] != values[i] {
				t.Fatalf("FIFO violated at %d: drained %v, produced %v", i, got[i], values[i])
			}
		}
		if rest := r.Drain(); rest != nil {
			t.Fatalf("ring holds %d values after the final drain", len(rest))
		}
	})
}
