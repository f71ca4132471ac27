package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAcquireReleaseBasic(t *testing.T) {
	s := New(2, false)
	s.Acquire(SpawnS, 0)
	s.Acquire(SpawnS, 0)
	if s.InUse() != 2 {
		t.Fatalf("InUse = %d", s.InUse())
	}
	s.Release()
	s.Release()
	if s.InUse() != 0 {
		t.Fatalf("InUse after release = %d", s.InUse())
	}
}

func TestPoolNeverExceedsMax(t *testing.T) {
	const max = 4
	s := New(max, false)
	var inUse, peak int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Acquire(SpawnS, i)
			cur := atomic.AddInt64(&inUse, 1)
			for {
				p := atomic.LoadInt64(&peak)
				if cur <= p || atomic.CompareAndSwapInt64(&peak, p, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			atomic.AddInt64(&inUse, -1)
			s.Release()
		}(i)
	}
	wg.Wait()
	if got := atomic.LoadInt64(&peak); got > max {
		t.Fatalf("observed %d concurrent, pool max is %d", got, max)
	}
	st := s.Stats()
	if st.Admitted != 64 {
		t.Fatalf("Admitted = %d", st.Admitted)
	}
	if st.PeakInUse > max {
		t.Fatalf("PeakInUse = %d > max", st.PeakInUse)
	}
	if st.Waited == 0 {
		t.Fatal("expected some requests to wait with 64 requests on a pool of 4")
	}
}

func TestDisabledSchedulerAdmitsEverything(t *testing.T) {
	s := New(1, true)
	for i := 0; i < 10; i++ {
		s.Acquire(SpawnS, 0) // must not block despite max=1
	}
	if st := s.Stats(); st.PeakInUse != 10 {
		t.Fatalf("disabled scheduler PeakInUse = %d, want 10", st.PeakInUse)
	}
	for i := 0; i < 10; i++ {
		s.Release()
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1, false).Release()
}

func TestNewRejectsBadPool(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, false)
}
