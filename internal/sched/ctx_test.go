package sched

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAcquireCtxAlreadyCancelled(t *testing.T) {
	s := New(2, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.AcquireCtx(ctx, SpawnS, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("AcquireCtx on cancelled ctx = %v, want Canceled", err)
	}
	if got := s.InUse(); got != 0 {
		t.Fatalf("cancelled acquire took a slot: InUse = %d", got)
	}
	if st := s.Stats(); st.Admitted != 0 {
		t.Fatalf("cancelled acquire counted as admitted: %+v", st)
	}
}

// Hammer the admission-wins-over-cancellation race: whatever the outcome of
// each AcquireCtx, slots are conserved — exactly one Release per nil return
// drains the pool to zero and the scheduler stays consistent.
func TestAcquireCtxAdmissionCancellationRace(t *testing.T) {
	s := New(2, false)
	const workers = 16
	for round := 0; round < 50; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if s.AcquireCtx(ctx, SpawnS, 0) == nil {
					s.Release() // release immediately so cancel races admission
				}
			}()
		}
		time.Sleep(time.Duration(round%3) * 100 * time.Microsecond)
		cancel()
		wg.Wait()
		if got := s.InUse(); got != 0 {
			t.Fatalf("round %d: InUse = %d after drain, want 0", round, got)
		}
	}
	st := s.Stats()
	if st.Admitted == 0 {
		t.Fatal("race rounds never admitted anything")
	}
	t.Logf("admitted=%d waited=%d cancelled=%d", st.Admitted, st.Waited, st.Cancelled)
}
