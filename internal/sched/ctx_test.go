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
	if err := s.AcquireCtxJob(ctx, SpawnS, 0, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("AcquireCtxJob on cancelled ctx = %v, want Canceled", err)
	}
	if got := s.InUse(); got != 0 {
		t.Fatalf("cancelled acquire took a slot: InUse = %d", got)
	}
	if st := s.Stats(); st.Admitted != 0 {
		t.Fatalf("cancelled acquire counted as admitted: %+v", st)
	}
}

// Hammer the admission-wins-over-cancellation race: whatever the outcome of
// each AcquireCtxJob, slots are conserved — exactly one Release per nil return
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
				if s.AcquireCtxJob(ctx, SpawnS, 0, nil, nil) == nil {
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

// Hammer the admission-against-withdrawal race the launch loop of every
// saturated round runs: a queued request is withdrawn while the slot it waits
// for is released. Either it is admitted and owns the slot, or it returns
// ErrWithdrawn and the slot stays free; never both, never neither.
func TestWithdrawAdmissionRace(t *testing.T) {
	s := New(1, false)
	for round := 0; round < 500; round++ {
		s.Acquire(SpawnS, 0)
		var r Request
		done := make(chan error, 1)
		go func() { done <- s.AcquireCtxJob(context.Background(), SpawnS, 1, nil, &r) }()
		if round%2 == 0 {
			time.Sleep(time.Duration(round%5) * 10 * time.Microsecond)
		}
		released := make(chan struct{})
		go func() {
			s.Release()
			close(released)
		}()
		s.Withdraw(&r)
		err := <-done
		<-released
		switch err {
		case nil:
			s.Release()
		case ErrWithdrawn:
		default:
			t.Fatalf("round %d: %v", round, err)
		}
		if got, q := s.InUse(), s.Load().Queued; got != 0 || q != 0 {
			t.Fatalf("round %d: InUse %d, %d queued after the round, want 0 and 0", round, got, q)
		}
	}
}
