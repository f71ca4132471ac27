//go:build goexperiment.synctest

//go:debug asynctimerchan=0

// Admission-order tests on a virtual clock: each builds its scheduler inside
// a synctest bubble, and synctest.Wait — every other goroutine of the bubble
// blocked — stands where a sleep used to give a request time to queue. Run
// them with
//
//	GOEXPERIMENT=synctest go test -run '^TestVirtual' ./internal/sched/

package sched

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"testing/synctest"
	"time"
)

// queue starts an acquire on its own goroutine and returns once it is
// admitted or waiting; the channel receives its result at admission.
func queue(ctx context.Context, s *Scheduler, ev Event, todo int) <-chan error {
	done := make(chan error, 1)
	go func() { done <- s.AcquireCtxJob(ctx, ev, todo, nil, nil) }()
	synctest.Wait()
	return done
}

// expect fails the test unless, once every goroutine of the bubble has
// settled, exactly the queued acquires want marks have been admitted.
func expect(t *testing.T, step string, want []bool, reqs ...<-chan error) {
	t.Helper()
	synctest.Wait()
	got := make([]bool, len(reqs))
	for i, r := range reqs {
		got[i] = len(r) > 0
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: admitted %v, want %v", step, got, want)
	}
}

func TestVirtualTuningProcessThreshold(t *testing.T) {
	synctest.Run(func() {
		// Pool of 4: tuning processes may only be admitted while inUse < 3.
		s := New(4, false)
		for i := 0; i < 3; i++ {
			s.Acquire(SpawnT, 0)
		}
		tp := queue(context.Background(), s, SpawnT, 0)
		expect(t, "at 75% of the pool", []bool{false}, tp)
		s.Acquire(SpawnS, 0) // a sampling process still fits
		s.Release()
		expect(t, "back at 75%", []bool{false}, tp)
		s.Release()
		expect(t, "below 75%", []bool{true}, tp)
	})
}

func TestVirtualSamplingPreferredOverTuning(t *testing.T) {
	synctest.Run(func() {
		s := New(1, false)
		s.Acquire(SpawnS, 0)
		tp := queue(context.Background(), s, SpawnT, 0) // queued first
		sp := queue(context.Background(), s, SpawnS, 0)
		s.Release()
		expect(t, "first release", []bool{false, true}, tp, sp)
		s.Release()
		expect(t, "second release", []bool{true}, tp)
	})
}

func TestVirtualSmallerTodoPreferred(t *testing.T) {
	synctest.Run(func() {
		s := New(1, false)
		s.Acquire(SpawnS, 0)
		large := queue(context.Background(), s, SpawnS, 90) // queued first
		small := queue(context.Background(), s, SpawnS, 5)
		s.Release()
		expect(t, "first release", []bool{false, true}, large, small)
		s.Release()
		expect(t, "second release", []bool{true}, large)
	})
}

func TestVirtualSamplingBehindTuningHeadIsWoken(t *testing.T) {
	synctest.Run(func() {
		// Pool 4 at occupancy 3: the queue's head is a tuning process,
		// blocked by the 75% rule; a sampling process behind it fits and
		// must not wait behind it.
		s := New(4, false)
		for i := 0; i < 3; i++ {
			s.Acquire(SpawnS, 0)
		}
		tp := queue(context.Background(), s, SpawnT, 0)
		sp := queue(context.Background(), s, SpawnS, 0)
		expect(t, "sampling behind a blocked head", []bool{false, true}, tp, sp)
		// A release's wake pass with the head still blocked admits nothing.
		s.Release()
		s.Acquire(SpawnS, 0)
		expect(t, "wake pass at 75%", []bool{false}, tp)
		s.Release()
		s.Release()
		expect(t, "below 75%", []bool{true}, tp)
	})
}

func TestVirtualAcquireCtxCancelWhileQueued(t *testing.T) {
	synctest.Run(func() {
		s := New(1, false)
		s.Acquire(SpawnS, 0)
		ctx, cancel := context.WithCancel(context.Background())
		req := queue(ctx, s, SpawnS, 0)
		if st := s.Stats(); st.Waited != 1 {
			t.Fatalf("request not queued: %+v", st)
		}
		cancel()
		if err := <-req; !errors.Is(err, context.Canceled) || s.Stats().Cancelled != 1 {
			t.Fatalf("queued acquire returned %v, Cancelled = %d; want Canceled, 1", err, s.Stats().Cancelled)
		}
		// The cancelled waiter is gone from the queue: a release leaves the
		// pool empty, not a ghost admitted, and the pool is still usable.
		s.Release()
		if got := s.InUse(); got != 0 {
			t.Fatalf("InUse = %d after release, want 0", got)
		}
		if err := s.AcquireCtxJob(context.Background(), SpawnS, 0, nil, nil); err != nil {
			t.Fatalf("acquire after cancellation: %v", err)
		}
	})
}

// A cancelled waiter in the middle of the queue must not corrupt it: the
// remaining waiters are still admitted in priority order.
func TestVirtualAcquireCtxCancelMiddleOfQueue(t *testing.T) {
	synctest.Run(func() {
		s := New(1, false)
		s.Acquire(SpawnS, 0)
		ctx, cancel := context.WithCancel(context.Background())
		small := queue(context.Background(), s, SpawnS, 3)
		middle := queue(ctx, s, SpawnS, 5)
		large := queue(context.Background(), s, SpawnS, 9)
		cancel()
		if err := <-middle; !errors.Is(err, context.Canceled) {
			t.Fatalf("middle waiter returned %v, want Canceled", err)
		}
		s.Release()
		expect(t, "first release", []bool{true, false}, small, large)
		s.Release()
		expect(t, "second release", []bool{true}, large)
		if err := <-large; err != nil {
			t.Fatalf("todo=9 waiter: %v", err)
		}
	})
}

func TestVirtualAddCapacityRaisesSamplingBound(t *testing.T) {
	synctest.Run(func() {
		s := New(2, false)
		s.Acquire(SpawnS, 0)
		s.Acquire(SpawnS, 0)
		third := queue(context.Background(), s, SpawnS, 0)
		expect(t, "pool of 2", []bool{false}, third)
		// Remote worker capacity arrives: the waiter is admitted without any
		// Release.
		s.AddCapacity(3)
		expect(t, "after AddCapacity", []bool{true}, third)
		// Capacity can shrink again (worker drained).
		s.AddCapacity(-3)
		for i := 0; i < 3; i++ {
			s.Release()
		}
		s.Acquire(SpawnS, 0) // bound is back to 2; one still fits
		if s.InUse() != 1 {
			t.Fatalf("InUse = %d", s.InUse())
		}
	})
}

// The load feed an elastic fleet steers by accrues exactly the time a
// request spent queued.
func TestVirtualLoadFeedAccruesWait(t *testing.T) {
	synctest.Run(func() {
		const held = 5 * time.Millisecond
		s := New(1, false)
		s.Acquire(SpawnS, 0)
		before := s.Load()
		req := queue(context.Background(), s, SpawnS, 0)
		if q := s.Load(); before.InUse != 1 || before.Capacity != 1 || before.Queued != 0 || q.Queued != 1 {
			t.Fatalf("Load before contention %+v, with one request waiting %+v", before, q)
		}
		time.Sleep(held)
		s.Release()
		<-req
		after := s.Load()
		if after.Waited != before.Waited+1 || after.Queued != 0 ||
			time.Duration(after.WaitNanos-before.WaitNanos) != held {
			t.Fatalf("after admission %+v: want one more wait of exactly %v, nothing queued", after, held)
		}
	})
}

// With max=1 the 75% limit rounds to 0; the scheduler must still admit one
// tuning process, or the whole system deadlocks at startup (which the
// bubble reports as a deadlock).
func TestVirtualTinyPoolTuningLimitAtLeastOne(t *testing.T) {
	synctest.Run(func() {
		s := New(1, false)
		s.Acquire(SpawnT, 0)
		s.Release()
	})
}

// A sampling round's launch loop keeps one request queued for a slot more
// until a worker claims the round's last pair and withdraws it (Withdraw).
// A withdrawn request leaves the queue at once and never takes a slot, a
// later acquire on it fails without queueing, a withdrawal that comes after
// the admission changes nothing, and ending the request's context still ends
// its wait.
func TestVirtualLaunchWithdrawal(t *testing.T) {
	synctest.Run(func() {
		s := New(1, false)
		s.Acquire(SpawnS, 0) // the pool is full
		acquire := func(ctx context.Context, r *Request) <-chan error {
			done := make(chan error, 1)
			go func() { done <- s.AcquireCtxJob(ctx, SpawnS, 4, nil, r) }()
			synctest.Wait()
			return done
		}

		var launch Request
		req := acquire(context.Background(), &launch)
		if q := s.Load().Queued; q != 1 {
			t.Fatalf("launch request not queued: %d queued", q)
		}
		behind := queue(context.Background(), s, SpawnS, 9)
		s.Withdraw(&launch)
		if err := <-req; err != ErrWithdrawn {
			t.Fatalf("withdrawn request returned %v, want ErrWithdrawn", err)
		}
		// The slot the round frees goes to the request behind it, not to the
		// withdrawn one.
		s.Release()
		expect(t, "release after the withdrawal", []bool{true}, behind)
		if err := <-acquire(context.Background(), &launch); err != ErrWithdrawn {
			t.Fatalf("acquire on a withdrawn request returned %v, want ErrWithdrawn", err)
		}
		if st := s.Stats(); s.InUse() != 1 || st.Waited != 2 || st.Cancelled != 1 {
			t.Fatalf("InUse %d, %+v: want the one slot held by the request behind, 2 queued, 1 withdrawn", s.InUse(), st)
		}

		// Admitted first, withdrawn after: the admission stands.
		var late Request
		admitted := acquire(context.Background(), &late)
		s.Release()
		synctest.Wait()
		s.Withdraw(&late)
		if err := <-admitted; err != nil {
			t.Fatalf("admitted request returned %v after a late withdrawal", err)
		}

		// The round's context ends the wait; withdrawing afterwards is harmless.
		ctx, cancel := context.WithCancel(context.Background())
		var cut Request
		ended := acquire(ctx, &cut)
		cancel()
		if err := <-ended; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled request returned %v, want Canceled", err)
		}
		s.Withdraw(&cut)
		s.Release()
		if got, q := s.InUse(), s.Load().Queued; got != 0 || q != 0 {
			t.Fatalf("InUse %d, %d queued after the last release, want 0 and 0", got, q)
		}
	})
}
