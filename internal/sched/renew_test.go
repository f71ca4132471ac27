package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/obs"
)

// renewReq is one admission request in a TestRenew case: who asks (index into
// the case's jobs; -1 = unattributed), for what kind, with what todo.
type renewReq struct {
	job   int
	event Event
	todo  int
}

// TestRenew pins the one rule Renew adds to Algorithm 1: a finishing holder
// keeps its slot unless a queued request that would be admitted into the
// freed slot is strictly ahead of the renewal in the admission order.
func TestRenew(t *testing.T) {
	type jobDef struct{ share, cap int }
	one := []jobDef{{1, 0}}
	cases := []struct {
		name     string
		pool     int
		addCap   int // AddCapacity before anything is held
		disabled bool
		jobs     []jobDef
		held     []renewReq // admitted before the waiters arrive; held[0] is the renewing holder
		queue    []renewReq // must all end up queued
		shrink   int        // RemoveCapacity once everything is in place
		want     bool
	}{
		{name: "same job, waiter with equal todo: holder wins the tie", pool: 2, jobs: one,
			held: []renewReq{{0, SpawnS, 7}, {0, SpawnS, 0}}, queue: []renewReq{{0, SpawnS, 7}}, want: true},
		{name: "same job, waiter with larger todo", pool: 2, jobs: one,
			held: []renewReq{{0, SpawnS, 7}, {0, SpawnS, 0}}, queue: []renewReq{{0, SpawnS, 9}}, want: true},
		{name: "same job, waiter with smaller todo", pool: 2, jobs: one,
			held: []renewReq{{0, SpawnS, 7}, {0, SpawnS, 0}}, queue: []renewReq{{0, SpawnS, 6}}, want: false},
		{name: "unattributed holder and waiter order by todo alone", pool: 1,
			held: []renewReq{{-1, SpawnS, 7}}, queue: []renewReq{{-1, SpawnS, 6}}, want: false},
		// Pool 4: a tuning process needs occupancy below 3, so with 3 held the
		// SpawnT request queues although the freed slot would admit it.
		{name: "SpawnT waiter of an idle job never displaces a SpawnS renewal", pool: 4, jobs: []jobDef{{1, 0}, {1, 0}},
			held: []renewReq{{0, SpawnS, 7}, {0, SpawnS, 0}, {0, SpawnS, 0}}, queue: []renewReq{{1, SpawnT, 0}}, want: true},
		// AddCapacity(-2) leaves sampling bound 2 below the tuning bound 3, the
		// only way a SpawnS request queues while a SpawnT renewal is in bounds.
		{name: "SpawnS waiter always displaces a SpawnT renewal", pool: 4, addCap: -2, jobs: one,
			held: []renewReq{{0, SpawnT, 0}, {0, SpawnS, 0}}, queue: []renewReq{{0, SpawnS, 99}}, want: false},
		// Shares 1:1. Holder's job holds 3, discounted 2; the other holds 1.
		{name: "other job lighter per share", pool: 4, jobs: []jobDef{{1, 0}, {1, 0}},
			held:  []renewReq{{0, SpawnS, 7}, {0, SpawnS, 0}, {0, SpawnS, 0}, {1, SpawnS, 0}},
			queue: []renewReq{{1, SpawnS, 7}}, want: false},
		// Holder's job holds 2, discounted 1 — level with the other job's 1:
		// without the discount the waiter would look lighter.
		{name: "other job equal per share once the holder's slot is discounted", pool: 3, jobs: []jobDef{{1, 0}, {1, 0}},
			held:  []renewReq{{0, SpawnS, 7}, {0, SpawnS, 0}, {1, SpawnS, 0}},
			queue: []renewReq{{1, SpawnS, 7}}, want: true},
		{name: "other job equal per share, smaller todo", pool: 3, jobs: []jobDef{{1, 0}, {1, 0}},
			held:  []renewReq{{0, SpawnS, 7}, {0, SpawnS, 0}, {1, SpawnS, 0}},
			queue: []renewReq{{1, SpawnS, 6}}, want: false},
		// Shares 1:3. (2-1)/1 against 3/3 is level; against 2/3 the waiter is lighter.
		{name: "weighted: 1/1 against 3/3", pool: 5, jobs: []jobDef{{1, 0}, {3, 0}},
			held:  []renewReq{{0, SpawnS, 7}, {0, SpawnS, 0}, {1, SpawnS, 0}, {1, SpawnS, 0}, {1, SpawnS, 0}},
			queue: []renewReq{{1, SpawnS, 7}}, want: true},
		{name: "weighted: 1/1 against 2/3", pool: 4, jobs: []jobDef{{1, 0}, {3, 0}},
			held:  []renewReq{{0, SpawnS, 7}, {0, SpawnS, 0}, {1, SpawnS, 0}, {1, SpawnS, 0}},
			queue: []renewReq{{1, SpawnS, 7}}, want: false},
		// The lighter job's request is queued behind its own cap, not behind
		// the pool: freeing a slot would not admit it.
		{name: "waiter whose job is at its cap is ignored", pool: 4, jobs: []jobDef{{1, 0}, {1, 1}},
			held:  []renewReq{{0, SpawnS, 7}, {0, SpawnS, 0}, {1, SpawnS, 0}},
			queue: []renewReq{{1, SpawnS, 0}}, want: true},
		{name: "a capped job's own waiter counts: the cap has room once the holder exits", pool: 4, jobs: []jobDef{{1, 2}},
			held: []renewReq{{0, SpawnS, 7}, {0, SpawnS, 0}}, queue: []renewReq{{0, SpawnS, 6}}, want: false},
		// Full pool of 4: the freed slot leaves occupancy 3, not below the
		// tuning bound, so nothing queued could use it.
		{name: "waiter whose kind has no headroom is ignored", pool: 4, jobs: []jobDef{{1, 0}, {1, 0}},
			held:  []renewReq{{0, SpawnS, 7}, {0, SpawnS, 0}, {0, SpawnS, 0}, {0, SpawnS, 0}},
			queue: []renewReq{{1, SpawnT, 0}}, want: true},
		{name: "occupancy above the bound after RemoveCapacity", pool: 2, addCap: 2, jobs: one,
			held: []renewReq{{0, SpawnS, 7}, {0, SpawnS, 0}, {0, SpawnS, 0}, {0, SpawnS, 0}}, shrink: 2, want: false},
		{name: "disabled scheduler never renews", pool: 2, disabled: true, jobs: one,
			held: []renewReq{{0, SpawnS, 7}}, want: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			s := New(tc.pool, tc.disabled)
			s.Instrument(reg)
			s.AddCapacity(tc.addCap)
			jobs := make([]*Job, len(tc.jobs))
			for i, d := range tc.jobs {
				jobs[i] = NewJob(d.share, d.cap)
			}
			job := func(i int) *Job {
				if i < 0 {
					return nil
				}
				return jobs[i]
			}
			for _, h := range tc.held {
				s.AcquireJob(h.event, h.todo, job(h.job))
			}
			var wg sync.WaitGroup
			for i, q := range tc.queue {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s.AcquireJob(q.event, q.todo, job(q.job))
					s.ReleaseJob(job(q.job))
				}()
				for s.Load().Queued != i+1 {
					time.Sleep(100 * time.Microsecond)
				}
			}
			s.RemoveCapacity(tc.shrink)

			holder := tc.held[0]
			before, inUse := s.Stats(), s.InUse()
			hist := reg.Histogram(MetricWaitSeconds, obs.DurationBuckets(), "kind", "sampling")
			if holder.event == SpawnT {
				hist = reg.Histogram(MetricWaitSeconds, obs.DurationBuckets(), "kind", "tuning")
			}
			obsBefore := hist.Count()
			got := s.Renew(holder.event, holder.todo, job(holder.job))
			if got != tc.want {
				t.Errorf("Renew = %v, want %v", got, tc.want)
			}
			// Renew counts nothing itself. Its caller counts a granted renewal
			// and folds it in, as one admission with zero wait; a declined one
			// is nothing.
			if st := s.Stats(); st.Admitted != before.Admitted || hist.Count() != obsBefore {
				t.Errorf("Renew = %v counted itself: Admitted %d→%d, wait histogram %d→%d observations",
					got, before.Admitted, st.Admitted, obsBefore, hist.Count())
			}
			grew := int64(0)
			if got {
				grew = 1
			}
			s.CountRenewals(holder.event, grew)
			after := s.Stats()
			if after.Admitted-before.Admitted != grew || hist.Count()-obsBefore != uint64(grew) || hist.Sum() != 0 {
				t.Errorf("Renew = %v and its fold moved Admitted by %d and the wait histogram by %d observations (sum %g), want %d (sum 0)",
					got, after.Admitted-before.Admitted, hist.Count()-obsBefore, hist.Sum(), grew)
			}
			if after.Waited != before.Waited || s.InUse() != inUse || s.Load().Queued != len(tc.queue) {
				t.Errorf("Renew changed the pool: waited %d→%d, in use %d→%d, queued %d→%d",
					before.Waited, after.Waited, inUse, s.InUse(), len(tc.queue), s.Load().Queued)
			}

			// Either way the holder still owns its slot; releasing everything
			// admits every waiter and drains the pool.
			for _, h := range tc.held {
				s.ReleaseJob(job(h.job))
			}
			wg.Wait()
			if s.InUse() != 0 {
				t.Errorf("InUse = %d after drain", s.InUse())
			}
		})
	}
}

// TestRenewUncontendedTakesNoLock: with nothing queued Renew must not touch
// the wait-list mutex — it is called once per sample by every slot holder.
func TestRenewUncontendedTakesNoLock(t *testing.T) {
	s := New(2, false)
	j := NewJob(1, 0)
	s.AcquireJob(SpawnS, 3, j)
	s.mu.Lock()
	done := make(chan bool, 1)
	go func() {
		ok := s.Renew(SpawnS, 2, j)
		if ok {
			s.CountRenewals(SpawnS, 1)
		}
		done <- ok
	}()
	select {
	case ok := <-done:
		s.mu.Unlock()
		if !ok {
			t.Fatal("Renew declined with an empty queue")
		}
	case <-time.After(5 * time.Second):
		s.mu.Unlock()
		t.Fatal("Renew blocked on the wait-list mutex with nothing queued")
	}
	if st := s.Stats(); st.Admitted != 2 || st.Waited != 0 {
		t.Fatalf("stats after acquire + renew and its fold = %+v, want 2 admitted, 0 waited", st)
	}
	s.ReleaseJob(j)
}

// errCounter is a context that counts the calls of its Err.
type errCounter struct {
	context.Context
	calls atomic.Int64
}

func (c *errCounter) Err() error {
	c.calls.Add(1)
	return c.Context.Err()
}

// TestRenewLeavesOwnLaunchRequestAlone: a saturated round's launch loop keeps
// a request queued all round, with a todo at least that of every renewal
// behind it. Renew must keep the slot from the wait-list counts alone: not
// scan the list, so never ask the request's context.
func TestRenewLeavesOwnLaunchRequestAlone(t *testing.T) {
	s := New(1, false)
	j := NewJob(1, 0)
	s.AcquireJob(SpawnS, 7, j)
	ctx := &errCounter{Context: context.Background()}
	done := make(chan error, 1)
	go func() {
		err := s.AcquireCtxJob(ctx, SpawnS, 9, j, nil)
		if err == nil {
			s.ReleaseJob(j)
		}
		done <- err
	}()
	// Wait under the mutex: the request's enqueuer asks its Err in the wake
	// that follows the enqueue, before it lets go.
	for queued := 0; queued != 1; {
		time.Sleep(100 * time.Microsecond)
		s.mu.Lock()
		queued = len(s.queue)
		s.mu.Unlock()
	}
	before := ctx.calls.Load()
	if !s.Renew(SpawnS, 7, j) {
		t.Error("Renew declined behind its own round's launch request")
	}
	if n := ctx.calls.Load() - before; n != 0 {
		t.Errorf("Renew called the queued request's Err %d times, want 0", n)
	}
	s.ReleaseJob(j)
	if err := <-done; err != nil {
		t.Fatalf("launch request: %v", err)
	}
	if s.InUse() != 0 {
		t.Errorf("InUse = %d after drain", s.InUse())
	}
}

// TestRenewWritesNothing: Renew is called once per sample by every slot
// holder of a round, so a granted renewal must leave the scheduler, the job
// and the wait histogram exactly as it found them: uncontended, and behind
// the round's own launch request. Its caller counts it (CountRenewals).
func TestRenewWritesNothing(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(1, false)
	s.Instrument(reg)
	j := NewJob(1, 0)
	hist := reg.Histogram(MetricWaitSeconds, obs.DurationBuckets(), "kind", "sampling")
	s.AcquireJob(SpawnS, 7, j)
	renew := func(when string) {
		t.Helper()
		sb, jb := *(*[unsafe.Sizeof(*s)]byte)(unsafe.Pointer(s)), *(*[unsafe.Sizeof(*j)]byte)(unsafe.Pointer(j))
		n := hist.Count()
		if !s.Renew(SpawnS, 7, j) {
			t.Fatalf("%s: Renew declined", when)
		}
		if sb != *(*[unsafe.Sizeof(*s)]byte)(unsafe.Pointer(s)) || jb != *(*[unsafe.Sizeof(*j)]byte)(unsafe.Pointer(j)) || hist.Count() != n {
			t.Errorf("%s: Renew wrote to the scheduler, the job or the wait histogram", when)
		}
	}
	renew("uncontended")

	done := make(chan error, 1)
	go func() {
		err := s.AcquireCtxJob(context.Background(), SpawnS, 9, j, nil)
		if err == nil {
			s.ReleaseJob(j)
		}
		done <- err
	}()
	for queued := 0; queued != 1; {
		time.Sleep(100 * time.Microsecond)
		s.mu.Lock()
		queued = len(s.queue)
		s.mu.Unlock()
	}
	renew("behind its own launch request")
	s.ReleaseJob(j)
	if err := <-done; err != nil {
		t.Fatalf("launch request: %v", err)
	}
}
