// Package sched implements the WBTuner process scheduler (Algorithm 1 in the
// paper), extended with multi-tenant admission. The scheduler throttles
// process creation so that a tuning run does not exhaust memory: sampling
// processes are prioritized over tuning processes because they conduct the
// real computation, and a tuning process may only be admitted while less
// than 75% of the pool is occupied, so that a burst of @split calls cannot
// starve the sampling workers.
//
// When several tuning jobs share one pool, each acquires under a Job handle
// carrying a weighted share and an optional hard cap. Admission under
// contention is weighted max-min fair: among waiting requests of the same
// kind, the one whose job holds the fewest slots relative to its share is
// admitted first, so K saturating jobs converge to occupancy proportional
// to their shares — with no per-job carve-up, an idle job's capacity flows
// to the busy ones. Within one job the Algorithm 1 order is unchanged
// (fewer remaining samples first), so a single-job run schedules exactly as
// before.
//
// Admission is two-tier. While the pool has headroom and nothing is queued,
// Acquire and Release are a single CAS on the occupancy word (plus one on
// the job's slot count). A request that does not fit falls back to the
// mutex-protected wait list. A saturated sampling round — more samples than
// slots, which is every round of any size — stays off that list too: a
// finishing sampling process calls Renew, which is EXIT followed by SPAWN of
// the same kind without the slot changing hands, and runs the round's next
// sample itself. The holder yields (a plain Release) only to a queued
// request strictly ahead of it in the admission order, and Renew scans the
// wait list under the mutex only if one can be: not for the launcher's
// standing request for one more slot, queued all round with a todo taken
// when fewer pairs were launched (ownBehind). The occupancy word and the
// waiter count form the usual two-flag protocol: an acquirer publishes its
// waiter entry before re-checking occupancy, a releaser decrements occupancy
// before checking for waiters, so (with sequentially consistent atomics) at
// least one side observes the other and no wakeup is lost. A renewal frees
// nothing, so it has no wakeup to lose: a waiter it did not see is seen by
// the holder's next Renew or Release.
//
// What the counters mean follows from that. Admitted counts processes
// admitted, whichever of the three ways (CAS, queue, Renew) let them in; a
// sampling round counts its renewals and hands them to CountRenewals when it
// ends, so Admitted is exact whenever no round is in flight.
// Waited counts requests that were queued — about one per saturated round
// (the round's launcher asking for one more slot than the pool has), not one
// per sample. WaitNanos accrues for as long as such a request stays queued,
// i.e. the whole time a round wanted more slots than it had, which is the
// pressure signal an elastic fleet controller steers by.
package sched

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Event classifies a scheduling request, mirroring Algorithm 1's SPAWN_S,
// SPAWN_T and EXIT events (EXIT is expressed as Release here).
type Event int

const (
	// SpawnS requests admission of a sampling process.
	SpawnS Event = iota
	// SpawnT requests admission of a tuning process.
	SpawnT
)

// tpFraction is the fraction of the pool a tuning process may not push
// occupancy beyond (Algorithm 1 sets the tuning-process threshold to
// MAX_POOL_SIZE * 0.75, i.e. it must wait if 25% of slots would remain).
const tpFraction = 0.75

// Stats reports scheduler behaviour for the optimization-effect experiment
// (Fig. 10): how many processes were admitted, how many requests had to
// queue, and the peak number of simultaneously admitted processes.
type Stats struct {
	Admitted  int64
	Waited    int64
	Cancelled int64 // queued requests whose context ended or that were withdrawn
	PeakInUse int
}

// Job is one tenant's admission handle on a shared scheduler. Every slot a
// job's processes hold is counted against it; under contention the wait
// list is served weighted max-min fair across jobs (see the package
// comment). The zero Job is not usable; construct with NewJob. A nil *Job
// is accepted everywhere and means "unattributed" (legacy single-tenant
// callers): no cap, and treated as an always-zero-load tenant in the
// fairness order.
type Job struct {
	share int64
	cap   int64 // max concurrently held slots; 0 = no cap
	inuse atomic.Int64

	// The job's queued sampling requests and their least todo, kept under
	// the scheduler's mu for Renew (ownBehind).
	queuedS    atomic.Int64
	leastTodoS atomic.Int64
}

// NewJob returns a job admission handle with the given weighted share
// (must be >= 1) and hard cap on concurrently held slots (0 = uncapped).
// The handle is independent of any particular scheduler; use each handle
// with one scheduler only, or its slot accounting becomes meaningless.
func NewJob(share, cap int) *Job {
	if share < 1 {
		panic("sched: job share must be >= 1")
	}
	if cap < 0 {
		panic("sched: negative job cap")
	}
	return &Job{share: int64(share), cap: int64(cap)}
}

// InUse reports the number of pool slots the job currently holds.
func (j *Job) InUse() int {
	if j == nil {
		return 0
	}
	return int(j.inuse.Load())
}

// Share reports the job's weighted share.
func (j *Job) Share() int {
	if j == nil {
		return 1
	}
	return int(j.share)
}

// tryTake claims one job-local slot under the hard cap with a bounded CAS.
// Nil-safe: an unattributed request always succeeds.
func (j *Job) tryTake() bool {
	if j == nil {
		return true
	}
	for {
		o := j.inuse.Load()
		if j.cap > 0 && o >= j.cap {
			return false
		}
		if j.inuse.CompareAndSwap(o, o+1) {
			return true
		}
	}
}

// put returns one job-local slot. Nil-safe.
func (j *Job) put() {
	if j == nil {
		return
	}
	if j.inuse.Add(-1) < 0 {
		panic("sched: job release without matching acquire")
	}
}

// atCap reports whether the job cannot currently take another slot.
func (j *Job) atCap() bool {
	return j != nil && j.cap > 0 && j.inuse.Load() >= j.cap
}

// load returns the job's fairness coordinates: slots held and share.
// Unattributed requests read as a zero-load tenant of share 1.
func (j *Job) load() (inuse, share int64) {
	if j == nil {
		return 0, 1
	}
	return j.inuse.Load(), j.share
}

type waiter struct {
	ctx       context.Context // the request's; a cancelled request is passed over
	event     Event
	todo      int
	seq       int64
	job       *Job
	req       *Request      // the caller's handle, if it may be withdrawn
	ready     chan struct{} // 1-buffered; one token per queued stint
	index     int           // position in the wait list; -1 once admitted or removed
	withdrawn bool          // the token on ready is a withdrawal, not an admission
}

// ErrWithdrawn is what an acquire returns when its Request was withdrawn
// before it was admitted: no slot was taken.
var ErrWithdrawn = errors.New("sched: request withdrawn")

// Request is a handle on an acquire that another goroutine may withdraw
// (Withdraw): a sampling round's launch loop keeps asking for one slot more
// until a worker claims the round's last pair. The zero value is a request
// nobody has withdrawn; one Request serves one acquirer at a time.
type Request struct {
	withdrawn atomic.Bool
	w         *waiter // the queued entry, under the scheduler's mu; nil when not queued
}

// Withdraw withdraws r: a queued acquire on it returns ErrWithdrawn at once,
// and a later one before admission. It takes no slot from anybody, and once
// it returns, no slot goes to r's queued acquire.
func (s *Scheduler) Withdraw(r *Request) {
	s.mu.Lock()
	r.withdrawn.Store(true)
	if w := r.w; w != nil {
		s.removeWaiter(w.index)
		s.cancelled.Add(1)
		w.withdrawn = true
		w.ready <- struct{}{}
	}
	s.mu.Unlock()
}

// better reports whether waiter a should be admitted before waiter b:
// sampling processes before tuning processes (Algorithm 1), then the job
// holding fewer slots per unit of share (weighted max-min fairness; equal
// for two waiters of the same job), then fewer remaining samples, then
// FIFO. Job loads are read atomically at comparison time, so the order is a
// heuristic snapshot — caps and occupancy are re-checked at admission.
func better(a, b *waiter) bool {
	if a.event != b.event {
		return a.event == SpawnS // sampling processes first
	}
	if a.job != b.job {
		ai, as := a.job.load()
		bi, bs := b.job.load()
		// Compare ai/as < bi/bs without division.
		if ai*bs != bi*as {
			return ai*bs < bi*as
		}
	}
	if a.todo != b.todo {
		return a.todo < b.todo // fewer remaining samples first
	}
	return a.seq < b.seq // FIFO among equals
}

// Scheduler admits processes into a bounded pool. The zero value is not
// usable; construct with New.
type Scheduler struct {
	// Read by every admission and renewal; written when a slot changes hands
	// or the wait list changes. A renewal writes nothing (CountRenewals).
	max      int
	disabled bool
	limS     atomic.Int64 // occupancy bound for sampling processes (local pool + added remote capacity)
	limT     int64        // occupancy bound for tuning processes (75% rule)
	occ      atomic.Int64
	nwait    atomic.Int64 // number of queued waiters; releasers skip the mutex at 0
	nwaitS   atomic.Int64 // the queued sampling requests among them

	// Optional instruments (nil without Instrument); both are internally
	// atomic, so hot-path updates do not take mu.
	occupancy *obs.Gauge
	waitS     *obs.Histogram
	waitT     *obs.Histogram

	admitted  atomic.Int64
	waited    atomic.Int64
	waitNanos atomic.Int64 // total queued-wait time, feeds LoadStats
	cancelled atomic.Int64
	peak      atomic.Int64

	// Admission-queue depth reported by a jobs manager holding whole jobs
	// in front of the running set (NoteQueuedJobs). Distinct from nwait,
	// which counts process-level spawn requests already inside running jobs.
	jobsQueued     atomic.Int64
	highJobsQueued atomic.Int64

	mu    sync.Mutex
	seq   int64
	queue []*waiter // unordered bag; selection scans under mu

	// waiters recycles wait-list entries. Admission is signalled by a
	// buffered send instead of a close, so the channel survives reuse; each
	// queued stint produces at most one token (wake sends exactly once when
	// it dequeues the entry, cancellation dequeues without sending) and every
	// exit path drains the token it was sent, so a pooled waiter's channel is
	// always empty. The pool is the scheduler's own: a waiter's channel never
	// outlives the scheduler that made it.
	waiters sync.Pool
}

// New returns a scheduler with the given pool size. max must be positive.
// If disabled is true the scheduler admits everything immediately (used by
// the Fig. 10 ablation); it still records statistics and enforces job caps.
func New(max int, disabled bool) *Scheduler {
	if max <= 0 {
		panic("sched: pool size must be positive")
	}
	s := &Scheduler{max: max, disabled: disabled}
	s.waiters.New = func() any { return &waiter{ready: make(chan struct{}, 1)} }
	s.limS.Store(int64(max))
	s.limT = int64(tpLimitFor(max))
	if disabled {
		s.limS.Store(math.MaxInt64)
		s.limT = math.MaxInt64
	}
	return s
}

// AddCapacity grows (n > 0) or shrinks (n < 0) the sampling-process
// occupancy bound by n slots. A network executor calls it with the remote
// fleet's slot count so that Algorithm 1's admission covers local plus
// remote capacity with one occupancy word — a dispatched sample holds a
// scheduler slot exactly like a local one, and the 75% tuning-process rule
// stays tied to the local pool only (tuning processes always run locally).
// Shrinking below current occupancy is allowed: existing processes finish,
// new admissions wait. No-op on a disabled scheduler.
func (s *Scheduler) AddCapacity(n int) {
	if s.disabled || n == 0 {
		return
	}
	if s.limS.Add(int64(n)) < 1 {
		panic("sched: AddCapacity drove the sampling bound below 1")
	}
	if n < 0 || s.nwait.Load() == 0 {
		return
	}
	// New headroom may admit queued waiters that no Release will ever wake.
	s.mu.Lock()
	s.wakeLocked()
	s.mu.Unlock()
}

// RemoveCapacity shrinks the sampling-process occupancy bound by n slots —
// the retirement half of AddCapacity, called when a remote worker drains out
// of the fleet. Shrinking below current occupancy is allowed: admitted
// processes finish, new admissions wait for the smaller bound. n must be
// non-negative; no-op on a disabled scheduler.
func (s *Scheduler) RemoveCapacity(n int) {
	if n < 0 {
		panic("sched: RemoveCapacity with negative n; use AddCapacity to grow")
	}
	s.AddCapacity(-n)
}

// LoadStats is a point-in-time snapshot of scheduler pressure — the feed an
// elastic fleet controller steers by. Admitted/Waited/WaitNanos are
// cumulative; a controller polls periodically and differences consecutive
// snapshots to get the admission-wait accrued per interval.
type LoadStats struct {
	// Admitted counts admissions since construction. Renewals arrive once
	// per sampling round (CountRenewals), so it lags by a running round's.
	Admitted int64
	// Waited counts requests that had to queue first. A saturated sampling
	// round queues about one (its launcher's), not one per sample: the
	// samples behind it are admitted by Renew.
	Waited int64
	// WaitNanos is the total time queued requests spent waiting before
	// admission (or cancellation), in nanoseconds — for a sampling round,
	// the whole time it wanted more slots than it had.
	WaitNanos int64
	// Queued is the number of requests waiting right now.
	Queued int
	// InUse is the current pool occupancy.
	InUse int
	// Capacity is the current sampling-process bound (local pool plus
	// added remote capacity).
	Capacity int
	// JobsQueued is the number of whole jobs a jobs manager is holding in
	// an admission queue in front of the running set (see NoteQueuedJobs).
	JobsQueued int
	// HighJobsQueued is the high-priority subset of JobsQueued. A fleet
	// controller treats it as pressure even when process-level waits are
	// quiet: a high-priority job stuck behind a full running set wants
	// capacity now.
	HighJobsQueued int
}

// Load returns the scheduler's current load snapshot.
func (s *Scheduler) Load() LoadStats {
	return LoadStats{
		Admitted:       s.admitted.Load(),
		Waited:         s.waited.Load(),
		WaitNanos:      s.waitNanos.Load(),
		Queued:         int(s.nwait.Load()),
		InUse:          int(s.occ.Load()),
		Capacity:       s.Capacity(),
		JobsQueued:     int(s.jobsQueued.Load()),
		HighJobsQueued: int(s.highJobsQueued.Load()),
	}
}

// NoteQueuedJobs adjusts the admission-queue depth surfaced through
// LoadStats. A jobs manager queueing whole jobs in front of the running set
// calls it with +1 on enqueue and -1 on dequeue, setting high for
// high-priority entries, so load consumers (notably the elastic fleet
// controller) can see control-plane backlog that process-level wait
// counters cannot: a queued job runs no processes yet, so it accrues no
// WaitNanos. delta may be any signed value; the depth never goes negative.
func (s *Scheduler) NoteQueuedJobs(high bool, delta int) {
	if s.jobsQueued.Add(int64(delta)) < 0 {
		s.jobsQueued.Store(0)
	}
	if high {
		if s.highJobsQueued.Add(int64(delta)) < 0 {
			s.highJobsQueued.Store(0)
		}
	}
}

// Scheduler metric names.
const (
	MetricWaitSeconds   = "wbtuner_sched_wait_seconds"
	MetricPoolOccupancy = "wbtuner_sched_pool_occupancy"
)

// Instrument registers the scheduler's metrics with reg: an admission-wait
// histogram per request kind (MetricWaitSeconds, label kind=sampling|tuning;
// immediate admissions and renewals observe zero) and the pool-occupancy gauge
// (MetricPoolOccupancy). Call it before the scheduler sees traffic.
func (s *Scheduler) Instrument(reg *obs.Registry) {
	reg.SetHelp(MetricWaitSeconds, "time a process waited for pool admission (Algorithm 1); zero for an immediate admission or a renewed slot")
	reg.SetHelp(MetricPoolOccupancy, "currently admitted tuning + sampling processes")
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waitS = reg.Histogram(MetricWaitSeconds, obs.DurationBuckets(), "kind", "sampling")
	s.waitT = reg.Histogram(MetricWaitSeconds, obs.DurationBuckets(), "kind", "tuning")
	s.occupancy = reg.Gauge(MetricPoolOccupancy)
}

// waitHist returns the wait histogram for an event kind (nil when not
// instrumented).
func (s *Scheduler) waitHist(event Event) *obs.Histogram {
	if event == SpawnS {
		return s.waitS
	}
	return s.waitT
}

// tpLimitFor is the occupancy a tuning process may not reach.
func tpLimitFor(max int) int {
	lim := int(float64(max) * tpFraction)
	if lim < 1 {
		lim = 1
	}
	return lim
}

// limit returns the occupancy bound for an event kind.
func (s *Scheduler) limit(event Event) int64 {
	if event == SpawnS {
		return s.limS.Load()
	}
	return s.limT
}

// tryOcc attempts to take one slot for the given kind with a bounded CAS,
// recording the peak on success. It is safe with or without s.mu held.
func (s *Scheduler) tryOcc(event Event) bool {
	lim := s.limit(event)
	for {
		o := s.occ.Load()
		if o >= lim {
			return false
		}
		if s.occ.CompareAndSwap(o, o+1) {
			for {
				p := s.peak.Load()
				if o+1 <= p || s.peak.CompareAndSwap(p, o+1) {
					break
				}
			}
			return true
		}
	}
}

// noteAdmit records one admission's counters and gauge.
func (s *Scheduler) noteAdmit() {
	s.admitted.Add(1)
	if s.occupancy != nil {
		s.occupancy.Set(float64(s.occ.Load()))
	}
}

// Acquire blocks until the scheduler admits an unattributed process of the
// given kind. todo is the number of samples remaining for the requesting
// tuning process and orders waiting requests (Algorithm 1). Every
// successful Acquire must be paired with exactly one Release.
func (s *Scheduler) Acquire(event Event, todo int) {
	s.AcquireJob(event, todo, nil)
}

// AcquireJob is Acquire under a job handle: the slot is charged to j's
// in-use count, j's hard cap is enforced, and under contention the request
// waits in the weighted-fair order. Pair with ReleaseJob(j).
func (s *Scheduler) AcquireJob(event Event, todo int, j *Job) {
	_ = s.AcquireCtxJob(context.Background(), event, todo, j, nil) // never fails: nothing can end it
}

// AcquireCtxJob is AcquireJob with cancellation and withdrawal: it returns
// ctx.Err() if the context is cancelled, or ErrWithdrawn if r (nil for a
// request nobody withdraws) is withdrawn, while the request is still queued,
// in which case no slot was taken and the caller must NOT release. If
// cancellation races with admission the admission wins (AcquireCtxJob returns
// nil and the caller owns a slot), so a cancelled sampling region can never
// strand pool capacity — Algorithm 1's admission queue stays live even when
// every outstanding request belongs to a wedged region. A request whose
// context is already cancelled when a slot frees is passed over, so
// cancelling a request before releasing a slot guarantees the slot goes to
// somebody else; a withdrawn one leaves the queue at once.
func (s *Scheduler) AcquireCtxJob(ctx context.Context, event Event, todo int, j *Job, r *Request) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if r != nil && r.withdrawn.Load() {
		return ErrWithdrawn
	}
	// Fast path: nothing queued, the job is under its cap, and the pool has
	// headroom — two CASes, no lock. Declined the moment anything waits, so
	// queued requests keep their priority against new arrivals under
	// pressure.
	if s.nwait.Load() == 0 && j.tryTake() {
		if s.tryOcc(event) {
			s.noteAdmit()
			if h := s.waitHist(event); h != nil {
				h.Observe(0) // immediate admission: zero wait
			}
			return nil
		}
		j.put()
	}
	return s.acquireSlow(ctx, event, todo, j, r)
}

// acquireSlow is the contended path: admission under the mutex, or a queued
// wait served in the weighted-fair Algorithm 1 order.
func (s *Scheduler) acquireSlow(ctx context.Context, event Event, todo int, j *Job, r *Request) error {
	s.mu.Lock()
	if err := ctx.Err(); err != nil {
		s.mu.Unlock()
		return err
	}
	if r != nil && r.withdrawn.Load() {
		s.mu.Unlock()
		return ErrWithdrawn
	}
	h := s.waitHist(event)
	if j.tryTake() {
		if s.tryOcc(event) {
			s.noteAdmit()
			s.mu.Unlock()
			if h != nil {
				h.Observe(0)
			}
			return nil
		}
		j.put()
	}
	s.waited.Add(1)
	w := s.waiters.Get().(*waiter)
	w.ctx, w.event, w.todo, w.seq, w.job, w.req = ctx, event, todo, s.seq, j, r
	if r != nil {
		r.w = w
	}
	s.seq++
	w.index = len(s.queue)
	s.queue = append(s.queue, w)
	s.noteQueued(w, 1)
	// Re-check now that the waiter entry is published: a Release between our
	// failed tryOcc and the publication saw nwait == 0 and skipped the wake;
	// this wake admits the best waiter (not necessarily us) if a slot freed.
	s.wakeLocked()
	s.mu.Unlock()
	// The wait is always timed: beyond the optional histogram, the
	// accumulated wait-nanos are the load feed an elastic fleet controller
	// scales by (LoadStats.WaitNanos).
	t0 := time.Now()
	var err error
	select {
	case <-w.ready: // admitted by a releasing (or re-checking) goroutine, or withdrawn
	case <-ctx.Done():
		s.mu.Lock()
		queued := w.index >= 0
		if queued {
			s.removeWaiter(w.index)
			s.cancelled.Add(1)
			err = ctx.Err()
		}
		s.mu.Unlock()
		if !queued {
			// Admitted (the slot is ours and the acquire succeeds) or
			// withdrawn concurrently with the cancellation.
			<-w.ready
		}
	}
	if w.withdrawn {
		err = ErrWithdrawn
	}
	w.ctx, w.job, w.withdrawn = nil, nil, false
	s.waiters.Put(w)
	s.waitNanos.Add(time.Since(t0).Nanoseconds())
	if err == nil && h != nil {
		h.ObserveSince(t0)
	}
	return err
}

// removeWaiter deletes the wait-list entry at position i (swap with the
// last entry). Callers must hold s.mu.
func (s *Scheduler) removeWaiter(i int) {
	q := s.queue
	last := len(q) - 1
	w := q[i]
	w.index = -1
	if w.req != nil {
		w.req.w, w.req = nil, nil
	}
	if i != last {
		q[i] = q[last]
		q[i].index = i
	}
	q[last] = nil
	s.queue = q[:last]
	s.noteQueued(w, -1)
}

// noteQueued publishes the wait-list counts after w joined (delta 1) or left
// (delta -1) it: nwait for every request, and for a sampling request nwaitS
// and its job's queuedS and leastTodoS. Callers must hold s.mu.
func (s *Scheduler) noteQueued(w *waiter, delta int64) {
	s.nwait.Store(int64(len(s.queue)))
	if w.event != SpawnS {
		return
	}
	s.nwaitS.Add(delta)
	j := w.job
	if j == nil {
		return
	}
	least := int64(math.MaxInt64)
	for _, q := range s.queue {
		if q.job == j && q.event == SpawnS {
			least = min(least, int64(q.todo))
		}
	}
	j.leastTodoS.Store(least)
	j.queuedS.Add(delta)
}

// Release returns an unattributed slot to the pool (Algorithm 1's EXIT
// event) and wakes the highest-priority waiting request that now fits.
// With no waiters it is a single CAS.
func (s *Scheduler) Release() { s.ReleaseJob(nil) }

// ReleaseJob returns a slot acquired under a job handle: the pool slot and
// the job's in-use count are both released before waiters are re-examined,
// so a freed share is immediately visible to the fairness order.
func (s *Scheduler) ReleaseJob(j *Job) {
	for {
		o := s.occ.Load()
		if o <= 0 {
			panic("sched: Release without matching Acquire")
		}
		if s.occ.CompareAndSwap(o, o-1) {
			break
		}
	}
	j.put()
	if s.occupancy != nil {
		s.occupancy.Set(float64(s.occ.Load()))
	}
	if s.nwait.Load() == 0 {
		return
	}
	s.mu.Lock()
	s.wakeLocked()
	s.mu.Unlock()
}

// Renew is ReleaseJob(j) immediately followed by a successful
// AcquireJob(event, todo, j) in which the slot never changes hands: a
// finishing process of job j keeps its slot for the next process of the same
// kind. It reports true unless giving the slot up would admit somebody with
// a better claim — a queued request that fits the freed slot and is strictly
// ahead of the renewal in the admission order (see ahead). It also declines
// when occupancy exceeds the kind's current bound (RemoveCapacity shrank the
// pool under the holder) and always on a disabled scheduler, which never
// holds a process back. On false nothing changed: the caller still owns the
// slot and releases it. Renew writes nothing, not even a count: the caller
// reports the renewals it was granted with CountRenewals.
func (s *Scheduler) Renew(event Event, todo int, j *Job) bool {
	if s.disabled {
		return false
	}
	occ := s.occ.Load()
	if occ > s.limit(event) {
		return false
	}
	if s.nwait.Load() != 0 && !s.ownBehind(event, todo, j) {
		s.mu.Lock()
		yield := false
		for _, w := range s.queue {
			// Is w ahead, and would it be admitted into the freed slot? (j's
			// own cap has room once the holder has exited.) The context is
			// asked last: in Go 1.24 its Err takes a lock.
			if ahead(w, event, todo, j) && (w.job == j || !w.job.atCap()) &&
				occ-1 < s.limit(w.event) && w.ctx.Err() == nil {
				yield = true
				break
			}
		}
		s.mu.Unlock()
		if yield {
			return false
		}
	}
	return true
}

// CountRenewals counts n renewals of event that Renew granted: n admissions
// and, when instrumented, n zero-wait observations.
func (s *Scheduler) CountRenewals(event Event, n int64) {
	s.admitted.Add(n)
	if h := s.waitHist(event); h != nil {
		h.ObserveN(0, uint64(n))
	}
}

// ownBehind reports from the wait-list counts that nothing queued is ahead
// of a sampling renewal (event, todo) by a holder of job j: no sampling
// request is queued, or only j's, none with a smaller todo. The loads are not
// one snapshot; like a waiter the nwait load missed, a change they race is
// seen by the holder's next Renew or Release.
func (s *Scheduler) ownBehind(event Event, todo int, j *Job) bool {
	if event != SpawnS {
		return false
	}
	n := s.nwaitS.Load()
	return n == 0 || (j != nil && j.queuedS.Load() == n && j.leastTodoS.Load() >= int64(todo))
}

// ahead reports whether queued request w is strictly ahead of a renewal
// (event, todo) by a holder of job j: the order of better, with j's load
// counted without the slot being renewed — that slot is what is on offer —
// and without the FIFO step, which only ever ordered queued requests among
// themselves. A tie goes to the holder: handing an equal claim the slot
// buys nothing and costs a park, a wake and a goroutine.
func ahead(w *waiter, event Event, todo int, j *Job) bool {
	if w.event != event {
		return w.event == SpawnS
	}
	if w.job != j {
		wi, ws := w.job.load()
		hi, hs := j.load()
		if j != nil {
			hi--
		}
		if wi*hs != hi*ws {
			return wi*hs < hi*ws
		}
	}
	return w.todo < todo
}

// wakeLocked admits as many queued waiters as now fit, best-first under the
// weighted-fair Algorithm 1 order: per round it scans the wait list for the
// highest-priority waiter — not cancelled — whose job is under its cap and
// whose kind has occupancy headroom, then takes the job slot and the pool
// slot for real. A candidate that loses a take race (job releases run
// outside s.mu) is set aside for the rest of this wake. Callers must hold
// s.mu.
func (s *Scheduler) wakeLocked() {
	var skip map[*waiter]struct{}
	for len(s.queue) > 0 {
		best := -1
		for i, w := range s.queue {
			if _, sk := skip[w]; sk {
				continue
			}
			if w.job.atCap() || w.ctx.Err() != nil {
				// A request cancelled while queued takes no slot from a live
				// one; its own goroutine removes the entry.
				continue
			}
			if s.occ.Load() >= s.limit(w.event) {
				// A tuning process blocked on the 75% limit (or a full
				// sampling bound); a waiter of the other kind may still fit.
				continue
			}
			if best < 0 || better(w, s.queue[best]) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		w := s.queue[best]
		took := w.job.tryTake()
		if took && !s.tryOcc(w.event) {
			w.job.put()
			took = false
		}
		if !took {
			// Raced with a fast-path acquire elsewhere; leave this waiter
			// queued and look at the rest.
			if skip == nil {
				skip = make(map[*waiter]struct{})
			}
			skip[w] = struct{}{}
			continue
		}
		s.removeWaiter(best)
		s.noteAdmit()
		w.ready <- struct{}{}
	}
}

// InUse reports the number of currently admitted processes.
func (s *Scheduler) InUse() int { return int(s.occ.Load()) }

// Capacity reports the current sampling-process occupancy bound: the local
// pool size plus any remote capacity added via AddCapacity. A disabled
// scheduler reports an effectively unbounded capacity.
func (s *Scheduler) Capacity() int {
	if s.disabled {
		return math.MaxInt32
	}
	return int(s.limS.Load())
}

// Stats returns a copy of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Admitted:  s.admitted.Load(),
		Waited:    s.waited.Load(),
		Cancelled: s.cancelled.Load(),
		PeakInUse: int(s.peak.Load()),
	}
}
