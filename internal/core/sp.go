package core

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/dist"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/strategy"
)

// prunePanic is the sentinel used by Check to unwind a pruned sampling
// process; it never escapes the runtime.
type prunePanic struct{}

// abandonPanic is the sentinel used to unwind a sampling process whose
// attempt the runtime abandoned at a deadline (FaultPolicy); like prunePanic
// it never escapes the runtime.
type abandonPanic struct{}

// noSyncPanic unwinds a detached sampling process (one run by a remote
// worker) that reached a Sync barrier: the rendezvous needs the whole region
// co-resident, so the sample reports ExecResult.Unsupported and re-runs on
// the in-process path. Local processes always have a barrier, so this can
// only fire in detached runs.
type noSyncPanic struct{}

// spSlot tracks ownership of one Algorithm 1 pool slot across the samples
// and attempts of one worker. Sync hands the slot back around the barrier,
// and the timeout monitor releases it when abandoning a wedged attempt — the
// CAS makes the hand-off race-free, so a slot is never released twice.
type spSlot struct{ held atomic.Bool }

// slotPool recycles pool-slot trackers across workers. A slot is only
// returned to the pool by a worker whose sampling process was not abandoned:
// an abandoned body goroutine may still hold a reference and race a stray
// (harmless on its own slot, fatal on a recycled one) release CAS.
var slotPool = sync.Pool{New: func() any { return &spSlot{} }}

func newHeldSlot() *spSlot {
	s := slotPool.Get().(*spSlot)
	s.held.Store(true)
	return s
}

// release returns the slot to the pool if this call transitions it out of
// held state; otherwise it is a no-op.
func (s *spSlot) release(t *Tuner) {
	if s.held.CompareAndSwap(true, false) {
		t.release()
	}
}

// reacquire blocks for a fresh slot and marks it held.
func (s *spSlot) reacquire(t *Tuner) {
	t.acquire(sched.SpawnS, 0)
	s.held.Store(true)
}

// pkv is one drawn parameter in an SP's compact snapshot: the interned
// symbol ID and the value. A snapshot is one allocation instead of a map.
type pkv struct {
	id uint32
	v  float64
}

// SP is a sampling process (mode S⟨pid⟩): one worker executing the body of
// a sampling region with one drawn parameter configuration. An SP and
// everything reachable only through it is confined to its goroutine.
//
// The per-process hot state (drawn parameters, committed results, loaded
// exposed values) is kept in slices indexed by the region's interned symbol
// IDs, and a name resolves to its ID through the process's own memo (sym),
// so a steady-state Float/Load/Commit/Get is a memo hit plus a slice access:
// no hash, no lock, no allocation. SPs are pooled per region shape; a recycled
// one is reset before reuse, except for the memo: a shape's IDs never change.
type SP struct {
	rs      *regionState
	memo    [1 << memoBits]memoEntry
	group   int
	fold    int
	attempt int
	sampler strategy.Sampler
	shared  *svgShared
	slot    *spSlot
	ctx     context.Context

	// abandoned flips when the runtime gives up on this attempt (deadline or
	// region budget). The body goroutine checks it at the runtime's
	// re-entry points and unwinds via abandonPanic.
	abandoned atomic.Bool
	// atBarrier marks the process as blocked in a Sync rendezvous. The
	// per-sample deadline is suspended while it is set: a barrier waiter is
	// never the process wedging the region (the pending count releases the
	// barrier once only waiters remain), so abandoning it would punish the
	// victims of a hung sibling instead of the sibling.
	atBarrier atomic.Bool
	// resumed signals the deadline monitor that the process left a barrier
	// and its compute-phase deadline should restart.
	resumed chan struct{}
	// done carries the body goroutine's outcome to the monitor on the
	// deadline path; it is reused across the attempts and pool reuses of
	// this SP (an abandoned SP is never recycled, so a stale send can never
	// reach a fresh attempt).
	done chan error

	// Drawn parameters, indexed by symbol ID; porder records which IDs are
	// set, for cheap reset and ordered snapshots.
	pvals  []float64
	pset   []bool
	porder []uint32

	// Committed sample results, indexed by symbol ID, flushed in one batch
	// when the process finishes.
	cvals  []any
	cset   []bool
	corder []uint32

	// Loaded exposed values, revalidated against the exposed store's
	// version counter so repeated Loads never touch the store's locks.
	lvals  []any
	lset   []bool
	lorder []uint32
	lver   uint64

	// flush scratch, reused across pool generations.
	kvbuf []store.KV

	pruned bool
	score  float64
	scored bool
}

func (sp *SP) isAbandoned() bool { return sp.abandoned.Load() }

// Index returns this sampling process's sample index within the region
// (the SVG index under cross-validation).
func (sp *SP) Index() int { return sp.group }

// Attempt returns the 1-based attempt number of this sampling process under
// the region's retry policy (always 1 without retries).
func (sp *SP) Attempt() int { return sp.attempt }

// Context returns this attempt's context. It carries the per-sample deadline
// and the region budget (FaultPolicy); long-running sampler bodies should
// select on Context().Done() so an abandoned attempt unwinds promptly
// instead of leaking its goroutine.
func (sp *SP) Context() context.Context {
	if sp.ctx == nil {
		return context.Background()
	}
	return sp.ctx
}

// Fold returns the cross-validation fold of this process and the total
// fold count k. Without cross-validation it returns (0, 1).
func (sp *SP) Fold() (fold, k int) { return sp.fold, sp.rs.k }

// memoBits sizes an SP's name memo: 32 slots for the handful of names a body uses.
const memoBits = 5

// memoEntry is one slot of an SP's direct-mapped name -> symbol id memo.
type memoEntry struct {
	name string
	id   uint32
	ok   bool // a filled slot, as opposed to the zero entry ("" -> 0)
}

// noSym is sym's answer for a name the table has not seen: past every slice,
// so the callers' bounds checks send it down their slow paths, which intern it.
const noSym = 1<<31 - 1

// sym resolves a variable name to its id in the shape's symbol table, hashing
// only a name the process has not resolved before and never growing the table:
// reading a name nobody wrote leaves no trace. The slot comes from the name's
// data pointer, an index hint that is never dereferenced (DESIGN §8): equality
// with the remembered name decides a hit, so a wrong slot only costs a miss,
// which asks the table. The memo outlives recycling: a shape's ids never change.
func (sp *SP) sym(name string) uint32 {
	p := uint64(uintptr(unsafe.Pointer(unsafe.StringData(name))))
	e := &sp.memo[p*0x9E3779B97F4A7C15>>(64-memoBits)] // Fibonacci hashing
	if e.ok && e.name == name {
		return e.id
	}
	if id, ok := sp.rs.syms.Lookup(name); ok {
		*e = memoEntry{name, id, true}
		return id
	}
	return noSym
}

// Float draws the tunable variable name from d (rule [SAMPLE]). Drawing
// the same name again returns the already-drawn value, and under
// cross-validation all processes of one SVG share the same draw.
func (sp *SP) Float(name string, d dist.Dist) float64 {
	if sp.isAbandoned() {
		panic(abandonPanic{})
	}
	id := sp.sym(name)
	if int(id) < len(sp.pset) && sp.pset[id] {
		return sp.pvals[id]
	}
	return sp.drawFloat(name, id, d)
}

// drawFloat is the first-draw path: intern a new name, draw, and record.
func (sp *SP) drawFloat(name string, id uint32, d dist.Dist) float64 {
	if id == noSym {
		id = sp.rs.syms.Intern(name)
	}
	var v float64
	if sp.shared != nil {
		v = sp.shared.draw(name, sp.sampler, d)
	} else {
		v = sp.sampler.Draw(name, d)
	}
	sp.setParam(id, v)
	return v
}

// setParam records v as the drawn value of the parameter with symbol id, next
// in draw order: drawn here, or drawn by a detached process and shipped home.
func (sp *SP) setParam(id uint32, v float64) {
	if n := sp.rs.syms.Len(); len(sp.pset) < n {
		sp.pvals = append(sp.pvals, make([]float64, n-len(sp.pvals))...)
		sp.pset = append(sp.pset, make([]bool, n-len(sp.pset))...)
	}
	sp.pvals[id] = v
	sp.pset[id] = true
	sp.porder = append(sp.porder, id)
}

// Int draws an integer-valued tunable variable.
func (sp *SP) Int(name string, d dist.Dist) int {
	return int(math.Round(sp.Float(name, d)))
}

// Pick draws one of the given options as a tunable variable.
func Pick[T any](sp *SP, name string, options []T) T {
	i := sp.Int(name, dist.Choice(len(options)))
	return options[i]
}

// Params returns a copy of every parameter this process has drawn so far.
func (sp *SP) Params() map[string]float64 {
	out := make(map[string]float64, len(sp.porder))
	for _, id := range sp.porder {
		out[sp.rs.syms.Name(id)] = sp.pvals[id]
	}
	return out
}

// appendParams appends the drawn parameters to dst in draw order — the
// region accumulates every sample's snapshot in one arena instead of one
// slice allocation per sample.
func (sp *SP) appendParams(dst []pkv) []pkv {
	for _, id := range sp.porder {
		dst = append(dst, pkv{id: id, v: sp.pvals[id]})
	}
	return dst
}

// Commit submits the sample result variable x (rule [AGGR-S]). The value
// becomes visible in the tuning process's aggregation store when this
// sampling process finishes. Committing x again overwrites.
//
// Values of type float64 and []float64 participate in the built-in
// aggregation strategies; any type may be committed for custom aggregation.
func (sp *SP) Commit(x string, v any) {
	id := sp.sym(x)
	if int(id) < len(sp.cset) && sp.cset[id] {
		sp.cvals[id] = v
		return
	}
	sp.commitSlow(x, id, v)
}

// commitSlow is the first-commit path for a variable.
func (sp *SP) commitSlow(x string, id uint32, v any) {
	if id == noSym {
		id = sp.rs.syms.Intern(x)
	}
	if n := sp.rs.syms.Len(); len(sp.cset) < n {
		sp.cvals = append(sp.cvals, make([]any, n-len(sp.cvals))...)
		sp.cset = append(sp.cset, make([]bool, n-len(sp.cset))...)
	}
	sp.cvals[id] = v
	sp.cset[id] = true
	sp.corder = append(sp.corder, id)
}

// Get reads back a value this process has committed; Score callbacks use it.
func (sp *SP) Get(x string) (any, bool) {
	if id := sp.sym(x); int(id) < len(sp.cset) && sp.cset[id] {
		return sp.cvals[id], true
	}
	return nil, false
}

// MustGet is Get for values known to be committed; it panics otherwise.
func (sp *SP) MustGet(x string) any {
	v, ok := sp.Get(x)
	if !ok {
		panic(fmt.Sprintf("core: sample variable %q was not committed", x))
	}
	return v
}

// Check prunes this sampling process if ok is false (rule [CHECK]): the
// run terminates immediately, commits nothing, and is excluded from
// aggregation. Pruning long before the aggregation point is the white-box
// advantage black-box tuning cannot express.
func (sp *SP) Check(ok bool) {
	if !ok {
		panic(prunePanic{})
	}
}

// CheckFn is Check with a deferred condition, mirroring the cbChk callback.
func (sp *SP) CheckFn(fn func() bool) { sp.Check(fn()) }

// Work accounts units of computation performed by this sampling process;
// sampling-process work is parallelizable across the pool. A detached
// process accumulates locally — quantized per call exactly like the tuner
// does — and its total ships home with the sample result.
func (sp *SP) Work(units float64) {
	if units < 0 {
		panic("core: negative work")
	}
	if det := sp.rs.det; det != nil {
		det.workMilli.Add(int64(units * 1024))
		return
	}
	sp.rs.t.addWork(units, true)
}

// Load reads an exposed global-scope variable from inside a sampling
// process; the exposed store is shared with the tuning process. Loaded
// values are cached in the process against the store's version counter, so
// a kernel loop re-reading its inputs costs one atomic load, a name-memo hit
// (sym) and a slice index per read: no store lock, no hashing of the name.
func (sp *SP) Load(name string) any {
	e := sp.rs.exposed
	if ver := e.Version(); ver != sp.lver {
		sp.resetLoadCache()
		sp.lver = ver
	}
	id := sp.sym(name)
	if int(id) < len(sp.lset) && sp.lset[id] {
		return sp.lvals[id]
	}
	return sp.loadSlow(name, id)
}

// loadSlow is the cache-miss path: read the store and remember the value.
func (sp *SP) loadSlow(name string, id uint32) any {
	v := sp.rs.exposed.MustGet(globalScope, name)
	if id == noSym {
		id = sp.rs.syms.Intern(name)
	}
	if n := sp.rs.syms.Len(); len(sp.lset) < n {
		sp.lvals = append(sp.lvals, make([]any, n-len(sp.lvals))...)
		sp.lset = append(sp.lset, make([]bool, n-len(sp.lset))...)
	}
	sp.lvals[id] = v
	sp.lset[id] = true
	sp.lorder = append(sp.lorder, id)
	return v
}

func (sp *SP) resetLoadCache() {
	for _, id := range sp.lorder {
		sp.lvals[id] = nil
		sp.lset[id] = false
	}
	sp.lorder = sp.lorder[:0]
}

// reset clears every per-attempt trace of a recycled SP so the pool hands
// out indistinguishable-from-new processes.
func (sp *SP) reset() {
	for _, id := range sp.porder {
		sp.pset[id] = false
	}
	sp.porder = sp.porder[:0]
	for _, id := range sp.corder {
		sp.cvals[id] = nil
		sp.cset[id] = false
	}
	sp.corder = sp.corder[:0]
	sp.resetLoadCache()
	sp.lver = 0
	sp.kvbuf = sp.kvbuf[:0]
	sp.rs = nil
	sp.sampler = nil
	sp.shared = nil
	sp.slot = nil
	sp.ctx = nil
	sp.pruned, sp.score, sp.scored = false, 0, false
	if sp.resumed != nil {
		select { // drop a coalesced resume token left by the previous use
		case <-sp.resumed:
		default:
		}
	}
}

// Sync blocks until every live sampling process of the region has reached
// the barrier, runs cb once on behalf of the tuning process (rule
// [SYNC-T]), and then releases all waiters (rule [SYNC-S]). Every sampling
// process of the region must call Sync the same number of times; processes
// that finish or are pruned stop counting toward the barrier.
//
// While blocked the process gives its scheduler slot back (Algorithm 1's
// wait() adjusts poolSize the same way), so a region larger than the pool
// cannot deadlock on its own barrier.
//
// An abandoned process (FaultPolicy deadline) unwinds here instead of
// arriving: its timeout outcome was already committed, so it no longer
// counts toward the rendezvous.
func (sp *SP) Sync(cb func(v *SyncView)) {
	if sp.isAbandoned() {
		panic(abandonPanic{})
	}
	if sp.rs.barrier == nil {
		// Detached process: the barrier lives with the dispatching tuner, so
		// this sample cannot run here at all. Unwind and report Unsupported.
		panic(noSyncPanic{})
	}
	t := sp.rs.t
	sp.atBarrier.Store(true)
	sp.slot.release(t)
	sp.rs.barrier.arrive(sp, cb)
	if sp.isAbandoned() {
		panic(abandonPanic{})
	}
	sp.slot.reacquire(t)
	if sp.resumed != nil {
		select { // coalescing signal: the monitor restarts the deadline
		case sp.resumed <- struct{}{}:
		default:
		}
	}
	// Publish the resume token before clearing atBarrier: a monitor that
	// observes atBarrier == false at its deadline is then guaranteed to find
	// the token and restart the deadline instead of abandoning a process
	// that spent the elapsed time blocked at the rendezvous.
	sp.atBarrier.Store(false)
	if sp.isAbandoned() {
		sp.slot.release(t)
		panic(abandonPanic{})
	}
}

// svgShared holds the sampler and the parameter draws shared by the k
// processes of one sampling-and-validation group (Sec. IV-A): same sample
// values, different folds.
type svgShared struct {
	sampler strategy.Sampler
	mu      sync.Mutex
	vals    map[string]float64
}

func (s *svgShared) draw(name string, sampler strategy.Sampler, d dist.Dist) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.vals[name]; ok {
		return v
	}
	v := sampler.Draw(name, d)
	s.vals[name] = v
	return v
}

// worker runs sampling processes on one pool slot: the (group, fold) pair it
// was started with, then — as long as Algorithm 1 renews the admission — the
// pairs it claims itself, so a saturated round costs a goroutine and a queued
// request per slot, not per sample. Which worker runs a sample cannot show in
// its result: a sampler is a pure function of (seed, g, n, fb). It runs as a
// plain goroutine method so starting one allocates no closure.
func (rs *regionState) worker(g, f int) {
	defer rs.wg.Done()
	slot := newHeldSlot()
	for ok := true; ok; g, f, ok = rs.claim(true) {
		if rs.runSP(g, f, slot) {
			// The abandoned body goroutine may still reference the slot, which
			// is therefore not safe to hand to another sample: the worker ends
			// here and the launch loop replaces it.
			slot.release(rs.t)
			return
		}
	}
	slot.release(rs.t)
	slotPool.Put(slot)
}

// runSP runs one sampling process to its one commit: draw, compute, commit,
// score — with the region's fault policy applied around it. An attempt is
// dispatched (remoteAttempt) on an executor round and runs in-process
// (runAttempt) otherwise; either way it ends as an SP. Retryable failures
// re-attempt with deterministic backoff; a deadline or budget expiry ends the
// sample with the distinguished timeout outcome. An executor that declines the
// sample poisons the region — the rest of this round and every future round of
// the name run in-process — and the sample starts over in-process at attempt 1.
// Exactly one spDone or spDoneTimeout is reported per (group, fold) slot
// regardless of attempts. It reports whether an in-process attempt was
// abandoned: its body goroutine may still be running, on the worker's slot.
func (rs *regionState) runSP(g, f int, slot *spSlot) (abandoned bool) {
	t := rs.t
	fp := t.opts.Fault
	ctx := rs.ctx
	remote := false
	if rs.execH != nil {
		// Not once the executor has declined a sample of the region.
		_, skip := t.execSkip.Load(rs.spec.Name)
		remote = !skip
	}
	var sp *SP
	var err error
	timedOut := false
	for attempt := 1; ; attempt++ {
		if remote {
			var declined bool
			if sp, err, timedOut, declined = rs.remoteAttempt(g, attempt); declined {
				t.execSkip.Store(rs.spec.Name, struct{}{})
				remote, attempt = false, 0
				continue
			}
		} else {
			// Every attempt draws from a fresh sampler, here as on a worker: a
			// retried sample redraws what its first attempt drew.
			var sampler strategy.Sampler
			if rs.shared != nil {
				sampler = rs.shared[g].sampler
			} else {
				sampler = rs.spec.Strategy.Sampler(rs.seed, g, rs.n, rs.fb)
			}
			sp, err, timedOut = rs.runAttempt(ctx, g, f, attempt, slot, sampler, rs.body)
			// The finished body was the sampler's sole user, unless it is one
			// fold of a cross-validation group, which share theirs; an abandoned
			// body may still draw.
			if rec, ok := sampler.(strategy.Recycler); ok && rs.shared == nil && !timedOut {
				rec.Recycle()
			}
		}
		if timedOut || err == nil || !IsRetryable(err) || attempt >= fp.attempts() || ctx.Err() != nil {
			break
		}
		t.ctr.retried.Add(1)
		if rs.ro != nil {
			rs.ro.retried.Inc()
		}
		t.opts.Trace.add(Event{Kind: EvSampleRetry, Region: rs.spec.Name,
			Sample: g, Round: attempt, Err: traceErr(err)})
		rs.recycleSP(sp) // the failed attempt's process is dead; reuse it
		timer := time.NewTimer(fp.backoff(rs.seed, g, attempt+1))
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			err = fmt.Errorf("%w during retry backoff: %v", ErrSampleTimeout, ctx.Err())
			timedOut = true
		}
		if timedOut {
			break
		}
	}
	if timedOut {
		// An abandoned process contributes nothing but its outcome: its body
		// goroutine may still be running, so its SP is neither read nor recycled.
		rs.spDoneTimeout(g, err)
		return !remote
	}
	rs.spDone(sp, err)
	return false
}

// invokeBody runs the sampling body (and the Score callback) with the
// runtime's panic containment: Check unwinds as a prune, any other panic is
// contained and reported as the attempt's error, and abandonPanic is
// re-thrown for the goroutine wrapper to swallow.
func (rs *regionState) invokeBody(sp *SP, body func(sp *SP) error) (bodyErr error) {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case prunePanic:
				sp.pruned = true
				rs.countPruned()
			case abandonPanic:
				panic(r)
			case noSyncPanic:
				rs.det.noSync = true
			default:
				bodyErr = fmt.Errorf("core: sampling process (sample %d, fold %d) panicked: %v\n%s",
					sp.group, sp.fold, r, debug.Stack())
				rs.countPanic()
			}
		}
	}()
	bodyErr = body(sp)
	if bodyErr == nil && rs.spec.Score != nil && !sp.isAbandoned() {
		sp.score = rs.spec.Score(sp)
		sp.scored = true
	}
	return bodyErr
}

// runAttempt executes one attempt of a sampling process under its deadline.
// Without a deadline, budget, or caller cancellation the body runs inline on
// the worker goroutine — the pre-fault-layer semantics with no extra
// goroutine or channel per attempt. Otherwise the body runs in its own
// goroutine; the calling worker acts as the monitor and, on deadline expiry,
// abandons the attempt — releasing the pool slot and reporting a timeout —
// while the body goroutine unwinds on its own once it observes the cancelled
// context (abandonPanic at the runtime re-entry points, or the body
// returning).
func (rs *regionState) runAttempt(ctx context.Context, g, f, attempt int, slot *spSlot,
	sampler strategy.Sampler, body func(sp *SP) error) (*SP, error, bool) {
	t := rs.t
	t.ctr.samples.Add(1)

	fp := t.opts.Fault
	sctx := ctx
	var cancel context.CancelFunc
	if fp.SampleTimeout > 0 {
		// The deadline is enforced by a monitor-owned timer rather than
		// context.WithTimeout so it can be suspended while the body waits at
		// a Sync barrier; the cancelable context still propagates abandonment
		// to the body via SP.Context.
		sctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}

	sp := rs.newSP(g, f, attempt, slot, sampler, sctx)
	if fp.SampleTimeout > 0 && sp.resumed == nil {
		sp.resumed = make(chan struct{}, 1)
	}

	if rs.ro != nil {
		t0 := time.Now()
		defer rs.ro.sampleDur.ObserveSince(t0)
	}

	if sctx.Done() == nil {
		// No deadline, budget, or caller cancellation anywhere: run the body
		// inline — exactly the pre-fault-layer semantics.
		return sp, rs.invokeBody(sp, body), false
	}

	done := sp.done
	if done == nil {
		done = make(chan error, 1)
		sp.done = done
	}
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(abandonPanic); ok {
					// The monitor already reported this attempt as timed
					// out; nobody is listening for its outcome.
					return
				}
				panic(r)
			}
		}()
		done <- rs.invokeBody(sp, body)
	}()

	abandon := func(cause error) (*SP, error, bool) {
		// Abandon the attempt: commit the timeout outcome and release the
		// wedged slot so Algorithm 1 admission keeps flowing. The body
		// goroutine is not killed — it unwinds when it next touches the
		// runtime or observes SP.Context; a body that ignores both keeps its
		// goroutine until it returns on its own.
		sp.abandoned.Store(true)
		if cancel != nil {
			cancel()
		}
		slot.release(t)
		return sp, fmt.Errorf("%w: %v", ErrSampleTimeout, cause), true
	}

	var timer *time.Timer
	var timerC <-chan time.Time
	if fp.SampleTimeout > 0 {
		timer = time.NewTimer(fp.SampleTimeout)
		defer timer.Stop()
		timerC = timer.C
	}
	for {
		select {
		case err := <-done:
			return sp, err, false
		case <-ctx.Done():
			// Region budget exhausted or the caller cancelled the run: hard
			// abandonment, barrier or not.
			return abandon(ctx.Err())
		case <-timerC:
			if sp.atBarrier.Load() {
				// The deadline covers compute phases only. A process blocked
				// at the Sync barrier is never the one wedging the region (the
				// pending count releases the barrier once only waiters
				// remain), so suspend the deadline until it resumes.
				timerC = nil
				continue
			}
			if sp.resumed != nil {
				select {
				case <-sp.resumed:
					// The process left a barrier concurrently with the
					// deadline firing: the elapsed time was spent waiting,
					// not computing, so restart the deadline.
					timer.Reset(fp.SampleTimeout)
					timerC = timer.C
					continue
				default:
				}
			}
			return abandon(fmt.Errorf("sample deadline %v exceeded", fp.SampleTimeout))
		case <-sp.resumed:
			// The body left a barrier: restart the compute-phase deadline.
			if timer != nil {
				if timerC != nil && !timer.Stop() {
					select { // drain a concurrently fired timer
					case <-timer.C:
					default:
					}
				}
				timer.Reset(fp.SampleTimeout)
				timerC = timer.C
			}
		}
	}
}

// noteOutcome records the per-outcome counters and trace events of one
// finished (group, fold) slot.
func (rs *regionState) noteOutcome(g int, err error, timedOut, pruned bool, score float64) {
	switch {
	case timedOut:
		rs.t.ctr.timeouts.Add(1)
		if rs.ro != nil {
			rs.ro.timeout.Inc()
		}
		rs.t.opts.Trace.add(Event{Kind: EvSampleTimeout, Region: rs.spec.Name,
			Sample: g, Err: traceErr(err)})
	case err != nil:
		if rs.ro != nil {
			rs.ro.failed.Inc()
		}
		rs.t.opts.Trace.add(Event{Kind: EvSampleFailed, Region: rs.spec.Name,
			Sample: g, Err: traceErr(err)})
	case pruned:
		if rs.ro != nil {
			rs.ro.pruned.Inc()
		}
		rs.t.opts.Trace.add(Event{Kind: EvSamplePruned, Region: rs.spec.Name, Sample: g})
	default:
		if rs.ro != nil {
			rs.ro.done.Inc()
		}
		rs.t.opts.Trace.add(Event{Kind: EvSampleDone, Region: rs.spec.Name,
			Sample: g, Score: score})
	}
}

// spDoneTimeout finishes a (group, fold) slot that timed out — an abandoned
// in-process attempt, a dispatched one whose deadline the executor honoured, a
// retry backoff cut short by cancellation: there is no SP to read, only the
// outcome.
func (rs *regionState) spDoneTimeout(g int, err error) {
	rs.noteOutcome(g, err, true, false, 0)
	rs.mu.Lock()
	if rs.errs[g] == nil {
		rs.errs[g] = err
	}
	rs.done++
	rs.mu.Unlock()
	rs.barrier.maybeRelease()
}

// spDone commits the finished sampling process's results into the region
// (the parent side of rule [AGGR-S]) and advances the barrier bookkeeping,
// wherever the process ran: it is the only way into the aggregators, the
// store, the parameter arena and the score sums.
//
// A successful process folds each commit that has a built-in aggregator into
// it under rs.mu, in completion order, and stores its commits in one batch,
// except, with incremental aggregation (Sec. IV-B), the folded ones. The paper
// hands values to its aggregators through a ring because its sampling
// processes are forked; a goroutine reaches them here, so no value is ever in
// flight.
func (rs *regionState) spDone(sp *SP, err error) {
	g := sp.group
	rs.noteOutcome(g, err, false, sp.pruned, sp.score)

	ok := err == nil && !sp.pruned
	if ok && sp.fold == 0 {
		for _, id := range sp.corder {
			sp.kvbuf = append(sp.kvbuf, store.KV{X: rs.syms.Name(id), V: sp.cvals[id]})
		}
	}

	rs.mu.Lock()
	switch {
	case err != nil:
		if rs.errs[g] == nil {
			rs.errs[g] = err
		}
	case sp.pruned:
		rs.pruned[g] = true
	default:
		if !rs.haveParams[g] {
			rs.haveParams[g] = true
			off := len(rs.arena)
			rs.arena = sp.appendParams(rs.arena)
			rs.spans[g] = span{off, len(rs.arena) - off}
		}
		if sp.fold == 0 {
			kept := sp.kvbuf[:0]
			for _, kv := range sp.kvbuf {
				if a, inc := rs.incs[kv.X]; inc {
					a.Add(kv.V)
					if rs.t.opts.Incremental {
						continue
					}
				}
				kept = append(kept, kv)
			}
			sp.kvbuf = kept
		}
		if sp.scored {
			rs.scoreSum[g] += sp.score
			rs.scoreCnt[g]++
		}
	}
	rs.done++
	rs.mu.Unlock()
	if ok && sp.fold == 0 && len(sp.kvbuf) > 0 {
		rs.store.PutBatch(g, sp.kvbuf)
	}
	rs.barrier.maybeRelease()
	rs.recycleSP(sp)
}

// SyncView is what a barrier callback sees: the sampling processes blocked
// at the barrier, with their drawn parameters and the values they have
// committed so far.
type SyncView struct{ sps []*SP }

// Count reports how many sampling processes reached the barrier.
func (v *SyncView) Count() int { return len(v.sps) }

// Sample returns the sample index of the i-th arrived process.
func (v *SyncView) Sample(i int) int { return v.sps[i].group }

// Params returns the parameters drawn so far by the i-th arrived process.
func (v *SyncView) Params(i int) map[string]float64 { return v.sps[i].Params() }

// Value reads a value the i-th arrived process has committed so far.
func (v *SyncView) Value(i int, x string) (any, bool) { return v.sps[i].Get(x) }

// barrier implements the @sync rendezvous for one region. Release happens
// when every not-yet-finished sampling process of the region has arrived.
type barrier struct {
	rs *regionState

	mu      sync.Mutex
	waiters []chan struct{}
	arrived []*SP
	cb      func(v *SyncView)
	nwait   atomic.Int32 // len(waiters), written under mu: lets maybeRelease skip both locks
}

func newBarrier(rs *regionState) *barrier { return &barrier{rs: rs} }

func (b *barrier) arrive(sp *SP, cb func(v *SyncView)) {
	ch := make(chan struct{})
	b.mu.Lock()
	b.waiters = append(b.waiters, ch)
	b.arrived = append(b.arrived, sp)
	b.cb = cb
	b.nwait.Store(int32(len(b.waiters)))
	b.mu.Unlock()
	b.maybeRelease()
	<-ch
}

// maybeRelease releases the barrier when the arrived set equals the set of
// live (launched or still to launch, not finished) sampling processes. With
// nobody waiting it returns at once and loses no release: a process arriving
// after the load runs its own, reading rs.done after the caller's increment.
func (b *barrier) maybeRelease() {
	if b.nwait.Load() == 0 {
		return
	}
	b.rs.mu.Lock()
	pending := b.rs.total - b.rs.done
	b.rs.mu.Unlock()

	b.mu.Lock()
	// Drop abandoned sampling processes from the rendezvous: their timeout
	// outcome is already committed, so they no longer count toward pending.
	// Closing their channel lets the body goroutine unwind via the
	// abandonment check in Sync.
	if len(b.arrived) > 0 {
		kw, ka := b.waiters[:0], b.arrived[:0]
		for i, sp := range b.arrived {
			if sp.isAbandoned() {
				close(b.waiters[i])
				continue
			}
			kw = append(kw, b.waiters[i])
			ka = append(ka, sp)
		}
		b.waiters, b.arrived = kw, ka
		b.nwait.Store(int32(len(kw)))
	}
	if len(b.waiters) == 0 || len(b.waiters) != pending {
		b.mu.Unlock()
		return
	}
	cb := b.cb
	sps := b.arrived
	waiters := b.waiters
	b.waiters, b.arrived, b.cb = nil, nil, nil
	b.nwait.Store(0)
	b.mu.Unlock()

	if cb != nil {
		cb(&SyncView{sps: sps})
	}
	for _, ch := range waiters {
		close(ch)
	}
}
