package core

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
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
// and the round's watcher releases it when abandoning a wedged attempt — the
// CAS makes the hand-off race-free, so a slot is never released twice.
//
// The slot also carries the worker's attempt word, seq<<2 | state, the SP of
// the attempt it names and that attempt's per-sample deadline: the worker and
// the watcher each settle an attempt with one CAS on the word, so exactly one
// of them commits its outcome.
// It also holds the worker's chunk of pairs, [next, end), and its finished
// samples awaiting the commit section. Its worker writes the word twice per
// attempt: 128 bytes is a size class of whole cache lines (TestSpSlotFillsLines).
type spSlot struct {
	held atomic.Bool
	word atomic.Uint64
	// deadline is the monoNow reading at which the running attempt expires;
	// 0 while its deadline is not running: no SampleTimeout, a process
	// waiting at a Sync barrier, or a body that has returned.
	deadline  atomic.Int64
	sp        *SP // written before the word names it running; read after a CAS on it
	next, end int
	renewed   int64 // per-pair renewals since the last commit
	recs      []doneRec
	params    []pkv
	vals      []commitVal
}

// doneRec is a finished sample waiting in its worker's slot for the commit
// section; its parameter snapshot and committed values are the next np and nv
// entries of the slot's params and vals.
type doneRec struct {
	g                     int
	err                   error
	score, dur            float64
	np, nv                int32
	pruned, scored, local bool
}

// commitVal is a committed value and its variable's symbol ID. In a slot it
// waits for the commit section to fold it into aggregator id, store it in the
// round's commit arena, or both; in the arena it is stored.
type commitVal struct {
	id          uint32
	fold, store bool
	v           any
}

// Attempt states in an spSlot's word.
const (
	attemptIdle      = 0 // between attempts, or finished by its worker
	attemptRunning   = 1 // published by the worker before its body runs
	attemptAbandoned = 2 // taken by the watcher, which commits the timeout
)

// slotPool recycles the pool-slot trackers of bare rounds, where nothing
// abandons an attempt. Slots of watched rounds are never returned, as the
// watcher may still be reading them; a fresh slot takes their buffers.
var slotPool = sync.Pool{New: func() any { return &spSlot{} }}

// release returns the slot to the pool if this call transitions it out of
// held state; otherwise it is a no-op.
func (s *spSlot) release(t *Tuner) {
	if s.held.CompareAndSwap(true, false) {
		t.release()
	}
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
// one is reset before reuse, except for the memo (a shape's IDs never change)
// and the load cache (keyed on the store and its version; see Load).
type SP struct {
	rs      *regionState
	memo    [memoSets]memoSet
	group   int
	fold    int
	attempt int
	sampler strategy.Sampler
	shared  *svgShared
	slot    *spSlot
	ctx     context.Context
	cancel  context.CancelFunc // ends ctx when the watcher abandons the attempt; nil without a SampleTimeout

	// abandoned flips when the runtime gives up on this attempt (deadline,
	// region budget or cancellation). The body checks it at the runtime's
	// re-entry points and unwinds via abandonPanic.
	abandoned atomic.Bool

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

	// Loaded exposed values of store lstore at version lver. They outlive
	// the attempt: a pooled SP keeps them for as long as its region reads the
	// same store at the same version, so repeated Loads, in one sample or
	// across a worker's samples, never touch the store's locks.
	lvals  []any
	lset   []bool
	lorder []uint32
	lstore *store.Exposed
	lver   uint64

	pruned bool
	score  float64
	scored bool
	dur    float64 // the attempt's seconds, with a registry (runAttempt)
}

func (sp *SP) isAbandoned() bool { return sp.abandoned.Load() }

// Index returns this sampling process's sample index within the region
// (the SVG index under cross-validation).
func (sp *SP) Index() int { return sp.group }

// Attempt returns the 1-based attempt number of this sampling process under
// the region's retry policy (always 1 without retries).
func (sp *SP) Attempt() int { return sp.attempt }

// Context returns this attempt's context. It ends when the runtime abandons
// the attempt: at its per-sample deadline, or when the region budget or the
// run's context ends (FaultPolicy). Long-running sampler bodies should select
// on Context().Done(), so that an abandoned attempt unwinds promptly instead
// of keeping its worker's goroutine after the round has moved on.
func (sp *SP) Context() context.Context {
	if sp.ctx == nil {
		return context.Background()
	}
	return sp.ctx
}

// Fold returns the cross-validation fold of this process and the total
// fold count k. Without cross-validation it returns (0, 1).
func (sp *SP) Fold() (fold, k int) { return sp.fold, sp.rs.k }

// The name memo is set-associative: memoSets sets of memoWays ways, a set
// chosen from the name's data pointer. Any memoWays names a body uses stay
// resident together once each has been resolved, wherever the linker or the
// allocator placed them.
const (
	memoSetBits = 3
	memoSets    = 1 << memoSetBits
	memoWays    = 4
)

// memoSet is one set of the memo. Misses fill its ways in order and then
// replace the oldest: a set never evicts one of the last memoWays names it
// took in.
type memoSet struct {
	ways [memoWays]memoEntry
	next uint32 // the way the next miss fills
}

// memoEntry is one way of a memo set.
type memoEntry struct {
	name string
	id   uint32
	ok   bool // a filled way, as opposed to the zero entry ("" -> 0)
}

// noSym is the memo's answer for a name the table has not seen: past every
// slice, so the callers' bounds checks send it down their slow paths, which
// intern it. memoMiss is sym's answer for a name its set does not hold; the
// callers resolve it with symMiss.
const (
	noSym    = 1<<31 - 1
	memoMiss = noSym - 1
)

// sym resolves a variable name to its id in the shape's symbol table when its
// memo set holds it: four compares, no write, no hashing, and small enough to
// inline into every primitive. The set comes from the name's data pointer,
// never dereferenced (DESIGN §8), and a way holds a name if it remembers the
// same string: same data pointer, same length. The way keeps its string
// alive, and strings are immutable, so that string has the name's bytes; an
// equal name at another address only costs a miss.
func (sp *SP) sym(name string) uint32 {
	s := sp.setFor(name)
	for i := range s.ways {
		if e := &s.ways[i]; e.ok && len(e.name) == len(name) && unsafe.StringData(e.name) == unsafe.StringData(name) {
			return e.id
		}
	}
	return memoMiss
}

// setFor picks the memo set of a name from its data pointer.
func (sp *SP) setFor(name string) *memoSet {
	p := uint64(uintptr(unsafe.Pointer(unsafe.StringData(name))))
	return &sp.memo[p*0x9E3779B97F4A7C15>>(64-memoSetBits)] // Fibonacci hashing
}

// symMiss resolves a name sym missed through the table, which it only reads:
// a name nobody wrote leaves no trace (noSym). A name the table knows takes
// its set's next way.
func (sp *SP) symMiss(name string) uint32 {
	id, ok := sp.rs.syms.Lookup(name)
	if !ok {
		return noSym
	}
	s := sp.setFor(name)
	s.ways[s.next] = memoEntry{name, id, true}
	s.next = (s.next + 1) % memoWays
	return id
}

// Float draws the tunable variable name from d (rule [SAMPLE]). Drawing
// the same name again returns the already-drawn value, and under
// cross-validation all processes of one SVG share the same draw.
func (sp *SP) Float(name string, d dist.Dist) float64 {
	if sp.isAbandoned() {
		panic(abandonPanic{})
	}
	id := sp.sym(name)
	if id == memoMiss {
		id = sp.symMiss(name)
	}
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
	if id == memoMiss {
		id = sp.symMiss(x)
	}
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
	id := sp.sym(x)
	if id == memoMiss {
		id = sp.symMiss(x)
	}
	if int(id) < len(sp.cset) && sp.cset[id] {
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
// values are cached in the SP against the store and its version counter, and
// the cache survives reset: a kernel loop re-reading its inputs costs one
// atomic load, a name-memo hit (sym) and a slice index per read — no store
// lock, no hashing of the name — and a worker's SP reaches the store once per
// store version, not once per sample. The store is part of the key because
// a detached round reads a shipped snapshot whose version can equal another
// store's; the SP holds it, so its address cannot be reused meanwhile.
func (sp *SP) Load(name string) any {
	e := sp.rs.exposed
	if ver := e.Version(); ver != sp.lver || e != sp.lstore {
		sp.resetLoadCache()
		sp.lstore, sp.lver = e, ver
	}
	id := sp.sym(name)
	if id == memoMiss {
		id = sp.symMiss(name)
	}
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

// reset clears every per-attempt trace of a recycled SP, so that what the
// pool hands out behaves as a new process would. It keeps the name memo and
// the load cache: both are keyed on what they were read from (the shape's
// symbol table; the exposed store and its version), so a stale entry is
// never served.
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
	sp.rs = nil
	sp.sampler = nil
	sp.shared = nil
	sp.slot = nil
	sp.ctx, sp.cancel = nil, nil
	sp.pruned, sp.score, sp.scored, sp.dur = false, 0, false, 0
}

// Sync blocks until every live sampling process of the region has reached
// the barrier, runs cb once on behalf of the tuning process (rule
// [SYNC-T]), and then releases all waiters (rule [SYNC-S]). Every sampling
// process of the region must call Sync the same number of times; processes
// that finish or are pruned stop counting toward the barrier.
//
// While blocked the process gives its scheduler slot back (Algorithm 1's
// wait() adjusts poolSize the same way), so a region larger than the pool
// cannot deadlock on its own barrier. First it commits its worker's finished
// samples and hands the unstarted rest of the worker's chunk to a fresh worker
// (handBack): nobody waits at the barrier for a pair parked behind it.
//
// An abandoned process (FaultPolicy) unwinds here instead of arriving: its
// timeout outcome was already committed, so it no longer counts toward the
// rendezvous. The per-sample deadline pauses while the process waits and
// starts afresh once it has its slot back: a waiter is never the process
// wedging the region (the pending count releases the barrier once only
// waiters remain), so abandoning it would punish the victims of a hung
// sibling instead of the sibling.
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
	sp.rs.stopDeadline(sp.slot)
	sp.rs.handBack(sp.slot)
	sp.slot.release(t)
	sp.rs.barrier.arrive(sp, cb)
	if sp.isAbandoned() {
		panic(abandonPanic{})
	}
	t.acquire(sched.SpawnS, 0)
	sp.slot.held.Store(true)
	sp.rs.startDeadline(sp.slot)
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

// attemptEnd is how an attempt ended, for the worker that started it.
type attemptEnd uint8

const (
	// attemptFinished: the attempt's outcome is committed (or, for a failed
	// attempt inside runSP, about to be retried); the worker goes on.
	attemptFinished attemptEnd = iota
	// attemptLost: the round's watcher abandoned the attempt, at its deadline
	// or when the round's context ended: it committed the timeout, released
	// the slot and counted the worker out of the round. The worker touches
	// nothing of the round again.
	attemptLost
)

// worker runs sampling processes on one pool slot: the chunk of pairs [i, end)
// it was started with, then — as long as Algorithm 1 renews the admission,
// pair by pair (spDone) — the chunks it claims as each chunk commits, so a
// saturated round costs a goroutine and a queued request per slot, not per
// sample. Unless admitted, it takes a slot first: it runs a chunk handed back
// at Sync. A sampler is a pure function of (seed, g, n, fb), so which worker
// runs a sample cannot show. A goroutine method: starting one allocates no closure.
func (rs *regionState) worker(i, end int, admitted bool) {
	slot := slotPool.Get().(*spSlot)
	if !admitted {
		rs.t.acquire(sched.SpawnS, int(rs.todo.Load()))
	}
	slot.held.Store(true)
	slot.next, slot.end = i, end
	if rs.watched {
		rs.mu.Lock()
		rs.slots = append(rs.slots, slot)
		rs.mu.Unlock()
	}
	for slot.next < slot.end {
		i := slot.next
		slot.next++
		if rs.runSP(i/rs.k, i%rs.k, slot) == attemptLost {
			return
		}
	}
	slot.release(rs.t)
	if rs.watched { // the watcher may still read the slot, never its buffers
		slot = &spSlot{recs: slot.recs[:0], params: slot.params[:0], vals: slot.vals[:0]}
	}
	slotPool.Put(slot)
	rs.wg.Done()
}

// watchedSlots returns the slots of the round's workers so far.
func (rs *regionState) watchedSlots() []*spSlot {
	rs.mu.Lock()
	slots := slices.Clone(rs.slots)
	rs.mu.Unlock()
	return slots
}

// watch runs once when a watched round's context ends (caller cancellation or
// the region budget) and abandons every attempt still running. An attempt
// published after this scan sees the ended context itself (runInline).
func (rs *regionState) watch() {
	cause := fmt.Errorf("%w: %v", ErrSampleTimeout, rs.ctx.Err())
	for _, s := range rs.watchedSlots() {
		if w := s.word.Load(); w&3 == attemptRunning {
			rs.abandon(s, w, cause)
		}
	}
}

// expire runs when the round's deadline timer fires: it abandons every
// running attempt whose deadline has passed and sets the timer for the
// earliest deadline still running. A deadline started during the scan is
// covered by its own arm call (startDeadline).
func (rs *regionState) expire() {
	rs.timer.mu.Lock()
	rs.timer.at = 0
	rs.timer.mu.Unlock()
	cause := fmt.Errorf("%w: sample deadline %v exceeded", ErrSampleTimeout, rs.timeout)
	now := monoNow()
	var next int64
	for _, s := range rs.watchedSlots() {
		w, d := s.word.Load(), s.deadline.Load()
		switch {
		case w&3 != attemptRunning || d == 0:
		case d <= now:
			rs.abandon(s, w, cause)
		case next == 0 || d < next:
			next = d
		}
	}
	if next != 0 {
		rs.arm(next)
	}
}

// abandon gives up on the attempt that word w names in slot s, unless its
// worker settled it first, so that a body that never yields cannot hold up
// the round. The body is not killed: it unwinds when it next touches the
// runtime or observes SP.Context, and its worker then finds the attempt lost.
func (rs *regionState) abandon(s *spSlot, w uint64, cause error) {
	if !s.word.CompareAndSwap(w, w&^3|attemptAbandoned) {
		return // idle, or finished by its worker since the load
	}
	sp := s.sp
	sp.abandoned.Store(true)
	if sp.cancel != nil {
		sp.cancel()
	}
	rs.spDoneTimeout(sp.group, cause, true)
	s.release(rs.t)
	rs.wg.Done()
}

// startDeadline starts the per-sample deadline of the attempt running in s
// and makes sure the round's timer fires by then. The word must already name
// the attempt running, so that a timer scan either sees the deadline or
// comes after this arm call. A round without a SampleTimeout has none.
func (rs *regionState) startDeadline(s *spSlot) {
	if rs.timeout == 0 {
		return
	}
	d := monoNow() + int64(rs.timeout)
	s.deadline.Store(d)
	rs.arm(d)
}

// stopDeadline stops the per-sample deadline in s: the body returned, or is
// about to wait at a Sync barrier.
func (rs *regionState) stopDeadline(s *spSlot) {
	if rs.timeout > 0 {
		s.deadline.Store(0)
	}
}

// deadlineTimer is a round's one timer for its per-sample deadlines, set for
// the earliest running one (arm, expire) and stopped with the round.
type deadlineTimer struct {
	mu    sync.Mutex
	t     *time.Timer
	at    int64 // the monoNow reading it is set for; 0 when not set
	ended bool  // the round is over: never set it again
}

// arm sets the round's deadline timer to fire at d, unless it is already set
// to fire by then or the round has ended.
func (rs *regionState) arm(d int64) {
	tm := &rs.timer
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if tm.ended || (tm.at != 0 && tm.at <= d) {
		return
	}
	tm.at = d
	if wait := time.Duration(d - monoNow()); tm.t == nil {
		tm.t = time.AfterFunc(wait, rs.expire)
	} else {
		tm.t.Reset(wait)
	}
}

// stopTimer stops the round's deadline timer for good.
func (rs *regionState) stopTimer() {
	tm := &rs.timer
	tm.mu.Lock()
	defer tm.mu.Unlock()
	tm.ended = true
	if tm.t != nil {
		tm.t.Stop()
	}
}

// monoBase anchors monoNow, the monotonic clock of per-sample deadlines.
var monoBase = time.Now()

// monoNow returns the nanoseconds since monoBase on the monotonic clock.
func monoNow() int64 { return int64(time.Since(monoBase)) }

// runSP runs one sampling process to its one commit: draw, compute, commit,
// score — with the region's fault policy applied around it. An attempt is
// dispatched (remoteAttempt) on an executor round and runs in-process
// (runAttempt) otherwise; either way it ends as an SP. Retryable failures
// re-attempt with deterministic backoff; a deadline or budget expiry ends the
// sample with the distinguished timeout outcome. An executor that declines the
// sample, unless Transiently, poisons the region — the rest of this round and
// every future round of the name run in-process — and the sample starts over
// in-process at attempt 1. Exactly one spDone or spDoneTimeout is reported per
// (group, fold) slot regardless of attempts; a retried in-process attempt is
// counted here. It reports how the last attempt ended for the worker
// (attemptEnd): only an in-process attempt can be lost to the watcher, so a
// dispatched attempt, or a backoff cut short, reports attemptFinished.
// A finished sample also readies the worker's next pair in slot (spDone, or
// claim), or leaves the slot's chunk empty when there is none.
func (rs *regionState) runSP(g, f int, slot *spSlot) (end attemptEnd) {
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
				if !IsRetryable(err) {
					t.execSkip.Store(rs.spec.Name, struct{}{})
				}
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
			if sp, err, end = rs.runAttempt(g, f, attempt, slot, sampler); end == attemptLost {
				return end
			}
			// The finished body was the sampler's sole user, unless it is one
			// fold of a cross-validation group, which share theirs.
			if rec, ok := sampler.(strategy.Recycler); ok && rs.shared == nil {
				rec.Recycle()
			}
		}
		if timedOut || err == nil || !IsRetryable(err) || attempt >= fp.attempts() || ctx.Err() != nil {
			break
		}
		t.ctr.retried.Add(1)
		if !remote {
			t.ctr.samples.Add(1)
		}
		if rs.ro != nil {
			rs.ro.retried.Inc()
			if !remote {
				rs.ro.sampleDur.Observe(sp.dur)
			}
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
		// A dispatched attempt the executor timed out, or a backoff cut short:
		// there is no SP to read, only the outcome.
		rs.spDoneTimeout(g, err, false)
		i, c := rs.claim(true)
		slot.next, slot.end = i, i+c
	} else {
		rs.spDone(sp, err, slot)
	}
	return attemptFinished
}

// invokeBody runs the sampling body (and the Score callback) with the
// runtime's panic containment: Check unwinds as a prune, any other panic is
// contained and reported as the attempt's error, and abandonPanic — the
// runtime gave up on the attempt — just ends it: its outcome is already
// committed, and nobody reads the error.
func (rs *regionState) invokeBody(sp *SP, body func(sp *SP) error) (bodyErr error) {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case prunePanic:
				sp.pruned = true
				rs.countPruned()
			case abandonPanic:
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

// runAttempt executes one in-process attempt of a sampling process on its
// worker (runInline). In a round with a SampleTimeout the attempt gets its own
// context, which the watcher cancels when it abandons the attempt at its
// deadline, so a body waiting on SP.Context unwinds. Where it settles counts
// the attempt and observes its duration (sp.dur), except a lost one's.
func (rs *regionState) runAttempt(g, f, attempt int, slot *spSlot, sampler strategy.Sampler) (*SP, error, attemptEnd) {
	sctx, cancel := rs.ctx, context.CancelFunc(nil)
	if rs.timeout > 0 {
		sctx, cancel = context.WithCancel(rs.ctx)
		defer cancel()
	}
	sp := rs.newSP(g, f, attempt, slot, sampler, sctx)
	sp.cancel = cancel
	if rs.ro == nil {
		return rs.runInline(sp, slot)
	}
	t0 := time.Now()
	sp, err, end := rs.runInline(sp, slot)
	if end == attemptLost {
		rs.ro.sampleDur.ObserveSince(t0)
	} else {
		sp.dur = time.Since(t0).Seconds()
	}
	return sp, err, end
}

// runInline runs one attempt on its worker. The worker publishes the attempt
// as running in its slot's word and only then looks at the round's context
// and starts the deadline, so the watcher either sees the attempt or the
// attempt sees the ended context: none starts unseen. Whoever moves the word
// off running first owns the attempt's outcome, and an attempt the round's
// context ended under is a timeout whoever moves it. A worker that loses commits
// nothing, retries nothing and recycles neither the SP nor the sampler: the
// watcher committed the timeout and may still be reading the SP.
func (rs *regionState) runInline(sp *SP, slot *spSlot) (*SP, error, attemptEnd) {
	seq := slot.word.Load()>>2 + 1
	running, idle := seq<<2|attemptRunning, seq<<2|attemptIdle
	slot.sp = sp
	slot.word.Store(running)
	var err error
	if rs.ctx.Err() == nil {
		rs.startDeadline(slot)
		err = rs.invokeBody(sp, rs.body)
		rs.stopDeadline(slot)
	}
	if cerr := rs.ctx.Err(); cerr != nil {
		// The round's context ended before the body started or while it ran:
		// the attempt is abandoned, by the watcher or, if it has not got
		// there yet, by its worker, whatever the body returned.
		rs.abandon(slot, running, fmt.Errorf("%w: %v", ErrSampleTimeout, cerr))
		return nil, nil, attemptLost
	}
	if !slot.word.CompareAndSwap(running, idle) {
		return nil, nil, attemptLost
	}
	return sp, err, attemptFinished
}

// noteOutcome records the trace event of one finished (group, fold) slot, and
// a timeout's counters; spDone counts the other outcomes in the round.
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
		rs.t.opts.Trace.add(Event{Kind: EvSampleFailed, Region: rs.spec.Name,
			Sample: g, Err: traceErr(err)})
	case pruned:
		rs.t.opts.Trace.add(Event{Kind: EvSamplePruned, Region: rs.spec.Name, Sample: g})
	default:
		rs.t.opts.Trace.add(Event{Kind: EvSampleDone, Region: rs.spec.Name,
			Sample: g, Score: score})
	}
}

// spDoneTimeout finishes a (group, fold) slot that timed out — an abandoned
// in-process attempt, a dispatched one whose deadline the executor honoured, a
// retry backoff cut short by cancellation: there is no SP to read, only the
// outcome. An abandoned attempt is counted here, and its body may still run.
func (rs *regionState) spDoneTimeout(g int, err error, abandoned bool) {
	rs.noteOutcome(g, err, true, false, 0)
	rs.mu.Lock()
	if gr := &rs.groups[g]; gr.err == nil {
		gr.err = err
	}
	if abandoned {
		rs.attempts++
		rs.lost = true
	}
	rs.done++
	rs.mu.Unlock()
	rs.barrier.maybeRelease()
}

// spDone finishes a sampling process wherever it ran and readies its worker's
// next pair. It records the process in its worker's slot as a doneRec, with
// its parameter snapshot and committed values: each to be folded if a built-in
// aggregator takes it, and stored unless incremental aggregation (Sec. IV-B)
// folds it instead. The SP goes back to the pool at once. While the chunk has
// pairs left, Algorithm 1 is asked for the next one outside rs.mu, with the
// round's current todo, so the launch loop's own request is never ahead;
// declined, the worker re-queues (a chunked round cannot end). After the
// chunk's last pair, one rs.mu section commits the chunk (commitLocked) and
// claims the next (claimLocked), renewing the slot: a finished chunk takes the
// round's lock once.
func (rs *regionState) spDone(sp *SP, err error, slot *spSlot) {
	g := sp.group
	if rs.t.opts.Trace != nil {
		rs.noteOutcome(g, err, false, sp.pruned, sp.score)
	}
	r := doneRec{g: g, err: err, score: sp.score, dur: sp.dur,
		pruned: sp.pruned, scored: sp.scored, local: sp.slot != nil} // a dispatched attempt counted itself
	if err == nil && !sp.pruned {
		np := len(slot.params)
		slot.params = sp.appendParams(slot.params)
		r.np = int32(len(slot.params) - np)
		if sp.fold == 0 { // CV folds share one group: fold 0's commits stand for it
			for _, id := range sp.corder {
				fold := int(id) < len(rs.incs) && rs.incs[id] != nil
				slot.vals = append(slot.vals, commitVal{id, fold, !fold || !rs.t.opts.Incremental, sp.cvals[id]})
			}
			r.nv = int32(len(sp.corder))
		}
	}
	slot.recs = append(slot.recs, r)
	rs.recycleSP(sp)
	if slot.next < slot.end {
		todo := int(rs.todo.Load())
		if rs.t.sched.Renew(sched.SpawnS, todo, rs.t.job) {
			slot.renewed++
		} else {
			slot.release(rs.t)
			rs.t.acquire(sched.SpawnS, todo)
			slot.held.Store(true)
		}
		return
	}
	rs.mu.Lock()
	rs.commitLocked(slot)
	i, c := rs.claimLocked(true)
	rs.mu.Unlock()
	slot.next, slot.end = i, i+c
	rs.barrier.maybeRelease()
}

// commitLocked commits the samples waiting in s, under rs.mu, in index order:
// the only way into the aggregators, the arenas, the score sums and the counts.
func (rs *regionState) commitLocked(s *spSlot) {
	params, vals := s.params, s.vals
	for i := range s.recs {
		r := &s.recs[i]
		g := &rs.groups[r.g]
		if r.local {
			rs.attempts++
			if rs.ro != nil {
				rs.durs.Observe(r.dur)
			}
		}
		switch {
		case r.err != nil:
			rs.outcomes[2]++
			if g.err == nil {
				g.err = r.err
			}
		case r.pruned:
			rs.outcomes[1]++
			g.pruned = true
		default:
			rs.outcomes[0]++
			// Only CV folds share a group: no flag to miss on under the lock.
			if rs.k == 1 || !g.haveParams {
				g.haveParams = true
				off := rs.narena
				if a := append(rs.arena[:off], params[:r.np]...); cap(a) == cap(rs.arena) {
					rs.narena = len(a)
				} else {
					rs.arena, rs.narena = a, len(a)
				}
				g.params = span{int32(off), int32(rs.narena - off)}
			}
			off := len(rs.commits)
			for _, cv := range vals[:r.nv] {
				if cv.fold {
					rs.incs[cv.id].Add(cv.v)
				}
				if cv.store {
					rs.commits = append(rs.commits, cv)
				}
			}
			if n := len(rs.commits) - off; n > 0 { // CV folds past fold 0 store nothing
				g.commits = span{int32(off), int32(n)}
			}
			if r.scored {
				g.scoreSum += r.score
				g.scoreCnt++
			}
		}
		params, vals = params[r.np:], vals[r.nv:]
	}
	rs.done += len(s.recs)
	rs.renewed += s.renewed
	s.renewed = 0
	clear(s.recs)
	clear(s.vals)
	s.recs, s.params, s.vals = s.recs[:0], s.params[:0], s.vals[:0]
}

// handBack readies a worker whose body is about to wait at Sync: it commits
// the worker's finished samples and starts a fresh worker on the rest of its
// chunk, which the barrier would otherwise wait for. Later claims take one pair.
func (rs *regionState) handBack(s *spSlot) {
	rs.mu.Lock()
	rs.synced = true
	rs.commitLocked(s)
	rs.mu.Unlock()
	if s.next < s.end {
		rs.wg.Add(1)
		go rs.worker(s.next, s.end, false)
		s.end = s.next
	}
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
	// Closing their channel lets each abandoned body unwind via the
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
