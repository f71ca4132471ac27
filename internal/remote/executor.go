package remote

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/remote/transport"
	"repro/internal/store"
	"repro/internal/wire"
)

// helloTimeout bounds how long AddConn waits for a worker's hello frame.
const helloTimeout = 10 * time.Second

// ExecutorOptions configure a NetExecutor.
type ExecutorOptions struct {
	// Registry names the regions workers can run. A region whose name is
	// registered ships as a name; with Dynamic set, unregistered regions
	// ship under a per-round dynamic key instead. Required.
	Registry *Registry
	// Dynamic publishes unregistered region bodies in the shared Registry
	// under per-round keys. Only workers sharing this process's Registry
	// pointer (loopback workers) can resolve them; leave false for a fleet
	// of separate worker processes, where unregistered regions should fall
	// back to the local path.
	Dynamic bool
	// Values is the shared opaque-value table for same-process workers.
	Values *ValueTable
	// Obs, when non-nil, receives the per-worker dispatch metrics, the
	// fleet-level gauges (fleet size, affinity hits/misses) and a
	// FleetController's scale events.
	Obs *obs.Registry
}

// NetExecutor implements core.Executor over a fleet of worker connections.
//
// Placement: Execute hands the sample to a worker with a free slot — one that
// can start it without a full snapshot ship if there is one, any other
// otherwise — and only when no live worker has a free slot does it join one
// shared FIFO queue, whose head every worker connection's writer goroutine
// claims the moment its worker frees a slot. Snapshot affinity is a
// preference among free workers, never a reason to wait for a busy one, so a
// fast or idle worker naturally takes work a slow one has not claimed, with
// no per-worker queues to balance. A worker that dies (read error, protocol
// violation) fails its in-flight samples with a retryable error; core's
// FaultPolicy retry machinery re-executes them, the re-dispatch lands on a
// surviving worker, and the seeded sampler makes the replay draw exactly
// what the lost attempt drew. While no worker is live, BeginRound and Execute
// decline with a Transient ErrExecUnsupported: the tuner runs that round or
// sample in-process and dispatches again once a worker joins.
type NetExecutor struct {
	opts ExecutorOptions
	fm   *fleetMetrics

	mu        sync.Mutex
	cond      *sync.Cond
	workers   []*dworker
	queue     []*call
	nextCall  uint64
	nextRound uint64
	nextName  int // monotone suffix for deduping worker names across churn
	rr        int // fast-path rotation cursor, spreads light load
	closed    bool
	capLs     []func(delta int) // capacity watchers (scheduler bounds)

	snapMu sync.Mutex
	snaps  map[uint64]*jobSnap // job id -> snapshot version cache
}

// snapBase is one superseded snapshot version of a job, retained only as a
// delta-ship base: its store version, its place in the job's version order,
// its identity, and — no copy of the snapshot itself — the encoded mSnapDelta
// frame that takes a worker holding it to the job's current version.
// ratioFail records that the delta existed but exceeded the ratio bound, so
// ships from this base fall back to full with cause=ratio.
type snapBase struct {
	ver       uint64
	seq       uint64
	hash      uint64
	delta     []byte
	ratioFail bool
}

// maxSnapVersions bounds how many delta bases a jobSnap retains behind its
// current version. Each costs one delta frame of at most half a full
// encoding, so memory is bounded by construction; the oldest base is also the
// store's tombstone-compaction horizon (every deleted-key record must survive
// until no retained base predates it), which is why a long-running service
// job must not keep every version. Workers more than maxSnapVersions
// versions stale take a full re-ship, which they'd likely need anyway.
const maxSnapVersions = 8

// jobSnap caches one job's snapshot history: the current version's entries,
// advanced in O(changed entries) per store version, and the superseded
// versions' identities, oldest first, as delta-ship bases — a worker last
// sent any retained version receives a key-level delta instead of the full
// encoding. Per-job entries keep co-tenant jobs on a shared Runtime from
// thrashing each other's cache between interleaved rounds.
type jobSnap struct {
	store *store.Exposed
	ver   uint64 // store version cur reflects
	cur   *snapVersion
	bases []*snapBase
}

// horizon is the oldest store version any retained identity reflects.
func (s *jobSnap) horizon() uint64 {
	if len(s.bases) > 0 {
		return s.bases[0].ver
	}
	return s.ver
}

// NewExecutor returns an executor with no workers; add them with AddConn or
// Dial before handing it to core.Options.Executor.
func NewExecutor(opts ExecutorOptions) *NetExecutor {
	if opts.Registry == nil {
		panic("remote: ExecutorOptions.Registry is required")
	}
	ex := &NetExecutor{opts: opts, snaps: make(map[uint64]*jobSnap)}
	if opts.Obs != nil {
		ex.fm = newFleetMetrics(opts.Obs)
	}
	ex.cond = sync.NewCond(&ex.mu)
	return ex
}

// WatchCapacity registers f to observe every fleet capacity transition as a
// signed slot delta: worker joins are positive, retirement/drain/death
// negative. The current counted capacity is delivered synchronously before
// registration returns — under the same lock that serialises transitions, so
// a worker dying concurrently can never be observed twice or not at all.
// core.NewRuntime uses this (via the core.ElasticExecutor interface) to keep
// the Algorithm 1 sampling bound tracking an elastic fleet; several Runtimes
// sharing one executor each register their own watcher.
func (ex *NetExecutor) WatchCapacity(f func(delta int)) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ex.capLs = append(ex.capLs, f)
	n := 0
	for _, w := range ex.workers {
		if w.counted {
			n += w.slots
		}
	}
	if n != 0 {
		f(n)
	}
}

// countLocked admits w's slots into the fleet capacity. Callers hold ex.mu.
func (ex *NetExecutor) countLocked(w *dworker) {
	if w.counted {
		return
	}
	w.counted = true
	for _, f := range ex.capLs {
		f(w.slots)
	}
	if ex.fm != nil {
		ex.fm.fleetSize.Add(1)
	}
}

// uncountLocked retires w's slots from the fleet capacity exactly once,
// however many of explicit retirement, a worker-announced drain, and
// connection death race each other: the counted flag is the single source of
// truth, so a worker dying mid-drain is never double-subtracted. Callers
// hold ex.mu.
func (ex *NetExecutor) uncountLocked(w *dworker) {
	if !w.counted {
		return
	}
	w.counted = false
	for _, f := range ex.capLs {
		f(-w.slots)
	}
	if ex.fm != nil {
		ex.fm.fleetSize.Add(-1)
	}
}

// dworker is the dispatcher's view of one worker connection.
type dworker struct {
	ex    *NetExecutor
	c     net.Conn
	name  string
	slots int
	m     *workerMetrics
	wake  chan struct{} // buffered 1: ops queued, a slot freed, or the worker failed

	// The connection's send state, owned by writeLoop, the one goroutine that
	// writes to c: the rounds the worker holds, and the snapshot ships still
	// streaming, oldest first.
	wire       *muxWriter
	sentRounds map[uint64]bool
	bulk       []outMsg

	// sent mirrors, per job, the worker's FIFO snapshot cache: the versions
	// queued to it, oldest first, at most snapCacheCap of them. It answers
	// both "what must this ship carry" and "can this worker start the sample
	// without a full ship". Only writeLoop writes it, under ex.mu; writeLoop
	// reads it without, placement under ex.mu. A job's key outlives its
	// versions until EndJob — a worker whose every known version is gone is
	// stale, not cold.
	sent map[uint64][]sentVer

	// Guarded by ex.mu.
	ops      []sendOp // requests for writeLoop, in order
	inflight map[uint64]*call
	dead     bool
	draining bool
	counted  bool // slots currently in the fleet capacity
}

// sentVer names one snapshot version queued to a worker: its place in the
// job's version order and its identity.
type sentVer struct{ seq, hash uint64 }

// snapItem is one snapshot ship: a complete encoded mSnapDelta frame taking
// a base the worker holds, or the empty snapshot, to version ver of job.
type snapItem struct {
	job   uint64
	ver   sentVer
	frame []byte
}

// sendOp is one request to a connection's writer: a claimed call to ship as
// its task, or a control request the writer decides from its own send state.
type sendOp struct {
	c    *call
	kind byte         // without c: mEndRound, mEndJob, mSnapDelta (prime v), mSnapNack (re-ship v)
	id   uint64       // round id for mEndRound, else job id
	hash uint64       // mSnapNack: the identity the worker refused
	v    *snapVersion // mSnapDelta, mSnapNack: the version to ship; nil ships nothing
}

// call is one Execute invocation in flight.
type call struct {
	id      uint64
	r       *roundState
	group   int
	attempt int
	done    chan callOutcome // buffered 1

	enq  time.Time
	sent time.Time

	// Guarded by ex.mu.
	worker    *dworker
	delivered bool
	abandoned bool
}

type callOutcome struct {
	res core.ExecResult
	err error
}

// roundState is the executor's BeginRound handle.
type roundState struct {
	id      uint64
	job     uint64
	dyn     uint64
	payload []byte       // encoded round frame
	snap    *snapVersion // the store version the round samples under; nil if none
}

// Dial connects to a worker's TCP listen address and adds it to the fleet.
func (ex *NetExecutor) Dial(addr string) error {
	return ex.DialTransport(transport.TCP(), addr)
}

// DialTransport connects to a worker through t (TCP, unix socket, TLS, or an
// in-memory pipe) and adds it to the fleet; the worker's dispatch metrics
// carry t's name as the transport label.
func (ex *NetExecutor) DialTransport(t transport.Transport, addr string) error {
	c, err := t.Dial(addr)
	if err != nil {
		return err
	}
	if _, err := ex.addConn(c, t.Name()); err != nil {
		c.Close()
		return err
	}
	return nil
}

// AddConn adds one worker connection to the fleet. It performs the hello
// handshake synchronously (bounded by helloTimeout) and then starts the
// connection's writer and reader. Connections established out-of-band label
// their metrics transport="pipe" (the loopback case); use DialTransport to
// carry a real transport name.
func (ex *NetExecutor) AddConn(conn net.Conn) error {
	_, err := ex.addConn(conn, "pipe")
	return err
}

// addConn performs the hello handshake and registers the worker, returning
// the (possibly deduplicated) name it joined under — the handle RemoveConn
// retires it by.
func (ex *NetExecutor) addConn(conn net.Conn, transportName string) (string, error) {
	conn.SetDeadline(time.Now().Add(helloTimeout))
	payload, err := readFrame(conn, nil)
	defer wire.Free(payload)
	if err != nil {
		return "", fmt.Errorf("remote: worker hello: %w", err)
	}
	if len(payload) == 0 || payload[0] != mHello {
		return "", fmt.Errorf("%w: expected hello frame", errCodec)
	}
	hello, err := decodeHello(payload[1:])
	if err != nil {
		return "", err
	}
	if hello.Version != protocolVersion {
		return "", fmt.Errorf("remote: protocol version mismatch: worker %d, dispatcher %d", hello.Version, protocolVersion)
	}
	if hello.Slots < 1 {
		return "", fmt.Errorf("%w: worker advertises no slots", errCodec)
	}
	conn.SetDeadline(time.Time{})

	// The new worker is cold for every job, so each cached job snapshot is a
	// full ship, queued before it joins: placement prefers it from its first
	// claim, and its first samples park briefly on an in-flight ship instead
	// of paying a full snapshot round-trip at dispatch time.
	ex.snapMu.Lock()
	curs := make([]*snapVersion, 0, len(ex.snaps))
	for _, s := range ex.snaps {
		curs = append(curs, s.cur)
	}
	ex.snapMu.Unlock()
	warm := make([]snapItem, len(curs))
	for i, v := range curs {
		warm[i] = ex.fullItem(v)
	}

	ex.mu.Lock()
	if ex.closed {
		ex.mu.Unlock()
		return "", fmt.Errorf("remote: executor closed")
	}
	name := hello.Name
	for _, w := range ex.workers {
		if w.name == name {
			// Dedup with a monotone counter, not the slice length: dead
			// workers are reaped from the slice, and a reused suffix would
			// collide in the per-worker metric labels across churn.
			ex.nextName++
			name = fmt.Sprintf("%s-%d", hello.Name, ex.nextName)
		}
	}
	m := newWorkerMetrics(ex.opts.Obs, name, transportName)
	cc := &countingConn{Conn: conn, m: m}
	w := &dworker{
		ex:         ex,
		c:          cc,
		name:       name,
		slots:      hello.Slots,
		m:          m,
		wake:       make(chan struct{}, 1),
		wire:       newMuxWriter(cc),
		sentRounds: make(map[uint64]bool),
		sent:       make(map[uint64][]sentVer),
		inflight:   make(map[uint64]*call),
	}
	for _, it := range warm {
		w.m.countSnapshot(false)
		w.pushSnap(it) // w is not shared yet
	}
	ex.workers = append(ex.workers, w)
	ex.countLocked(w)
	ex.mu.Unlock()

	go w.writeLoop()
	go w.readLoop()
	return name, nil
}

// hasSent reports whether the version with identity hash was queued to w and
// is still in its cache. Callers are writeLoop or hold ex.mu.
func (w *dworker) hasSent(job, hash uint64) bool {
	for _, sv := range w.sent[job] {
		if sv.hash == hash {
			return true
		}
	}
	return false
}

// holds reports whether w can start a sample of rs without a full snapshot
// ship: it was queued the round's version, or a version the round's cached
// deltas reach. It is judged only from what was really queued to w, so a
// worker that has not yet taken its first ship of a job, or whose versions
// have all fallen behind the retained bases, is not a holder.
// Deltas target a job's current version only, so for a round that a sibling
// tuning process has since overtaken this can answer yes where the ship turns
// out full; placement treats it as a preference, and hits and misses are
// counted at ship time. Callers hold ex.mu.
func (w *dworker) holds(rs *roundState) bool {
	v := rs.snap
	for _, sv := range w.sent[rs.job] {
		if sv.hash == v.hash || (v.reach <= sv.seq && sv.seq < v.seq) {
			return true
		}
	}
	return false
}

// pushSnap queues one snapshot ship behind w's others and records its version
// as sent, dropping the oldest once the list outgrows the worker's cache. The
// caller has checked hasSent and is writeLoop holding ex.mu, or owns w alone.
func (w *dworker) pushSnap(it snapItem) {
	w.bulk = append(w.bulk, outMsg{data: it.frame})
	vs := w.sent[it.job]
	if vs == nil {
		vs = make([]sentVer, 0, snapCacheCap+1)
	}
	if vs = append(vs, it.ver); len(vs) > snapCacheCap {
		vs = slices.Delete(vs, 0, 1) // the worker's FIFO cache has dropped its oldest too
	}
	w.sent[it.job] = vs
}

// queueSnap is pushSnap from writeLoop.
func (w *dworker) queueSnap(it snapItem) {
	w.ex.mu.Lock()
	w.pushSnap(it)
	w.ex.mu.Unlock()
}

// snapShip decides how version v of job's snapshot reaches w: the cached
// delta from the newest retained base already queued to this worker when it
// passed the ratio bound; a full ship — v's from-empty frame — otherwise,
// counting why a base delta was unavailable. full reports the latter. Only
// writeLoop calls it.
func (ex *NetExecutor) snapShip(w *dworker, job uint64, v *snapVersion) (it snapItem, full bool) {
	_, known := w.sent[job]
	var delta []byte
	hadRatio := false
	ex.snapMu.Lock()
	s := ex.snaps[job]
	current := s != nil && s.cur == v
	if current && known {
		for _, b := range s.bases { // oldest first: the last usable one is the newest
			if !w.hasSent(job, b.hash) {
				continue
			}
			if b.ratioFail {
				hadRatio = true
			} else {
				delta = b.delta // refreshed under snapMu by every advance
			}
		}
	}
	ex.snapMu.Unlock()
	switch {
	case !current:
		// Not the version the delta cache targets (a stale round, or a dropped
		// cache): nothing to count — no delta ever existed for this ship.
	case !known:
		// Cold worker for this job: the first ship is necessarily full.
	case delta != nil:
		ex.countSnapBytes(true, len(delta))
		return snapItem{job: job, ver: sentVer{seq: v.seq, hash: v.hash}, frame: delta}, false
	case hadRatio:
		ex.countFallback(func(m *fleetMetrics) *obs.Counter { return m.fallbackRatio })
	default:
		// Every version this worker was sent has left the dispatcher cache.
		ex.countFallback(func(m *fleetMetrics) *obs.Counter { return m.fallbackBase })
	}
	return ex.fullItem(v), true
}

// fullItem is the full ship of version v: its from-empty frame, counted as
// mode="full".
func (ex *NetExecutor) fullItem(v *snapVersion) snapItem {
	frame := v.encoded()
	ex.countSnapBytes(false, len(frame))
	return snapItem{job: v.job, ver: sentVer{seq: v.seq, hash: v.hash}, frame: frame}
}

func (ex *NetExecutor) countSnapBytes(delta bool, n int) {
	if ex.fm == nil {
		return
	}
	if delta {
		ex.fm.snapBytesDelta.Add(int64(n))
	} else {
		ex.fm.snapBytesFull.Add(int64(n))
	}
}

func (ex *NetExecutor) countFallback(pick func(*fleetMetrics) *obs.Counter) {
	if ex.fm == nil {
		return
	}
	pick(ex.fm).Inc()
}

// liveLocked counts workers accepting new samples. Callers hold ex.mu.
func (ex *NetExecutor) liveLocked() int {
	n := 0
	for _, w := range ex.workers {
		if !w.dead && !w.draining {
			n++
		}
	}
	return n
}

// Capacity sums the slots of live workers; the tuner adds it to the
// Algorithm 1 sampling bound.
func (ex *NetExecutor) Capacity() int {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	n := 0
	for _, w := range ex.workers {
		if !w.dead && !w.draining {
			n += w.slots
		}
	}
	return n
}

// Workers lists the names of live (accepting) workers, in join order.
func (ex *NetExecutor) Workers() []string {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	names := make([]string, 0, len(ex.workers))
	for _, w := range ex.workers {
		if !w.dead && !w.draining {
			names = append(names, w.name)
		}
	}
	return names
}

// errWorkerRetired is the graceful-retirement cause handed to fail once a
// drained worker's last in-flight sample lands; like a worker's own goodbye,
// it does not count as a failure in the metrics.
var errWorkerRetired = errors.New("remote: worker retired by autoscaler")

// RemoveConn gracefully retires the named worker: it stops receiving new
// samples immediately (capacity watchers observe the drop, shrinking the
// Algorithm 1 bound), in-flight samples finish and deliver normally, and the
// connection closes once the last one lands — retirement never drops a
// round. It blocks until the drain completes or ctx expires; on expiry the
// connection is torn down anyway and the remaining in-flight samples bounce
// through the retry machinery onto surviving workers.
func (ex *NetExecutor) RemoveConn(ctx context.Context, name string) error {
	ex.mu.Lock()
	var w *dworker
	for _, cand := range ex.workers {
		if cand.name == name && !cand.dead && !cand.draining {
			w = cand
			break
		}
	}
	if w == nil {
		ex.mu.Unlock()
		return fmt.Errorf("remote: no live worker %q", name)
	}
	w.draining = true // its writer stops claiming
	ex.uncountLocked(w)
	stopWake := context.AfterFunc(ctx, func() {
		ex.mu.Lock()
		ex.cond.Broadcast()
		ex.mu.Unlock()
	})
	for len(w.inflight) > 0 && !w.dead && ctx.Err() == nil {
		ex.cond.Wait() // deliver and fail both broadcast
	}
	expired := ctx.Err()
	ex.mu.Unlock()
	stopWake()
	ex.fail(w, errWorkerRetired)
	return expired
}

// snapshotFor returns the snapshot version of a job's exposed store (nil for
// an empty store), cached per job by the store's version counter so unchanged
// @load state costs nothing per round — even while other jobs' rounds
// interleave on the same executor.
//
// A job's first snapshot encodes every value once; every later version is
// the previous one with only the entries the store reports changed spliced
// in. The per-base delta frames workers receive are built here, eagerly:
// BeginRound runs while the job's store is quiescent, so one ChangedSince
// scan covers every retained base and ship time never races a concurrent Set.
func (ex *NetExecutor) snapshotFor(job uint64, e *store.Exposed) (*snapVersion, error) {
	if e == nil || e.Len() == 0 {
		return nil, nil
	}
	ex.snapMu.Lock()
	defer ex.snapMu.Unlock()
	ver := e.Version()
	s := ex.snaps[job]
	if s == nil || s.store != e {
		// First snapshot for this job (or the job re-bound to a fresh store,
		// e.g. after resume): encode everything, fresh history.
		cur, err := newSnapVersion(job, e, ex.opts.Values)
		if err == nil {
			err = checkSnapshotSize(snapBound(cur.ents))
		}
		if err != nil {
			return nil, err
		}
		ex.snaps[job] = &jobSnap{store: e, ver: ver, cur: cur}
		return cur, nil
	}
	if s.ver != ver {
		if err := ex.advanceSnapLocked(job, e, s, ver); err != nil {
			return nil, err
		}
	}
	return s.cur, nil
}

// checkSnapshotSize enforces the wire cap when a version is built: an exposed
// store too large to ship fails the round over to the in-process path instead
// of letting the worker drop the connection on an oversized frame.
func checkSnapshotSize(n int) error {
	if n+snapshotOverhead > maxMessage {
		return fmt.Errorf("%w: %d-byte exposed-store snapshot", ErrMessageTooBig, n)
	}
	return nil
}

// advanceSnapLocked moves job's snapshot cache from s.cur to the store's
// current version in O(changed entries) of encoding and hashing: it encodes
// the values set since s.ver, splices them into the previous entry list,
// retains the previous version's identity as a delta base, and refreshes
// every retained base's cached delta to target the new version, evicting the
// bases past maxSnapVersions. Callers hold ex.snapMu.
func (ex *NetExecutor) advanceSnapLocked(job uint64, e *store.Exposed, s *jobSnap, ver uint64) error {
	prev := s.cur
	changed, deleted := e.ChangedSince(s.horizon())

	// Encode each value changed since the previous version exactly once;
	// these bytes are what the new version and every delta to it carry.
	var scratch wire.Writer
	var chPrev []snapEntry
	for _, c := range changed {
		if c.Ver <= s.ver {
			continue
		}
		en, err := encodeEntry(&scratch, c.Scope, c.Name, c.V, ex.opts.Values)
		if err != nil {
			return err
		}
		chPrev = append(chPrev, en)
	}
	var delPrev []delKey
	for _, d := range deleted {
		if d.Ver > s.ver {
			delPrev = append(delPrev, delKey{scope: d.Scope, name: d.Name})
		}
	}
	ents, sum := spliceEntries(prev.ents, prev.sum, chPrev, delPrev)
	hash := snapIdentity(sum)
	if hash == prev.hash {
		// Content-identical rewrite (same values re-Set, or scratch keys
		// Set and Deleted within one round): nothing to ship, but tombstones
		// behind the retention horizon still fall off — without this a
		// service job churning per-round scratch keys back to identical
		// content would grow the deleted-key map forever.
		s.ver = ver
		e.CompactDeletions(s.horizon())
		return nil
	}
	bound := snapBound(ents)
	if err := checkSnapshotSize(bound); err != nil {
		return err
	}

	// The previous version becomes a base, the oldest beyond maxSnapVersions
	// are evicted, and a store that cycled back to earlier contents re-enters
	// as the current version: its old identity stops being a base.
	s.bases = slices.DeleteFunc(append(s.bases, &snapBase{ver: s.ver, seq: prev.seq, hash: prev.hash}),
		func(b *snapBase) bool { return b.hash == hash })
	for len(s.bases) > maxSnapVersions {
		s.bases = s.bases[1:]
		if ex.fm != nil {
			ex.fm.snapEvictions.Inc()
		}
	}
	for _, b := range s.bases {
		d := snapDelta{Job: job, BaseHash: b.hash, NewHash: hash}
		for _, c := range changed {
			if c.Ver <= b.ver {
				continue
			}
			// Current value bytes come from the new version, never from a
			// re-encode (which would change handle ids).
			if i, ok := slices.BinarySearchFunc(ents, c, func(en snapEntry, c store.ChangedKV) int {
				return cmpEntryKey(en.scope, en.name, c.Scope, c.Name)
			}); ok {
				d.Changed = append(d.Changed, ents[i])
			}
		}
		for _, dk := range deleted {
			if dk.Ver > b.ver {
				d.Deleted = append(d.Deleted, delKey{scope: dk.Scope, name: dk.Name})
			}
		}
		// Keep the frame unless it exceeds the ratio bound (half the full
		// encoding, by its upper bound): then ships from this base fall back
		// to full with cause=ratio.
		b.delta = encodeSnapDelta(&d)
		if b.ratioFail = len(b.delta)*2 > bound; b.ratioFail {
			b.delta = nil
		}
	}
	cur := &snapVersion{job: job, ents: ents, sum: sum, hash: hash, seq: prev.seq + 1}
	cur.reach = cur.seq
	for i := len(s.bases) - 1; i >= 0 && !s.bases[i].ratioFail; i-- {
		cur.reach = s.bases[i].seq
	}
	s.cur, s.ver = cur, ver
	// Tombstones at or below the oldest retained version can never be asked
	// about again.
	e.CompactDeletions(s.horizon())
	return nil
}

// snapshotOverhead bounds the fixed header of an mSnapDelta frame (type byte,
// job uvarint, base and new identities); snapBound covers the rest.
const snapshotOverhead = 1 + binary.MaxVarintLen64 + 2*8

// errNoLiveWorker declines work while no worker is live, Transient so that an
// elastic fleet briefly at zero does not lose the region for the job.
var errNoLiveWorker = core.Transient(fmt.Errorf("%w: no live worker", core.ErrExecUnsupported))

// BeginRound prepares one sampling round for dispatch: resolve or publish
// the region's registration, encode the exposed-store snapshot, and encode
// the round recipe every participating worker will receive once.
func (ex *NetExecutor) BeginRound(r core.RoundTask) (any, error) {
	ex.mu.Lock()
	live := ex.liveLocked()
	closed := ex.closed
	ex.mu.Unlock()
	if closed || live == 0 {
		return nil, errNoLiveWorker
	}
	dyn := uint64(0)
	if _, ok := ex.opts.Registry.Named(r.Region); !ok {
		if !ex.opts.Dynamic || r.Body == nil {
			return nil, core.ErrExecUnsupported
		}
		dyn = ex.opts.Registry.registerDynamic(Registration{Spec: r.Spec, Body: r.Body})
	}
	snap, err := ex.snapshotFor(r.Job, r.Exposed)
	if err != nil {
		if dyn != 0 {
			ex.opts.Registry.releaseDynamic(dyn)
		}
		return nil, fmt.Errorf("%w: %v", core.ErrExecUnsupported, err)
	}
	ex.mu.Lock()
	ex.nextRound++
	id := ex.nextRound
	ex.mu.Unlock()
	rs := &roundState{id: id, job: r.Job, dyn: dyn, snap: snap}
	var hash uint64
	if snap != nil {
		hash = snap.hash
	}
	rs.payload = encodeRound(roundMsg{
		ID:       id,
		Job:      r.Job,
		Region:   r.Region,
		Dyn:      dyn,
		Seed:     r.Seed,
		Round:    r.Round,
		N:        r.N,
		SnapHash: hash,
		Feedback: r.Feedback,
	})
	return rs, nil
}

// EndRound retires a round: workers drop their round state and a dynamic
// registration is unpublished.
func (ex *NetExecutor) EndRound(handle any) {
	rs, ok := handle.(*roundState)
	if !ok {
		return
	}
	ex.enqueueAll(sendOp{kind: mEndRound, id: rs.id}, false)
	if rs.dyn != 0 {
		ex.opts.Registry.releaseDynamic(rs.dyn)
	}
}

// EndJob retires one tuning job's executor state: the dispatcher-side
// snapshot cache entry is dropped and every live worker is told to
// evict the job's decoded snapshots. core.Tuner.Close calls it (via the
// core.JobEnder interface) when a job on a shared Runtime shuts down, so a
// long-lived executor does not accumulate state for departed tenants.
func (ex *NetExecutor) EndJob(job uint64) {
	ex.snapMu.Lock()
	delete(ex.snaps, job)
	ex.snapMu.Unlock()
	ex.enqueueAll(sendOp{kind: mEndJob, id: job}, false)
}

// enqueueAll hands op to the writer of every worker in the fleet, or only of
// those accepting samples when live is set.
func (ex *NetExecutor) enqueueAll(op sendOp, live bool) {
	ex.mu.Lock()
	for _, w := range ex.workers {
		if !live || !w.draining {
			w.enqueueLocked(op)
		}
	}
	ex.mu.Unlock()
}

// enqueueLocked queues op for w's writer and wakes it; it never waits on the
// connection. Callers hold ex.mu.
func (w *dworker) enqueueLocked(op sendOp) {
	if w.dead {
		return
	}
	w.ops = append(w.ops, op)
	w.signal()
}

// signal wakes w's writer without blocking; a wake already pending covers
// this one.
func (w *dworker) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// Execute places one sampling-process attempt on a worker and blocks until
// its result returns, the context expires, or the fleet is gone.
func (ex *NetExecutor) Execute(ctx context.Context, handle any, group, attempt int) (core.ExecResult, error) {
	rs, ok := handle.(*roundState)
	if !ok {
		return core.ExecResult{}, core.ErrExecUnsupported
	}
	c := &call{r: rs, group: group, attempt: attempt, done: make(chan callOutcome, 1), enq: time.Now()}
	ex.mu.Lock()
	if ex.closed || ex.liveLocked() == 0 {
		ex.mu.Unlock()
		return core.ExecResult{}, errNoLiveWorker
	}
	ex.nextCall++
	c.id = ex.nextCall
	// Fast path: with an empty queue and a free slot somewhere, claim the call
	// here, where placement can prefer a worker holding the round's snapshot,
	// and hand it straight to that worker's writer. The queue-empty check
	// keeps FIFO order: nothing ever overtakes a waiting call.
	var fast *dworker
	if len(ex.queue) == 0 {
		fast = ex.pickLocked(rs)
	}
	if fast != nil {
		ex.claimLocked(fast, c)
		fast.enqueueLocked(sendOp{c: c})
	} else {
		// No writer needs waking: every live worker was full when the queue
		// last became non-empty, and deliver wakes each as a slot frees.
		ex.queue = append(ex.queue, c)
	}
	ex.mu.Unlock()

	select {
	case out := <-c.done:
		return out.res, out.err
	case <-ctx.Done():
		ex.mu.Lock()
		if i := slices.Index(ex.queue, c); i >= 0 {
			ex.dequeueLocked(i)
		}
		// If a worker already claimed the call, its eventual result is
		// discarded on arrival; the worker slot frees itself then.
		c.abandoned = true
		ex.mu.Unlock()
		select {
		case out := <-c.done: // result raced the cancellation: keep it
			return out.res, out.err
		default:
		}
		return core.ExecResult{}, ctx.Err()
	}
}

// pickLocked chooses the worker a new sample of rs starts on: scanning from
// the rotation cursor, the first live worker with a free slot that holds rs's
// snapshot (see holds), otherwise the first with a free slot at all — a busy
// holder is never worth waiting for, since any free worker is one ship away
// from being a holder itself. It returns nil when no live worker has a free
// slot: the sample queues. Callers hold ex.mu.
func (ex *NetExecutor) pickLocked(rs *roundState) *dworker {
	var free *dworker
	n := len(ex.workers)
	start := ex.rr
	ex.rr++
	for i := 0; i < n; i++ {
		w := ex.workers[(start+i)%n]
		if w.dead || w.draining || len(w.inflight) >= w.slots {
			continue
		}
		if rs.snap == nil || w.holds(rs) {
			return w
		}
		if free == nil {
			free = w
		}
	}
	return free
}

// claimLocked assigns c to w: slot accounting and dispatch timestamps.
// Callers hold ex.mu.
func (ex *NetExecutor) claimLocked(w *dworker, c *call) {
	w.inflight[c.id] = c
	c.worker = w
	c.sent = time.Now()
	w.m.setInflight(len(w.inflight))
	w.m.observeDispatch(c.enq, c.sent)
}

// dequeueLocked removes queue entry i, keeping order, and clears the slot it
// vacates at the tail: a *call left in the backing array would keep its round
// payload and snapshot version reachable past EndJob. Callers hold ex.mu.
func (ex *NetExecutor) dequeueLocked(i int) {
	last := len(ex.queue) - 1
	copy(ex.queue[i:], ex.queue[i+1:])
	ex.queue[last] = nil
	ex.queue = ex.queue[:last]
}

// writeLoop is the one goroutine that writes to the worker's connection. It
// claims the queue head whenever the worker has a free slot — strictly FIFO,
// whichever worker frees a slot first — takes every request queued for it,
// writes their frames, and then one frame of the oldest snapshot ship still
// streaming, so a multi-megabyte @load state never head-of-line blocks rounds
// and tasks. No other sender waits on its I/O.
func (w *dworker) writeLoop() {
	ex := w.ex
	var ops []sendOp
	for {
		ex.mu.Lock()
		for {
			if w.dead {
				ex.mu.Unlock()
				return
			}
			for !w.draining && !ex.closed && len(w.inflight) < w.slots && len(ex.queue) > 0 {
				c := ex.queue[0]
				ex.dequeueLocked(0)
				ex.claimLocked(w, c)
				w.ops = append(w.ops, sendOp{c: c})
			}
			if len(w.ops) > 0 || len(w.bulk) > 0 {
				break
			}
			ex.mu.Unlock()
			<-w.wake
			ex.mu.Lock()
		}
		ops, w.ops = w.ops, ops[:0]
		ex.mu.Unlock()
		for i := range ops {
			if err := w.send(&ops[i]); err != nil {
				ex.fail(w, err)
				return
			}
			ops[i] = sendOp{}
		}
		if len(w.bulk) > 0 {
			done, err := w.wire.writeNext(&w.bulk[0])
			if err != nil {
				ex.fail(w, err)
				return
			}
			if done {
				w.bulk[0] = outMsg{}
				w.bulk = w.bulk[1:]
			}
		}
	}
}

// send carries out one request. A call ships as its task, preceded by the
// round recipe if the worker has not seen this round; a snapshot the worker
// lacks is queued behind the ship in flight (tasks park worker-side until it
// lands). This is also where the claim's affinity outcome is known and
// counted: a miss is a claim that cost a full snapshot ship, a hit one that
// cost a delta or nothing.
func (w *dworker) send(op *sendOp) error {
	ex := w.ex
	switch {
	case op.c != nil:
		rs := op.c.r
		if rs.snap != nil {
			cached := w.hasSent(rs.job, rs.snap.hash)
			hit := cached
			if !cached {
				it, full := ex.snapShip(w, rs.job, rs.snap)
				w.queueSnap(it)
				hit = !full
			}
			w.m.countSnapshot(cached)
			ex.fm.countAffinity(hit)
		}
		if !w.sentRounds[rs.id] {
			if err := w.wire.writeMsg(rs.payload); err != nil {
				return err
			}
			w.sentRounds[rs.id] = true
		}
		wb := getFrameBuf()
		appendTask(wb, taskMsg{ID: op.c.id, Round: rs.id, Group: op.c.group, Attempt: op.c.attempt})
		err := w.wire.writeBuf(wb)
		putFrameBuf(wb)
		return err
	case op.kind == mEndRound:
		if !w.sentRounds[op.id] {
			return nil
		}
		delete(w.sentRounds, op.id)
	case op.kind == mEndJob:
		if _, ok := w.sent[op.id]; !ok {
			return nil
		}
		ex.mu.Lock()
		delete(w.sent, op.id)
		ex.mu.Unlock()
	case op.kind == mSnapDelta:
		if !w.hasSent(op.id, op.v.hash) {
			w.m.countSnapshot(false)
			it, _ := ex.snapShip(w, op.id, op.v)
			w.queueSnap(it)
		}
		return nil
	case op.kind == mSnapNack:
		// Clear the sent mark first, so that if the refused version is no
		// longer the job's current one a later round re-ships rather than
		// wedging the worker's parked tasks until snapWaitTimeout bounces them.
		if vs, ok := w.sent[op.id]; ok { // not a job EndJob has already forgotten
			ex.mu.Lock()
			w.sent[op.id] = slices.DeleteFunc(vs, func(sv sentVer) bool { return sv.hash == op.hash })
			ex.mu.Unlock()
		}
		if op.v != nil {
			w.queueSnap(ex.fullItem(op.v))
		}
		return nil
	}
	wb := getFrameBuf()
	wb.U8(op.kind)
	wb.Uv(op.id)
	err := w.wire.writeBuf(wb)
	putFrameBuf(wb)
	return err
}

// readLoop consumes worker frames: result batches, the drain announcement,
// and the goodbye. Chunked messages reassemble through the demux; decode
// scratch (frame buffer, batch slice, name interning) is connection-owned
// and reused, so the steady-state result path does not allocate per frame.
// Any error fails the worker.
func (w *dworker) readLoop() {
	ex := w.ex
	dmx := newDemux()
	defer dmx.close()
	var dec decoder
	var buf []byte
	defer func() { wire.Free(buf) }()
	// Buffer the conn so header and payload of a small frame cost one Read
	// (one wakeup on synchronous pipes) instead of two.
	br := bufio.NewReaderSize(w.c, readBufSize)
	for {
		payload, err := readFrame(br, buf)
		buf = payload // adopt even on error: readFrame may have recycled buf
		if err != nil {
			ex.fail(w, err)
			return
		}
		msg, pooled, err := dmx.feed(payload)
		if err != nil {
			ex.fail(w, err)
			return
		}
		if msg == nil {
			continue // mid-stream chunk
		}
		if len(msg) == 0 {
			ex.fail(w, errCodec)
			return
		}
		switch msg[0] {
		case mResults:
			batch, err := decodeResults(msg[1:], ex.opts.Values, &dec)
			if err != nil {
				ex.fail(w, err)
				return
			}
			for _, m := range batch {
				ex.deliver(w, m)
			}
		case mSnapNack:
			n, err := decodeSnapNack(msg[1:])
			if err != nil {
				ex.fail(w, err)
				return
			}
			ex.handleSnapNack(w, n)
		case mDrain:
			ex.mu.Lock()
			w.draining = true   // its writer stops claiming; in-flight results still arrive
			ex.uncountLocked(w) // capacity watchers shrink the sampling bound
			ex.mu.Unlock()
		case mBye:
			ex.fail(w, errWorkerBye)
			return
		default:
			ex.fail(w, fmt.Errorf("%w: unexpected frame type %d", errCodec, msg[0]))
			return
		}
		if pooled {
			wire.Free(msg)
		}
	}
}

var errWorkerBye = fmt.Errorf("remote: worker drained and disconnected")

// handleSnapNack answers a worker's typed delta refusal (base missing from
// its cache, or a spliced identity that did not match) with an immediate full
// ship of the refused version, its from-empty frame, queued to the worker's
// writer — divergence heals in one round trip; it is never silent.
func (ex *NetExecutor) handleSnapNack(w *dworker, n snapNack) {
	ex.countFallback(func(m *fleetMetrics) *obs.Counter { return m.fallbackNack })
	ex.snapMu.Lock()
	var v *snapVersion
	if s := ex.snaps[n.Job]; s != nil && s.cur.hash == n.NewHash {
		v = s.cur
	}
	ex.snapMu.Unlock()
	ex.mu.Lock()
	w.enqueueLocked(sendOp{kind: mSnapNack, id: n.Job, hash: n.NewHash, v: v})
	ex.mu.Unlock()
}

// deliver hands one result to its waiting Execute call and frees the slot.
func (ex *NetExecutor) deliver(w *dworker, m resultMsg) {
	ex.mu.Lock()
	c, ok := w.inflight[m.ID]
	if ok {
		delete(w.inflight, m.ID)
		w.m.setInflight(len(w.inflight))
	}
	var send bool
	if ok && !c.delivered && !c.abandoned {
		c.delivered = true
		send = true
	}
	if len(ex.queue) > 0 {
		w.signal() // a slot freed; its writer claims the queue head
	}
	if w.draining {
		ex.cond.Broadcast() // RemoveConn waits for the last in-flight result
	}
	ex.mu.Unlock()
	if send {
		w.m.observeRPC(c.sent)
		c.done <- callOutcome{res: m.Res}
	}
}

// fail marks a worker dead, retires its slots from the counted capacity
// (exactly once, even when racing an explicit retirement or drain), reaps it
// from the fleet, and bounces its in-flight samples back through the retry
// machinery as retryable failures.
func (ex *NetExecutor) fail(w *dworker, cause error) {
	ex.mu.Lock()
	if w.dead {
		ex.mu.Unlock()
		return
	}
	w.dead = true
	ex.uncountLocked(w)
	for i, x := range ex.workers {
		if x == w {
			ex.workers = append(ex.workers[:i], ex.workers[i+1:]...)
			break
		}
	}
	w.ops = nil
	w.signal() // its writer exits
	orphans := make([]*call, 0, len(w.inflight))
	for id, c := range w.inflight {
		delete(w.inflight, id)
		if !c.delivered && !c.abandoned {
			c.delivered = true
			orphans = append(orphans, c)
		}
	}
	w.m.setInflight(0)
	ex.cond.Broadcast()
	ex.mu.Unlock()

	if w.m != nil && cause != errWorkerBye && cause != errWorkerRetired {
		w.m.failures.Inc()
	}
	w.c.Close()
	for _, c := range orphans {
		c.done <- callOutcome{err: core.Transient(fmt.Errorf(
			"remote: worker %s lost with sample in flight: %w", w.name, cause))}
	}
}

// Close tears the executor down: every connection closes, queued and
// in-flight calls fail over to the local path.
func (ex *NetExecutor) Close() {
	ex.mu.Lock()
	if ex.closed {
		ex.mu.Unlock()
		return
	}
	ex.closed = true
	workers := append([]*dworker(nil), ex.workers...)
	queued := ex.queue
	ex.queue = nil
	for _, c := range queued {
		if !c.delivered && !c.abandoned {
			c.delivered = true
		}
	}
	ex.mu.Unlock()
	for _, c := range queued {
		c.done <- callOutcome{err: core.ErrExecUnsupported}
	}
	for _, w := range workers {
		ex.fail(w, fmt.Errorf("remote: executor closed"))
	}
}
