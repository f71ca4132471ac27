package remote

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/wire"
)

// snapCacheCap bounds how many decoded snapshots a worker retains per
// tuning job (FIFO eviction). Rounds of one job share a snapshot until the
// exposed store changes, so a handful covers a job's in-flight rounds; the
// per-job bound means co-tenant jobs multiplexed over one connection never
// evict each other's @load state.
const snapCacheCap = 8

// WorkerOptions configure a Worker.
type WorkerOptions struct {
	// Name identifies the worker in the dispatcher's metrics and logs.
	// Empty means "worker".
	Name string
	// Slots is how many sampling processes may run concurrently; it is
	// advertised in the hello frame and the dispatcher keeps at most that
	// many samples in flight here. Zero means 2 x GOMAXPROCS.
	Slots int
	// Registry resolves round recipes to runnable (spec, body) pairs.
	// Required.
	Registry *Registry
	// Values resolves opaque value handles when the dispatcher shares the
	// table (same-process loopback); nil on a standalone worker.
	Values *ValueTable
}

// Worker runs sampling processes on behalf of remote dispatchers. One
// Worker serves any number of connections; samples from all of them share
// the slot semaphore and the snapshot cache. Results stream back per
// connection in whole-sample batches: the writer goroutine greedily
// coalesces everything finished since its last flush into one frame.
type Worker struct {
	opts   WorkerOptions
	runner *core.DetachedRunner
	sem    chan struct{}

	mu          sync.Mutex
	snaps       map[snapKey]*cachedSnap
	snapOrder   map[uint64][]uint64 // job id -> hashes, oldest first
	snapWaiters map[snapKey]chan struct{}
	conns       map[*wconn]struct{}
	lns         map[net.Listener]struct{}
	draining    bool
	ntasks      sync.WaitGroup // all in-flight samples, across conns
	wg          sync.WaitGroup // per-conn reader+writer goroutines
}

// NewWorker returns a Worker ready to serve connections.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Registry == nil {
		panic("remote: WorkerOptions.Registry is required")
	}
	if opts.Name == "" {
		opts.Name = "worker"
	}
	if opts.Slots <= 0 {
		opts.Slots = 2 * runtime.GOMAXPROCS(0)
	}
	return &Worker{
		opts:        opts,
		runner:      core.NewDetachedRunner(),
		sem:         make(chan struct{}, opts.Slots),
		snaps:       make(map[snapKey]*cachedSnap),
		snapOrder:   make(map[uint64][]uint64),
		snapWaiters: make(map[snapKey]chan struct{}),
		conns:       make(map[*wconn]struct{}),
		lns:         make(map[net.Listener]struct{}),
	}
}

// Serve accepts dispatcher connections until the listener closes (Drain and
// Close close it). It returns the accept error, nil after a drain/close.
func (w *Worker) Serve(ln net.Listener) error {
	w.mu.Lock()
	if w.draining {
		w.mu.Unlock()
		ln.Close()
		return nil
	}
	w.lns[ln] = struct{}{}
	w.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			w.mu.Lock()
			delete(w.lns, ln)
			draining := w.draining
			w.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		go w.ServeConn(conn)
	}
}

// ServeConn serves one dispatcher connection and blocks until it closes.
func (w *Worker) ServeConn(conn net.Conn) {
	c := &wconn{
		w:      w,
		c:      conn,
		wire:   newMuxWriter(conn),
		out:    make(chan resultMsg, 64),
		closed: make(chan struct{}),
	}
	w.mu.Lock()
	if w.draining {
		w.mu.Unlock()
		conn.Close()
		return
	}
	w.conns[c] = struct{}{}
	w.wg.Add(1) // writer
	w.mu.Unlock()

	if err := c.wire.writeMsg(encodeHello(helloMsg{
		Version: protocolVersion, Name: w.opts.Name, Slots: w.opts.Slots,
	})); err != nil {
		w.mu.Lock()
		delete(w.conns, c)
		w.mu.Unlock()
		w.wg.Done()
		close(c.closed)
		conn.Close()
		return
	}
	go c.writeLoop()
	c.readLoop()
}

// snapshot returns the snapshot cached under a (job, identity) pair.
func (w *Worker) snapshot(job, hash uint64) (*cachedSnap, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	s, ok := w.snaps[snapKey{job: job, hash: hash}]
	return s, ok
}

// installSnapshot caches a verified snapshot under its identity, releasing
// the tasks parked on it. An evicted snapshot is simply dropped: a delta
// application on another connection may still be reading it, and its values
// live on in whichever later versions share them.
func (w *Worker) installSnapshot(job, hash uint64, s *cachedSnap) {
	w.mu.Lock()
	defer w.mu.Unlock()
	k := snapKey{job: job, hash: hash}
	if ch, ok := w.snapWaiters[k]; ok {
		close(ch) // releases tasks parked on this snapshot
		delete(w.snapWaiters, k)
	}
	if _, ok := w.snaps[k]; ok {
		return
	}
	w.snaps[k] = s
	order := append(w.snapOrder[job], hash)
	if len(order) > snapCacheCap {
		delete(w.snaps, snapKey{job: job, hash: order[0]})
		order = order[1:]
	}
	w.snapOrder[job] = order
}

// snapWaitTimeout bounds how long a task parks waiting for its snapshot,
// which travels on the connection's bulk lane and may land after the task
// that needs it. A lost snapshot (dropped frame, dead bulk lane) degrades to
// the plain retryable "not cached" bounce when the timer fires. Variable so
// tests can shorten it.
var snapWaitTimeout = 5 * time.Second

// awaitSnapshot blocks until the (job, hash) snapshot is installed, the
// connection dies, or the park times out, and reports whether the snapshot
// is now available. Parking happens before the slot semaphore, so a waiting
// task never starves samples that are ready to run.
func (w *Worker) awaitSnapshot(c *wconn, job, hash uint64) (*store.Exposed, bool) {
	k := snapKey{job: job, hash: hash}
	w.mu.Lock()
	if s, ok := w.snaps[k]; ok {
		w.mu.Unlock()
		return s.e, true
	}
	ch, ok := w.snapWaiters[k]
	if !ok {
		ch = make(chan struct{})
		w.snapWaiters[k] = ch
	}
	w.mu.Unlock()
	t := time.NewTimer(snapWaitTimeout)
	defer t.Stop()
	select {
	case <-ch:
	case <-c.closed:
	case <-t.C:
	}
	s, ok := w.snapshot(job, hash)
	if !ok {
		return nil, false
	}
	return s.e, true
}

// endJob evicts every snapshot a departed job installed. Job ids are unique
// within one Runtime; should two independent dispatchers collide on an id,
// the worst case is a premature eviction the content hash heals with one
// retryable re-ship.
func (w *Worker) endJob(job uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, hash := range w.snapOrder[job] {
		delete(w.snaps, snapKey{job: job, hash: hash})
	}
	delete(w.snapOrder, job)
	for k, ch := range w.snapWaiters {
		if k.job == job {
			close(ch) // parked tasks re-check, miss, and bounce retryable
			delete(w.snapWaiters, k)
		}
	}
}

// Drain gracefully shuts the worker down: stop accepting connections and
// tasks, announce the drain to every dispatcher, finish in-flight samples,
// flush their result batches, say goodbye, and close. It is what the
// SIGTERM handler of cmd/wbtune-worker calls. Drain returns ctx.Err() if
// in-flight samples outlive the context (connections are then torn down
// hard), nil otherwise.
func (w *Worker) Drain(ctx context.Context) error {
	w.mu.Lock()
	if w.draining {
		w.mu.Unlock()
		return nil
	}
	w.draining = true
	conns := make([]*wconn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	lns := make([]net.Listener, 0, len(w.lns))
	for ln := range w.lns {
		lns = append(lns, ln)
	}
	w.mu.Unlock()

	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.write([]byte{mDrain}) // deregisters us at the dispatcher
	}

	// Wait for in-flight samples; ntasks.Add only happens under w.mu with
	// draining false, so the counter can only fall from here on.
	done := make(chan struct{})
	go func() {
		w.ntasks.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}

	// Flush and close every connection: closing out lets the writer drain
	// the remaining batches, append the goodbye frame, and close the conn.
	for _, c := range conns {
		c.finish()
	}
	w.wg.Wait()
	return err
}

// Close tears the worker down immediately: listeners and connections close,
// in-flight sample results are lost (their bodies run to completion, then
// find the writer gone). Tests use it; production workers Drain.
func (w *Worker) Close() {
	w.mu.Lock()
	w.draining = true
	conns := make([]*wconn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	lns := make([]net.Listener, 0, len(w.lns))
	for ln := range w.lns {
		lns = append(lns, ln)
	}
	w.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.c.Close()
	}
	w.ntasks.Wait()
	for _, c := range conns {
		c.finish()
	}
	w.wg.Wait()
}

// wconn is one dispatcher connection of a Worker.
type wconn struct {
	w    *Worker
	c    net.Conn
	wire *muxWriter

	flushMu    sync.Mutex     // owner of the result-flush path (writer or a direct-flushing task)
	direct     [1]resultMsg   // direct-flush scratch, guarded by flushMu
	out        chan resultMsg // finished samples -> writer goroutine
	closed     chan struct{}  // closed when the read loop exits; unparks waiting tasks
	taskWG     sync.WaitGroup // samples in flight on this conn
	roundsMap  sync.Map       // round id -> roundMsg
	finishOnce sync.Once
}

// write sends one message through the connection's wire.
func (c *wconn) write(payload []byte) error {
	return c.wire.writeMsg(payload)
}

// finish closes the result channel once no more results can be produced,
// releasing the writer to flush, say goodbye, and close the connection.
func (c *wconn) finish() {
	c.finishOnce.Do(func() {
		go func() {
			c.taskWG.Wait()
			close(c.out)
		}()
	})
}

// readLoop processes dispatcher frames until the connection dies. Chunked
// messages (snapshot ships on the bulk lane) reassemble through the demux,
// interleaved with the small frames they must not block.
func (c *wconn) readLoop() {
	w := c.w
	dmx := newDemux()
	defer dmx.close()
	var buf []byte
	defer func() { wire.Free(buf) }()
	// Buffer the conn so header and payload of a small frame cost one Read
	// (one wakeup on synchronous pipes) instead of two.
	br := bufio.NewReaderSize(c.c, readBufSize)
	var err error
	for {
		var frame []byte
		frame, err = readFrame(br, buf)
		buf = frame // adopt even on error: readFrame may have recycled buf
		if err != nil {
			break
		}
		var payload []byte
		var pooled bool
		payload, pooled, err = dmx.feed(frame)
		if err != nil {
			break
		}
		if payload == nil {
			continue // mid-stream chunk
		}
		if len(payload) == 0 {
			err = errCodec
			break
		}
		switch payload[0] {
		case mSnapDelta:
			var d snapDelta
			d, err = decodeSnapDelta(payload[1:])
			if err != nil {
				break
			}
			var cause byte
			if cause, err = w.applyDelta(&d); err == nil && cause != 0 {
				err = c.write(encodeSnapNack(snapNack{
					Job: d.Job, BaseHash: d.BaseHash, NewHash: d.NewHash, Cause: cause,
				}))
			}
		case mRound:
			var rm roundMsg
			rm, err = decodeRound(payload[1:])
			if err != nil {
				break
			}
			c.rounds().Store(rm.ID, rm)
		case mEndRound:
			var id uint64
			id, err = decodeEndRound(payload[1:])
			if err != nil {
				break
			}
			c.rounds().Delete(id)
		case mEndJob:
			var job uint64
			job, err = decodeEndJob(payload[1:])
			if err != nil {
				break
			}
			w.endJob(job)
		case mTask:
			var tm taskMsg
			tm, err = decodeTask(payload[1:])
			if err != nil {
				break
			}
			w.mu.Lock()
			if w.draining {
				w.mu.Unlock()
				// Lost race between our drain announcement and a task in
				// flight from the dispatcher: bounce it for reassignment.
				c.write(mustEncodeResults([]resultMsg{{ID: tm.ID, Res: core.ExecResult{
					Err: "remote: worker draining", Retryable: true,
				}}}))
				continue
			}
			w.ntasks.Add(1)
			c.taskWG.Add(1)
			w.mu.Unlock()
			if c.inlineTask(tm) {
				c.runTask(tm)
			} else {
				go c.runTask(tm)
			}
		default:
			err = fmt.Errorf("%w: unexpected frame type %d", errCodec, payload[0])
		}
		if pooled {
			wire.Free(payload)
		}
		if err != nil {
			break
		}
	}
	w.mu.Lock()
	delete(w.conns, c)
	w.mu.Unlock()
	close(c.closed) // unpark tasks awaiting snapshots from this conn
	c.c.Close()
	c.finish()
}

// rounds returns the per-connection round table.
func (c *wconn) rounds() *sync.Map { return &c.roundsMap }

// applyDelta decodes a delta's changed values and splices them into its
// base — the empty snapshot for BaseHash 0, else a cached one, whose other
// entries the result shares — and installs the result if the identity it
// arrives at is the one the frame names. A base missing from the cache or an
// identity mismatch against a cached base installs nothing and returns the
// nack cause: the read loop answers with a typed mSnapNack and the dispatcher
// with a full re-ship, so divergence heals in one round trip and is never
// silent. A full ship (BaseHash 0) that misnames its identity is malformed —
// its re-ship would be the same frame — and, like any structurally malformed
// delta, is a protocol error that drops the connection.
func (w *Worker) applyDelta(d *snapDelta) (nackCause byte, err error) {
	changed := make([]snapEntry, len(d.Changed))
	for i := range d.Changed {
		if changed[i], err = decodeEntry(&d.Changed[i], w.opts.Values); err != nil {
			return 0, err
		}
	}
	base := &cachedSnap{}
	if d.BaseHash != 0 {
		var ok bool
		if base, ok = w.snapshot(d.Job, d.BaseHash); !ok {
			return nackBaseMissing, nil
		}
	}
	ents, sum := spliceEntries(base.ents, base.sum, changed, d.Deleted)
	if got := snapIdentity(sum); got != d.NewHash {
		if d.BaseHash == 0 {
			return 0, fmt.Errorf("%w: snapshot shipped as %#x decodes to identity %#x", errCodec, d.NewHash, got)
		}
		return nackHashMismatch, nil
	}
	w.installSnapshot(d.Job, d.NewHash, newCachedSnap(ents, sum))
	return 0, nil
}

// inlineTask reports whether a task should run on the read loop itself: a
// single-slot worker has at most one sample in flight, so a task goroutine
// buys no concurrency and its spawn/handoff is measurable at loopback scale.
// Tasks that might park for a snapshot still get a goroutine — the snapshot
// they would wait for arrives on this very read loop.
func (c *wconn) inlineTask(tm taskMsg) bool {
	if c.w.opts.Slots != 1 {
		return false
	}
	rv, ok := c.roundsMap.Load(tm.Round)
	if !ok {
		return true // immediate bounce, never parks
	}
	rm := rv.(roundMsg)
	if rm.SnapHash == 0 {
		return true
	}
	_, cached := c.w.snapshot(rm.Job, rm.SnapHash)
	return cached
}

// runTask executes one sampling-process attempt and queues its result. The
// round frame always precedes its tasks on the connection, but the snapshot
// rides the bulk lane and may still be in flight — such tasks park (before
// taking an execution slot) until it lands.
func (c *wconn) runTask(tm taskMsg) {
	w := c.w
	defer w.ntasks.Done()
	defer c.taskWG.Done()

	rv, ok := c.rounds().Load(tm.Round)
	if !ok {
		c.send(resultMsg{ID: tm.ID, Res: core.ExecResult{
			Err: "remote: task for unknown round", Retryable: true,
		}})
		return
	}
	rm := rv.(roundMsg)
	reg, ok := w.opts.Registry.resolve(rm)
	if !ok {
		// Nothing registered under this name or dynamic key here: the
		// dispatcher falls back to running the region in-process.
		c.send(resultMsg{ID: tm.ID, Res: core.ExecResult{Unsupported: true}})
		return
	}
	var exposed *store.Exposed
	if rm.SnapHash != 0 {
		exposed, ok = w.awaitSnapshot(c, rm.Job, rm.SnapHash)
		if !ok {
			c.send(resultMsg{ID: tm.ID, Res: core.ExecResult{
				Err: "remote: snapshot not cached", Retryable: true,
			}})
			return
		}
	}
	w.sem <- struct{}{}
	defer func() { <-w.sem }()
	res := w.runner.Run(context.Background(), reg.Spec, reg.Body, core.SampleTask{
		Seed:     rm.Seed,
		N:        rm.N,
		Group:    tm.Group,
		Attempt:  tm.Attempt,
		Feedback: rm.Feedback,
	}, exposed)
	c.send(resultMsg{ID: tm.ID, Res: res})
}

// send routes one finished sample to the dispatcher. When the writer is
// idle and nothing else is queued, the result is flushed directly from the
// task goroutine — two channel handoffs cheaper, which is most of the
// remaining single-worker loopback overhead. Otherwise it queues for the
// writer's greedy batching.
func (c *wconn) send(m resultMsg) {
	if c.flushMu.TryLock() {
		if len(c.out) == 0 {
			c.direct[0] = m
			err := c.flush(c.direct[:])
			c.flushMu.Unlock()
			if err != nil {
				c.c.Close()
			}
			return
		}
		c.flushMu.Unlock()
	}
	c.out <- m
}

// resultBatchMax bounds how many finished samples ride in one result frame.
const resultBatchMax = 64

// writeLoop streams finished samples back, batching greedily: everything
// queued at flush time joins one frame. After the channel closes (drain or
// teardown) it flushes the tail, appends the goodbye frame, and closes the
// connection.
func (c *wconn) writeLoop() {
	defer c.w.wg.Done()
	alive := true
	batch := make([]resultMsg, 0, resultBatchMax)
	for alive {
		r, ok := <-c.out
		if !ok {
			break
		}
		batch = append(batch[:0], r)
	collect:
		for len(batch) < resultBatchMax {
			select {
			case r2, ok2 := <-c.out:
				if !ok2 {
					alive = false
					break collect
				}
				batch = append(batch, r2)
			default:
				break collect
			}
		}
		c.flushMu.Lock()
		err := c.flush(batch)
		c.flushMu.Unlock()
		if err != nil {
			// The connection is gone; drain remaining results so task
			// goroutines never block on the channel.
			for range c.out {
			}
			c.c.Close()
			return
		}
	}
	c.write([]byte{mBye})
	c.c.Close()
}

// flush encodes one result batch into a pooled frame buffer and writes it.
// Samples whose values cannot be serialized — or whose encoding alone
// exceeds the wire's message cap — are replaced by a per-sample error
// result, so one bad commit cannot poison its batch siblings or cost the
// connection; a batch that is merely too big in aggregate splits in half.
func (c *wconn) flush(batch []resultMsg) error {
	vt := c.w.opts.Values
	wb := getFrameBuf()
	if err := appendResults(wb, batch, vt); err != nil {
		// Re-encode with every unserializable sample replaced by a
		// descriptive per-sample error result.
		probe := getFrameBuf()
		fixed := make([]resultMsg, len(batch))
		for i, m := range batch {
			resetFrame(probe)
			if e1 := appendResults(probe, batch[i:i+1], vt); e1 != nil {
				m = resultMsg{ID: m.ID, Res: core.ExecResult{
					Err: fmt.Sprintf("remote: unserializable sample result: %v", e1),
				}}
			}
			fixed[i] = m
		}
		putFrameBuf(probe)
		resetFrame(wb)
		if err := appendResults(wb, fixed, vt); err != nil {
			putFrameBuf(wb)
			return err
		}
		batch = fixed
	}
	if len(wb.B)-frameHeader > maxMessage {
		putFrameBuf(wb)
		if len(batch) == 1 {
			return c.flush([]resultMsg{{ID: batch[0].ID, Res: core.ExecResult{
				Err: fmt.Sprintf("remote: unserializable sample result: %v", ErrMessageTooBig),
			}}})
		}
		mid := len(batch) / 2
		if err := c.flush(batch[:mid]); err != nil {
			return err
		}
		return c.flush(batch[mid:])
	}
	err := c.wire.writeBuf(wb)
	putFrameBuf(wb)
	return err
}

// mustEncodeResults encodes a batch of plain error results (always
// serializable).
func mustEncodeResults(batch []resultMsg) []byte {
	b, err := encodeResults(batch, nil)
	if err != nil {
		panic(err)
	}
	return b
}
