package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/store"
)

// dispatch runs sample g of an executor round on the worker's pool slot — a
// dispatched sample holds a slot exactly like a local one, so Algorithm 1's
// occupancy accounting is identical whichever side the body runs on. It
// reports false when the executor cannot run the sample (the body hit a Sync
// barrier, or every worker is gone): the region is poisoned — the rest of
// this round and every future round of the name run in-process — the partial
// attempt is discarded, and the caller re-runs the sample on the in-process
// path; the seeded sampler makes the local re-run draw exactly what a healthy
// remote run would have drawn.
func (rs *regionState) dispatch(g int) bool {
	res, err, timedOut, unsupported := rs.runRemoteSP(g)
	if unsupported {
		rs.t.execSkip.Store(rs.spec.Name, struct{}{})
		return false
	}
	rs.applyExec(g, res, err, timedOut)
	return true
}

// runRemoteSP drives the attempts of one dispatched sample through the
// FaultPolicy retry machinery: per-attempt deadlines via the context handed
// to Execute, retryable failures (including a worker dying with the sample
// in flight) re-dispatched with deterministic backoff, timeouts committed as
// the distinguished timeout outcome. It mirrors runSP's control flow so a
// sample's observable lifecycle — counters, trace events, retry schedule —
// does not depend on where its body ran.
func (rs *regionState) runRemoteSP(g int) (ExecResult, error, bool, bool) {
	t := rs.t
	ex := t.opts.Executor
	fp := t.opts.Fault
	for attempt := 1; ; attempt++ {
		t.ctr.samples.Add(1)
		var t0 time.Time
		if rs.ro != nil {
			t0 = time.Now()
		}
		actx := rs.ctx
		var cancel context.CancelFunc
		if fp.SampleTimeout > 0 {
			actx, cancel = context.WithTimeout(rs.ctx, fp.SampleTimeout)
		}
		res, err := ex.Execute(actx, rs.execH, g, attempt)
		if cancel != nil {
			cancel()
		}
		if rs.ro != nil {
			rs.ro.sampleDur.ObserveSince(t0)
		}
		if (err == nil && res.Unsupported) || errors.Is(err, ErrExecUnsupported) {
			return res, nil, false, true
		}
		// The attempt's work counts whether or not it succeeded, matching the
		// local path where Work accrues as the body runs.
		t.addWorkMilli(res.WorkMilli, true)
		timedOut := false
		if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			err = fmt.Errorf("%w: %v", ErrSampleTimeout, err)
			timedOut = true
		}
		if err == nil && res.Err != "" {
			rerr := errors.New(res.Err)
			if res.Retryable {
				err = Transient(rerr)
			} else {
				err = rerr
			}
		}
		if res.Panicked {
			rs.countPanic()
		}
		if res.Pruned {
			rs.countPruned()
		}
		if timedOut || err == nil || !IsRetryable(err) || attempt >= fp.attempts() || rs.ctx.Err() != nil {
			return res, err, timedOut, false
		}
		t.ctr.retried.Add(1)
		if rs.ro != nil {
			rs.ro.retried.Inc()
		}
		t.opts.Trace.add(Event{Kind: EvSampleRetry, Region: rs.spec.Name,
			Sample: g, Round: attempt, Err: traceErr(err)})
		timer := time.NewTimer(fp.backoff(rs.seed, g, attempt+1))
		select {
		case <-timer.C:
		case <-rs.ctx.Done():
			timer.Stop()
			err = fmt.Errorf("%w during retry backoff: %v", ErrSampleTimeout, rs.ctx.Err())
			return ExecResult{}, err, true, false
		}
	}
}

// applyExec commits a dispatched sample's externalized outcome into the
// round — the spDone of the remote path. Commits stream into the same
// incremental-aggregation ring and aggregation-store batches a local sample
// feeds, parameters land in the same arena, in the same per-sample order, so
// the finished round is indistinguishable from an all-local one.
func (rs *regionState) applyExec(g int, res ExecResult, err error, timedOut bool) {
	if timedOut {
		rs.noteOutcome(g, err, true, false, 0)
		rs.mu.Lock()
		if rs.errs[g] == nil {
			rs.errs[g] = err
		}
		rs.done++
		rs.mu.Unlock()
		rs.barrier.maybeRelease()
		return
	}
	rs.noteOutcome(g, err, false, res.Pruned, res.Score)

	ok := err == nil && !res.Pruned
	var kvbuf []store.KV
	var ringbuf []any
	if ok {
		for _, kv := range res.Commits {
			if _, inc := rs.incs[kv.Name]; inc && rs.ring != nil {
				if rs.soleInc != nil {
					ringbuf = append(ringbuf, kv.Value)
				} else {
					ringbuf = append(ringbuf, ringItem{x: kv.Name, v: kv.Value})
				}
				continue
			}
			kvbuf = append(kvbuf, store.KV{X: kv.Name, V: kv.Value})
		}
		if len(ringbuf) > 0 {
			// Outside rs.mu: the ring applies backpressure when the drain
			// loop falls behind, exactly as on the local flush path.
			rs.ring.PutBatch(ringbuf)
		}
	}

	rs.mu.Lock()
	switch {
	case err != nil:
		if rs.errs[g] == nil {
			rs.errs[g] = err
		}
	case res.Pruned:
		rs.pruned[g] = true
	default:
		if !rs.haveParams[g] {
			rs.haveParams[g] = true
			off := len(rs.arena)
			for _, p := range res.Params {
				rs.arena = append(rs.arena, pkv{id: rs.syms.Intern(p.Name), v: p.Value})
			}
			rs.spans[g] = span{off, len(rs.arena) - off}
		}
		for _, kv := range kvbuf {
			if a, inc := rs.incs[kv.X]; inc {
				a.Add(kv.V)
			}
		}
		if res.Scored {
			rs.scoreSum[g] += res.Score
			rs.scoreCnt[g]++
		}
	}
	rs.done++
	rs.mu.Unlock()
	if ok && len(kvbuf) > 0 {
		rs.store.PutBatch(g, kvbuf)
	}
	rs.barrier.maybeRelease()
}
