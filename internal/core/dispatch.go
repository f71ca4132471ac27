package core

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// remoteAttempt runs one attempt of sample g through the executor, on the pool
// slot its worker holds: a dispatched sample occupies a slot exactly like a
// local one, so Algorithm 1's accounting does not depend on where the body ran.
// The externalized outcome is loaded into a pooled SP — parameters in draw
// order, commits in commit order — so runSP and spDone treat it like any
// finished in-process attempt. declined reports that the executor cannot run
// the sample at all (the body reached a Sync barrier, every worker is gone):
// nothing was counted, and runSP re-runs the sample in-process, where the
// seeded sampler draws exactly what a healthy remote run would have drawn;
// err says why. A timed-out attempt has no outcome to load and returns no SP.
func (rs *regionState) remoteAttempt(g, attempt int) (sp *SP, err error, timedOut, declined bool) {
	t := rs.t
	var t0 time.Time
	if rs.ro != nil {
		t0 = time.Now()
	}
	actx := rs.ctx
	if d := t.opts.Fault.SampleTimeout; d > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(rs.ctx, d)
		defer cancel()
	}
	res, err := t.opts.Executor.Execute(actx, rs.execH, g, attempt)
	if (err == nil && res.Unsupported) || errors.Is(err, ErrExecUnsupported) {
		return nil, err, false, true
	}
	t.ctr.samples.Add(1)
	if rs.ro != nil {
		rs.ro.sampleDur.ObserveSince(t0)
	}
	// The attempt's work counts whether or not it succeeded, matching the
	// local path where Work accrues as the body runs.
	t.addWorkMilli(res.WorkMilli, true)
	if res.Panicked {
		rs.countPanic()
	}
	if res.Pruned {
		rs.countPruned()
	}
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return nil, fmt.Errorf("%w: %v", ErrSampleTimeout, err), true, false
	case err == nil && res.Err != "":
		err = errors.New(res.Err)
		if res.Retryable {
			err = Transient(err)
		}
	}
	sp = rs.newSP(g, 0, attempt, nil, nil, nil)
	for _, p := range res.Params {
		sp.setParam(rs.syms.Intern(p.Name), p.Value)
	}
	for _, c := range res.Commits {
		sp.Commit(c.Name, c.Value)
	}
	sp.pruned, sp.scored, sp.score = res.Pruned, res.Scored, res.Score
	return sp, err, false, false
}
