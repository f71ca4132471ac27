package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/store"
	"repro/internal/strategy"
)

// detachedState is the tuner-surrogate of a detached sampling process: the
// few per-attempt signals the hot path would otherwise write into tuner
// counters. workMilli is atomic because a body may call Work from helper
// goroutines; the flags are only touched by the body's own goroutine.
type detachedState struct {
	workMilli atomic.Int64
	panicked  bool
	noSync    bool
}

// countPruned and countPanic route outcome counting to the tuner when there
// is one. A detached process has no tuner; its outcome flags travel home in
// the ExecResult and the dispatcher counts them there, so nothing is counted
// twice.
func (rs *regionState) countPruned() {
	if rs.t != nil {
		rs.t.ctr.pruned.Add(1)
	}
}

func (rs *regionState) countPanic() {
	if rs.t != nil {
		rs.t.ctr.panics.Add(1)
	}
	if rs.det != nil {
		rs.det.panicked = true
	}
}

// DetachedRunner executes single sampling processes outside any Tuner — the
// worker side of a distributed executor. It keeps the same per-region-name
// shape state a Tuner keeps (interned symbols, pooled SP structs), so a
// worker that runs many samples of one region gets the same lock-free,
// allocation-free steady state as the in-process pool.
//
// Determinism: the sampler is rebuilt from the task's (Seed, Group, N,
// Feedback) — a pure function — and the body sees the same draw sequence,
// the same exposed snapshot, and the same commit ordering it would see
// locally, so results are bit-identical to an in-process run.
type DetachedRunner struct {
	shapes sync.Map // region name -> *regionShape
}

// NewDetachedRunner returns an empty runner.
func NewDetachedRunner() *DetachedRunner { return &DetachedRunner{} }

func (r *DetachedRunner) shape(name string) *regionShape {
	if v, ok := r.shapes.Load(name); ok {
		return v.(*regionShape)
	}
	v, _ := r.shapes.LoadOrStore(name, &regionShape{syms: store.NewSymbols()})
	return v.(*regionShape)
}

// Run executes one sampling-process attempt of the given region and returns
// its externalized outcome. exposed is the @load state the sample reads
// (typically a decoded snapshot; nil means an empty store). Run is safe for
// concurrent use; concurrent samples of one region share the shape pool.
//
// Run never panics for body-level failures: prunes, contained panics, and
// Sync-in-detached-body all come back as ExecResult flags.
func (r *DetachedRunner) Run(ctx context.Context, spec RegionSpec, body func(sp *SP) error,
	task SampleTask, exposed *store.Exposed) ExecResult {
	spec, err := spec.withDefaults()
	if err != nil {
		return ExecResult{Err: err.Error()}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if exposed == nil {
		exposed = store.NewExposed()
	}
	sh := r.shape(spec.Name)
	sampler := spec.Strategy.Sampler(task.Seed, task.Group, task.N, task.Feedback)
	rs := &regionState{
		spec:    spec,
		seed:    task.Seed,
		n:       task.N,
		k:       1,
		shape:   sh,
		syms:    sh.syms,
		exposed: exposed,
		det:     &detachedState{},
		ctx:     ctx,
	}
	sp := rs.newSP(task.Group, 0, task.Attempt, nil, sampler, ctx)
	bodyErr := rs.invokeBody(sp, body) // nothing abandons a detached attempt

	res := ExecResult{
		Pruned:      sp.pruned,
		Panicked:    rs.det.panicked,
		Unsupported: rs.det.noSync,
		Scored:      sp.scored,
		Score:       sp.score,
		WorkMilli:   rs.det.workMilli.Load(),
	}
	if bodyErr != nil {
		res.Err = bodyErr.Error()
		res.Retryable = IsRetryable(bodyErr)
	}
	if bodyErr == nil && !sp.pruned && !res.Unsupported {
		res.Params = make([]ParamKV, 0, len(sp.porder))
		for _, id := range sp.porder {
			res.Params = append(res.Params, ParamKV{Name: rs.syms.Name(id), Value: sp.pvals[id]})
		}
		res.Commits = make([]CommitKV, 0, len(sp.corder))
		for _, id := range sp.corder {
			res.Commits = append(res.Commits, CommitKV{Name: rs.syms.Name(id), Value: sp.cvals[id]})
		}
	}
	rs.recycleSP(sp)
	if rec, ok := sampler.(strategy.Recycler); ok {
		rec.Recycle()
	}
	return res
}
