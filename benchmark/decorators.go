package main

import (
	"context"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/store"
)

// The traced run measures layers from outside: these decorators sit on the
// program's public interfaces and record a span around every call through
// them. The untraced run does not install them.

// fleetExecutor is everything the runtime may discover on an executor by
// type assertion. The decorator forwards all of it, so wrapping a fleet does
// not silently turn off elastic capacity tracking, snapshot priming on
// resume, or the end-job frame.
type fleetExecutor interface {
	core.ElasticExecutor
	core.SnapshotPrimer
	core.JobEnder
}

// tracedExecutor records remote.* spans around an executor. The workload
// sets op and parent before each region; jobs run one at a time, so one
// current value is enough.
type tracedExecutor struct {
	inner  fleetExecutor
	rec    *recorder
	op     atomic.Uint64
	parent atomic.Uint64 // span of the region now running
	root   atomic.Uint64 // span of the job now running; parent of end_job
	// exec[g] is the open Execute span of sample group g, so the body the
	// worker runs for g can name its cause.
	exec []atomic.Uint64
}

func newTracedExecutor(inner fleetExecutor, rec *recorder, maxGroups int) *tracedExecutor {
	return &tracedExecutor{inner: inner, rec: rec, exec: make([]atomic.Uint64, maxGroups)}
}

func (t *tracedExecutor) BeginRound(r core.RoundTask) (any, error) {
	s := t.rec.start("remote.begin_round", t.op.Load(), t.parent.Load())
	h, err := t.inner.BeginRound(r)
	t.rec.finish(s)
	return h, err
}

func (t *tracedExecutor) Execute(ctx context.Context, h any, group, attempt int) (core.ExecResult, error) {
	s := t.rec.start("remote.execute", t.op.Load(), t.parent.Load())
	if group < len(t.exec) {
		t.exec[group].Store(s.ID)
	}
	res, err := t.inner.Execute(ctx, h, group, attempt)
	t.rec.finish(s)
	return res, err
}

func (t *tracedExecutor) EndRound(h any) {
	s := t.rec.start("remote.end_round", t.op.Load(), t.parent.Load())
	t.inner.EndRound(h)
	t.rec.finish(s)
}

func (t *tracedExecutor) EndJob(job uint64) {
	s := t.rec.start("remote.end_job", t.op.Load(), t.root.Load())
	t.inner.EndJob(job)
	t.rec.finish(s)
}

func (t *tracedExecutor) Capacity() int                   { return t.inner.Capacity() }
func (t *tracedExecutor) WatchCapacity(f func(delta int)) { t.inner.WatchCapacity(f) }
func (t *tracedExecutor) PrimeSnapshot(job uint64, e *store.Exposed) error {
	return t.inner.PrimeSnapshot(job, e)
}

// durableStore is a checkpoint store a jobs manager gets full recovery and
// clean-up from.
type durableStore interface {
	checkpoint.Store
	checkpoint.Lister
	checkpoint.Deleter
}

// tracedStore reports every Save and Delete, with its interval on the
// recorder clock, to the workload, which knows which job a label belongs to.
type tracedStore struct {
	inner   durableStore
	rec     *recorder
	saved   func(label string, start, end int64)
	deleted func(label string, at int64)
	errors  atomic.Int64 // Saves that failed
}

func (t *tracedStore) Save(label string, data []byte) error {
	start := t.rec.now()
	err := t.inner.Save(label, data)
	if err != nil {
		t.errors.Add(1)
	}
	t.saved(label, start, t.rec.now())
	return err
}

func (t *tracedStore) Load(label string) ([]byte, error) { return t.inner.Load(label) }
func (t *tracedStore) List() ([]string, error)           { return t.inner.List() }

func (t *tracedStore) Delete(label string) error {
	err := t.inner.Delete(label)
	t.deleted(label, t.rec.now())
	return err
}

// labelJob splits a manager store label ("spec-<job>", "ckpt-<job>").
func labelJob(label string) (kind, job string) {
	kind, job, _ = strings.Cut(label, "-")
	return kind, job
}

// tracedRegion runs one sampling region. Traced, it records a core.region
// span and, as its child, a body.samples span: the bodies' summed wall time
// divided by the procs they ran on, which is their part of the region's
// blocking path. Per-sample spans would cost more than a 3 µs sample.
func tracedRegion(rec *recorder, op, parent uint64, procs int, p *core.P, spec core.RegionSpec, body func(*core.SP) error) (*core.Result, error) {
	if rec == nil {
		return p.Region(spec, body)
	}
	var busy atomic.Int64
	s := rec.start("core.region", op, parent)
	res, err := p.Region(spec, func(sp *core.SP) error {
		t0 := time.Now()
		err := body(sp)
		busy.Add(int64(time.Since(t0)))
		return err
	})
	rec.finish(s)
	rec.add("body.samples", op, s.ID, s.Start, s.Start+busy.Load()/int64(procs))
	return res, err
}

// firstBody notes how long after since the first sampling body of an
// operation started: the runtime's New-to-first-body set-up cost.
type firstBody struct {
	since time.Time
	ns    atomic.Int64 // 0 until a body ran
}

func (f *firstBody) mark() {
	if f.ns.Load() == 0 {
		f.ns.CompareAndSwap(0, int64(time.Since(f.since)))
	}
}
