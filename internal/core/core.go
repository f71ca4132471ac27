// Package core implements the WBTuner runtime: the white-box program-tuning
// engine of "White-Box Program Tuning" (CGO 2019).
//
// A tuning program is ordinary Go code plus a small number of primitives:
//
//   - (*P).Region marks a sampling code region (the paper's @sampling ...
//     @aggregate pair). The body runs once per sampling process; the runtime
//     spawns the processes, throttles them through the Algorithm 1
//     scheduler, collects the committed sample results into the aggregation
//     store, and applies the region's built-in aggregation strategies.
//   - (*SP).Float / Int / Pick draw a tunable variable (@sample).
//   - (*SP).Commit submits a sample result variable (@aggregate, child side).
//   - (*SP).Check prunes a useless sample run (@check).
//   - (*SP).Sync is a mid-region barrier (@sync).
//   - (*P).Expose / Load / LoadFrom move values between the program store
//     and the exposed store (@expose, @load).
//   - (*P).Split spawns a child tuning process that continues the
//     computation with one chosen internal result (@split).
//
// The paper's runtime forks OS processes; here sampling and tuning processes
// are goroutines with isolated per-process state. See DESIGN.md for the
// substitution argument.
package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/strategy"
)

// Options configure a single-job Tuner made with New. They combine what is
// runtime-wide under the Runtime/job split (pool size, scheduler mode,
// metrics registry, fault policy, executor — see RuntimeOptions) with the
// job-scoped settings (seed, budget, incremental aggregation, trace — see
// JobOptions); New builds a private Runtime from the former and one job
// from the latter.
type Options struct {
	// MaxPool bounds the number of simultaneously live tuning + sampling
	// processes (Algorithm 1). Zero means twice the number of CPUs.
	MaxPool int
	// Seed makes every run reproducible. The zero seed is a valid seed.
	Seed int64
	// Incremental enables incremental aggregation (Sec. IV-B): sample
	// results for variables with a built-in aggregation strategy are folded
	// into the aggregate as they are committed instead of being retained
	// until the end of the region.
	Incremental bool
	// DisableScheduler turns Algorithm 1 off (every spawn is admitted
	// immediately). Used by the Fig. 10 ablation.
	DisableScheduler bool
	// Trace, when non-nil, records runtime events (region/round/sample
	// lifecycle, splits) for debugging and for rendering the tuning tree.
	Trace *Trace
	// Obs, when non-nil, receives the runtime's metrics: per-region
	// latency and sample-duration histograms, per-round sample outcome
	// counters, and scheduler admission-wait and pool-occupancy metrics.
	// Hot-path updates are atomic; with Obs nil the runtime records nothing.
	Obs *obs.Registry
	// Budget, when positive, bounds the total work units the tuner may
	// spend (Work calls accumulate against it). Once exceeded, regions stop
	// launching new sampling processes. Work units stand in for the
	// paper's wall-clock tuning budgets.
	Budget float64
	// Fault configures the fault-tolerance layer: per-sample deadlines,
	// whole-region budgets, and the retry policy. The zero value disables
	// it (finish-or-panic semantics, as in the paper).
	Fault FaultPolicy
	// Executor, when non-nil, runs sampling processes somewhere other than
	// this process (e.g. a remote worker fleet). Regions the executor
	// declines — cross-validation groups, bodies with Sync barriers,
	// unresolvable bodies — fall back to the in-process path. Nil means
	// everything runs in-process, exactly as before.
	Executor Executor
	// Checkpoint, when non-nil, turns on checkpoint recording: the job
	// journals its rounds and periodically writes a resumable checkpoint to
	// the policy store. A recorded job supports a single Run.
	Checkpoint *CheckpointPolicy
	// Resume, when non-nil, starts the job from a checkpoint: the run
	// re-executes the tuning program from the beginning with the
	// checkpoint's seed, replaying pre-checkpoint rounds from the journal
	// and sampling live from the frontier on. New panics if the checkpoint
	// cannot be resumed here (completed, already resumed, or the pool is
	// below its MinSlots floor); Runtime.ResumeJob reports those as typed
	// errors instead.
	Resume *checkpoint.State
}

// Metrics report what a tuning run did. All counters are cumulative over
// the Tuner's lifetime.
type Metrics struct {
	// Regions is the number of Region invocations.
	Regions int64
	// Rounds is the number of sampling rounds (auto-tuned sampling may run
	// several rounds per region).
	Rounds int64
	// Samples is the number of sampling-process bodies started.
	Samples int64
	// Pruned counts sampling processes terminated by Check.
	Pruned int64
	// Panics counts sampling processes that panicked and were contained.
	Panics int64
	// Timeouts counts sampling processes abandoned at a deadline or budget.
	Timeouts int64
	// Retried counts sampling-process attempts re-run after a retryable
	// failure (one per extra attempt, so two retries of one sample count 2).
	Retried int64
	// Degraded counts regions that completed with at least one timed-out or
	// failed sample — the graceful-degradation shortfall.
	Degraded int64
	// Splits counts child tuning processes spawned with Split.
	Splits int64
	// WorkUnits is the total work executed (Work calls).
	WorkUnits float64
	// WorkSerial is the work executed by tuning processes (loading,
	// preprocessing, aggregation) — the part that stays on the critical
	// path under multi-core execution.
	WorkSerial float64
	// WorkParallel is the work executed by sampling processes — the part
	// a multi-core pool divides among workers.
	WorkParallel float64
	// PeakRetained is the largest number of sample values retained
	// simultaneously by any region (aggregation-store entries plus
	// incremental-aggregator state) — the memory proxy for Fig. 10.
	PeakRetained int64
	// Scheduler reports the Algorithm 1 counters.
	Scheduler sched.Stats
}

// counters holds the Tuner's run counters. Every field is updated atomically
// so per-sample accounting never serializes the pool on a tuner-wide mutex.
// Work is accounted in integer 1/1024 units ("milli" work): integer addition
// is order-independent, so work totals are bit-identical however sample
// completions interleave — and however samples are split between the local
// pool and a remote executor.
type counters struct {
	regions, rounds, samples  atomic.Int64
	pruned, panics, timeouts  atomic.Int64
	retried, degraded, splits atomic.Int64
	peakRetained              atomic.Int64
	workSer, workPar          atomic.Int64 // milli work units
	idleLaunches              atomic.Int64 // launcher admissions runRound released unused
}

// regionShape is the per-region-name state the Tuner accumulates across
// rounds: the interned symbol table for the region's variable names and the
// recycling pool for its sampling-process structs (region bodies draw and
// commit the same variables every round, so a pooled SP's slices are already
// the right size). Feedback lives on the tuning processes, not here — see
// P.fbSeen.
type regionShape struct {
	syms       *store.Symbols
	pool       sync.Pool    // *SP
	arenaPer   atomic.Int64 // the longest parameter snapshot of the last round
	commitsPer atomic.Int64 // the most commits a group of the last round stored
}

// Tuner is one tuning job: the per-job handle carrying program structure
// (region shapes), the seed, the budget, the exposed store, and the
// feedback state, while the scheduler pool, executor, and metrics registry
// it runs on belong to its Runtime. Create a job on a shared Runtime with
// Runtime.NewJob, or a single job over a private runtime with New, and
// start the program with Run. A Tuner is safe for use by the multiple
// tuning and sampling processes it manages.
type Tuner struct {
	opts    Options
	rt      *Runtime
	sched   *sched.Scheduler // == rt's scheduler; cached for the hot path
	job     *sched.Job       // the job's admission handle (share + cap)
	jobID   uint64           // runtime-unique; namespaces executor state
	jobName string           // metric label; "" for single-job compat
	exposed *store.Exposed
	obsv    *tunerObs // nil when Options.Obs is nil
	rec     *recorder // nil unless checkpointing or resuming
	closed  atomic.Bool

	workMilli int64 // atomic; total work in 1/1024 units
	ctr       counters
	nextPID   atomic.Int64

	shapes sync.Map // region name -> *regionShape

	// execSkip marks region names the executor declined (BeginRound error or
	// an in-body Sync); their future rounds go straight to the local path.
	execSkip sync.Map // region name -> struct{}
}

// New returns a single-job Tuner over a private Runtime — the original
// one-job-per-engine surface, preserved unchanged: scheduling, seeding, and
// metric labels are identical to the pre-runtime engine. Programs that want
// several jobs over one pool use NewRuntime + Runtime.NewJob instead.
func New(opts Options) *Tuner {
	rt := NewRuntime(RuntimeOptions{
		MaxPool:          opts.MaxPool,
		DisableScheduler: opts.DisableScheduler,
		Obs:              opts.Obs,
		Fault:            opts.Fault,
		Executor:         opts.Executor,
	})
	opts.MaxPool = rt.opts.MaxPool
	if opts.Resume != nil {
		if err := rt.validateResume(opts.Resume); err != nil {
			panic("core: cannot resume checkpoint: " + err.Error())
		}
	}
	return rt.newTuner(opts, uint64(rt.nextJob.Add(1)), "", 1, 0)
}

// acquire blocks until the scheduler admits one of this job's processes.
func (t *Tuner) acquire(event sched.Event, todo int) {
	t.sched.AcquireJob(event, todo, t.job)
}

// release returns one of this job's pool slots.
func (t *Tuner) release() {
	t.sched.ReleaseJob(t.job)
}

// shape returns the per-region-name state, creating it on first use.
func (t *Tuner) shape(name string) *regionShape {
	if v, ok := t.shapes.Load(name); ok {
		return v.(*regionShape)
	}
	v, _ := t.shapes.LoadOrStore(name, &regionShape{syms: store.NewSymbols()})
	return v.(*regionShape)
}

// Run executes the tuning program fn as the root tuning process and waits
// for it and every split-off tuning process to finish. It returns the
// joined errors of the whole process tree.
func (t *Tuner) Run(fn func(p *P) error) error {
	return t.RunContext(context.Background(), fn)
}

// RunContext is Run under a caller-supplied context. Cancelling ctx cancels
// every region budget and per-sample deadline derived from it: in-flight
// samples are abandoned as timeouts, queued admissions unblock, and the
// process tree drains instead of wedging. ctx == nil means Background.
func (t *Tuner) RunContext(ctx context.Context, fn func(p *P) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if t.rec != nil && !t.rec.runOnce.CompareAndSwap(false, true) {
		// The journal keys rounds by split path; a second Run would collide
		// with the first's paths and corrupt the history.
		return errors.New("core: checkpoint recording supports a single Run per job")
	}
	t.acquire(sched.SpawnT, 0)
	defer t.release()
	p := t.newP(ctx)
	if t.rec != nil {
		p.path = "0"
		t.rec.runCtx = ctx
	}
	err := errors.Join(fn(p), p.Wait())
	if t.rec != nil {
		err = errors.Join(err, t.rec.divergence())
		if err == nil && t.rec.policy.Store != nil {
			// Mark the checkpoint complete so a restart does not replay a
			// finished job. Like auto-checkpoints, a failed write is soft:
			// the run's result is already in hand.
			if werr := t.rec.writeCheckpoint(true); werr != nil {
				t.rec.saveMu.Lock()
				t.rec.saveErr = werr
				t.rec.saveMu.Unlock()
				t.obsv.noteCheckpointError()
			}
		}
	}
	return err
}

func (t *Tuner) newP(ctx context.Context) *P {
	return &P{t: t, pid: t.nextPID.Add(1), ctx: ctx, fbSeen: map[string]fbView{}, fbNew: map[string]fbView{}}
}

// AddWork accounts units of computation against the budget; unattributed
// work counts as serial.
func (t *Tuner) AddWork(units float64) { t.addWork(units, false) }

func (t *Tuner) addWork(units float64, parallel bool) {
	if units < 0 {
		panic("core: negative work")
	}
	t.addWorkMilli(int64(units*1024), parallel)
}

// addWorkMilli accounts work already quantized to 1/1024 units. Detached
// sampling processes (remote workers) quantize per Work call with the same
// conversion and ship the per-attempt sum, so a distributed run's totals
// equal the in-process run's bit for bit.
func (t *Tuner) addWorkMilli(milli int64, parallel bool) {
	if milli == 0 {
		return
	}
	atomic.AddInt64(&t.workMilli, milli)
	if parallel {
		t.ctr.workPar.Add(milli)
	} else {
		t.ctr.workSer.Add(milli)
	}
}

// WorkUsed reports the total work executed so far.
func (t *Tuner) WorkUsed() float64 {
	return float64(atomic.LoadInt64(&t.workMilli)) / 1024
}

// BudgetExceeded reports whether the configured work budget is spent.
// It is always false when no budget was configured.
func (t *Tuner) BudgetExceeded() bool {
	return t.opts.Budget > 0 && t.WorkUsed() >= t.opts.Budget
}

// Metrics returns a snapshot of the run counters.
func (t *Tuner) Metrics() Metrics {
	return Metrics{
		Regions:      t.ctr.regions.Load(),
		Rounds:       t.ctr.rounds.Load(),
		Samples:      t.ctr.samples.Load(),
		Pruned:       t.ctr.pruned.Load(),
		Panics:       t.ctr.panics.Load(),
		Timeouts:     t.ctr.timeouts.Load(),
		Retried:      t.ctr.retried.Load(),
		Degraded:     t.ctr.degraded.Load(),
		Splits:       t.ctr.splits.Load(),
		WorkUnits:    t.WorkUsed(),
		WorkSerial:   float64(t.ctr.workSer.Load()) / 1024,
		WorkParallel: float64(t.ctr.workPar.Load()) / 1024,
		PeakRetained: t.ctr.peakRetained.Load(),
		Scheduler:    t.sched.Stats(),
	}
}

// maxFeedback bounds how much per-region feedback a strategy is handed, and
// with it what a tuning process retains per region name.
const maxFeedback = 64

func (t *Tuner) notePeakRetained(v int64) {
	for {
		p := t.ctr.peakRetained.Load()
		if v <= p || t.ctr.peakRetained.CompareAndSwap(p, v) {
			return
		}
	}
}

// regionSeed derives a deterministic seed for a named region round.
func (t *Tuner) regionSeed(name string, round int) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(dist.Mix(uint64(t.opts.Seed), h.Sum64()+uint64(round)))
}

// P is a tuning process: the manager of a pool of sampling processes
// (mode T⟨pid⟩ in the semantics). The root P is created by Run; further
// tuning processes come from Split.
type P struct {
	t   *Tuner
	pid int64
	ctx context.Context

	wg      sync.WaitGroup
	pending int64 // atomic; split children not yet finished
	errM    sync.Mutex
	errs    []error

	// Feedback visibility follows the split/wait causal order, so which
	// samples a feedback-driven strategy learns from is a function of the
	// program's structure, never of goroutine or remote-worker scheduling —
	// the property that keeps distributed runs bit-identical to local ones.
	// fbSeen is the feedback this process can see: the parent's view
	// snapshotted at the split point, plus everything its own completed
	// rounds produced or Wait merged back from children. fbNew is the subset
	// created under this process, handed to the parent when it Waits.
	// Both are touched only from the process's own logical thread (Split
	// snapshots before the child goroutine starts, Wait merges after the
	// children are done), so they need no lock. Each holds one bounded
	// fbView per region name, not the history: see fbView.
	fbSeen   map[string]fbView
	fbNew    map[string]fbView
	children []*P // split order; fixes the Wait merge order

	// Checkpoint identity (set only when the job records). path names this
	// tuning process by its position in the split tree ("0", "0.1", ...);
	// unlike pid, it is identical across a record and its replay, so it keys
	// the journal. nsplit counts this process's splits — children is pruned
	// by Wait, so it cannot supply the next child ordinal.
	path   string
	nsplit int
}

// fbView is the part of a feedback history a strategy can ever be handed:
// its best maxFeedback entries, best first, ties in arrival order — equal to
// strategy.SortBestFirst(history)[:maxFeedback], and kept so by insert without
// the history (DESIGN.md §9 has the argument). A fold writes fb's array in
// place only while the view owns it; a split child, an executor's round task
// and an abandoned body may alias it, so wherever fb escapes the round's own
// samplers, owned is cleared and the next fold copies.
type fbView struct {
	fb       []strategy.Feedback
	minimize bool // the direction fb is ordered under
	owned    bool // fb's array is the view's alone, with room for maxFeedback entries
}

// toward returns v ordered for the given direction. A region name reused
// with the opposite Minimize re-sorts what is retained, in a copy; the entries
// the old direction had already dropped are gone.
func (v fbView) toward(minimize bool) fbView {
	if v.minimize != minimize {
		v.fb, v.minimize, v.owned = append(make([]strategy.Feedback, 0, maxFeedback), v.fb...), minimize, true
		strategy.SortBestFirst(v.fb, minimize)
	}
	return v
}

// own makes v's array its own before a fold writes it.
func (v *fbView) own() {
	if !v.owned {
		v.fb, v.owned = append(make([]strategy.Feedback, 0, maxFeedback), v.fb...), true
	}
}

// slot returns the index an entry with this score would take — behind
// every retained entry that is at least as good — or maxFeedback if a full
// view has no room for it. Scores are never NaN here.
func (v fbView) slot(score float64) int {
	i := len(v.fb)
	for i > 0 && (v.minimize && score < v.fb[i-1].Score || !v.minimize && score > v.fb[i-1].Score) {
		i--
	}
	return i
}

// insert puts e at index i, its slot, dropping the worst entry of a full
// view. v must own its array (own).
func (v *fbView) insert(i int, e strategy.Feedback) {
	if i == maxFeedback {
		return
	}
	if len(v.fb) < maxFeedback {
		v.fb = append(v.fb, e)
	}
	copy(v.fb[i+1:], v.fb[i:])
	v.fb[i] = e
}

// feedbackFor returns the feedback visible to this tuning process for a
// region name, best first, at most maxFeedback entries. The slice is shared:
// callers must not modify it, and the process's next fold may write it in
// place unless a caller that keeps it calls shareFeedback.
func (p *P) feedbackFor(name string, minimize bool) []strategy.Feedback {
	return p.fbSeen[name].toward(minimize).fb
}

// shareFeedback marks p's view of a region name as escaped beyond the round's
// own samplers: the next fold copies it instead of writing it in place.
func (p *P) shareFeedback(name string) {
	if v, ok := p.fbSeen[name]; ok && v.owned {
		v.owned = false
		p.fbSeen[name] = v
	}
}

// addFeedback folds n candidate entries, in arrival order, into both of p's
// views of a region name: the samples of one completed round, or what a
// finished child created. score(i) is candidate i's score, NaN for one that
// yields no feedback; params(i) builds its configuration and is called only
// for a candidate that enters a view.
func (p *P) addFeedback(name string, minimize bool, n int, score func(i int) float64, params func(i int) map[string]float64) {
	seen, created := p.fbSeen[name].toward(minimize), p.fbNew[name].toward(minimize)
	changed := false
	for i := 0; i < n; i++ {
		s := score(i)
		si, ci := seen.slot(s), created.slot(s)
		if math.IsNaN(s) || si == maxFeedback && ci == maxFeedback {
			continue
		}
		if !changed {
			seen.own()
			created.own()
			changed = true
		}
		e := strategy.Feedback{Params: params(i), Score: s}
		seen.insert(si, e)
		created.insert(ci, e)
	}
	if changed {
		p.fbSeen[name], p.fbNew[name] = seen, created
	}
}

// Tuner returns the engine this process belongs to.
func (p *P) Tuner() *Tuner { return p.t }

// PID returns the tuning process id (unique within the Tuner).
func (p *P) PID() int64 { return p.pid }

// Context returns the context this tuning process runs under (the RunContext
// context, inherited across Split). Region budgets derive from it.
func (p *P) Context() context.Context {
	if p.ctx == nil {
		return context.Background()
	}
	return p.ctx
}

// globalScope is the exposed-store scope used by the unqualified
// Expose/Load pair.
const globalScope = "global"

// Expose writes a value to the exposed store under the global scope
// (rule [EXPOSE]); callbacks and later stages read it back with Load.
func (p *P) Expose(name string, v any) { p.t.exposed.Set(globalScope, name, v) }

// ExposeIn writes a value to the exposed store under an explicit scope,
// mirroring the paper's name+scope encoding for same-named locals.
func (p *P) ExposeIn(scope, name string, v any) { p.t.exposed.Set(scope, name, v) }

// Load reads an exposed global-scope variable (rule [LOAD]). It panics if
// the variable was never exposed — always a tuning-program bug.
func (p *P) Load(name string) any { return p.t.exposed.MustGet(globalScope, name) }

// LoadFrom reads an exposed variable from an explicit scope.
func (p *P) LoadFrom(scope, name string) any { return p.t.exposed.MustGet(scope, name) }

// Work accounts units of computation performed by this tuning process.
func (p *P) Work(units float64) {
	if r := p.t.rec; r != nil {
		if r.noteEvent(p, checkpoint.EvWork, math.Float64bits(units), "") {
			return // replayed: the restored totals already include this work
		}
	}
	p.t.AddWork(units)
}

// Split spawns a child tuning process (rule [SPLIT]). fn is the
// continuation of the computation — everything the child should do after
// the split point. The child inherits access to the exposed store but gets
// a fresh aggregation context (the semantics gives the child an empty
// sample store). Split returns immediately; Wait collects the child's
// error.
func (p *P) Split(fn func(child *P) error) {
	suppress := false
	if r := p.t.rec; r != nil {
		suppress = r.noteEvent(p, checkpoint.EvSplit, uint64(p.nsplit), "")
	}
	if !suppress {
		p.t.ctr.splits.Add(1)
		p.t.obsv.noteSplit()
		p.t.opts.Trace.add(Event{Kind: EvSplit, PID: p.pid, Sample: -1})
	}
	// The child and its feedback view are fixed here, at the split point in
	// the parent's own thread — not when the goroutine gets scheduled — so
	// what the child can see never depends on timing.
	child := p.t.newP(p.ctx)
	if p.t.rec != nil {
		child.path = p.path + "." + strconv.Itoa(p.nsplit)
		p.nsplit++
	}
	// The child starts from the parent's views and shares their arrays: from
	// here on, neither folds into them in place.
	for name, v := range p.fbSeen {
		v.owned = false
		p.fbSeen[name] = v
	}
	child.fbSeen = maps.Clone(p.fbSeen)
	p.children = append(p.children, child)
	p.wg.Add(1)
	atomic.AddInt64(&p.pending, 1)
	go func() {
		defer p.wg.Done()
		defer atomic.AddInt64(&p.pending, -1)
		p.t.acquire(sched.SpawnT, 0)
		defer p.t.release()
		err := fn(child)
		if werr := child.Wait(); werr != nil {
			err = errors.Join(err, werr)
		}
		if err != nil {
			p.errM.Lock()
			p.errs = append(p.errs, fmt.Errorf("split child %d: %w", child.pid, err))
			p.errM.Unlock()
		}
	}()
}

// Wait blocks until every tuning process split off from p has finished and
// returns their joined errors. While blocked, p hands its pool slot back so
// descendants can be admitted (deep split chains would otherwise deadlock
// on small pools).
func (p *P) Wait() error {
	if atomic.LoadInt64(&p.pending) > 0 {
		p.t.release()
		p.wg.Wait()
		p.t.acquire(sched.SpawnT, 0)
	} else {
		p.wg.Wait()
	}
	// Children are done (wg.Wait synchronizes with their goroutines): merge
	// the feedback they created into this process's views, in split order, so
	// the merged views are the same no matter which child finished first.
	for _, c := range p.children {
		for name, v := range c.fbNew {
			p.addFeedback(name, v.minimize, len(v.fb),
				func(i int) float64 { return v.fb[i].Score },
				func(i int) map[string]float64 { return v.fb[i].Params })
		}
	}
	p.children = nil
	p.errM.Lock()
	defer p.errM.Unlock()
	err := errors.Join(p.errs...)
	p.errs = nil
	return err
}
