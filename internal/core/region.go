package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/checkpoint"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/strategy"
)

// RegionSpec describes one sampling code region — the pair of @sampling and
// @aggregate calls plus everything the paper configures on them.
type RegionSpec struct {
	// Name identifies the region. Feedback-driven strategies (MCMC) and
	// auto-tuned sampling accumulate knowledge per region name, so reusing
	// a name across Region calls deliberately shares feedback.
	Name string
	// Samples is the number of sampling processes to spawn. Zero enables
	// auto-tuned sampling (Sec. IV-D): the runtime starts at AutoStart and
	// doubles until the best score stops improving; this requires Score.
	Samples int
	// AutoStart is the initial sample count for auto-tuned sampling.
	// Zero means 8.
	AutoStart int
	// MaxSamples caps auto-tuned sampling. Zero means 512.
	MaxSamples int
	// RelEps is the minimum relative score improvement that keeps
	// auto-tuned sampling doubling. Zero means 1e-3.
	RelEps float64
	// Strategy is the sampling strategy. Nil means strategy.Rand().
	Strategy strategy.Strategy
	// Aggregate maps sample result variables to built-in aggregation
	// strategies; their aggregates are available from Result.Aggregated.
	// Variables not listed (or listed as agg.Custom) are only collected
	// into the aggregation store for custom aggregation by the caller.
	Aggregate map[string]agg.Kind
	// Score, if set, scores one finished sampling process; it feeds
	// feedback-driven strategies, auto-tuned sampling, and Result.Best*.
	Score func(sp *SP) float64
	// Minimize declares the score direction (default: higher is better).
	Minimize bool
	// CV enables k-fold cross-validation (Sec. IV-A) when >= 2: each
	// sample becomes a sampling-and-validation group of CV processes that
	// share drawn parameter values but see different folds; their scores
	// are averaged. Commits are retained from fold 0 only.
	CV int
}

func (s RegionSpec) withDefaults() (RegionSpec, error) {
	if s.Name == "" {
		return s, errors.New("core: RegionSpec.Name is required")
	}
	if s.Samples < 0 {
		return s, fmt.Errorf("core: region %q: negative Samples", s.Name)
	}
	if s.Samples == 0 && s.Score == nil {
		return s, fmt.Errorf("core: region %q: auto-tuned sampling requires Score", s.Name)
	}
	if s.CV < 0 || s.CV == 1 {
		return s, fmt.Errorf("core: region %q: CV must be 0 or >= 2", s.Name)
	}
	if s.CV > 1 && s.Score == nil {
		return s, fmt.Errorf("core: region %q: cross-validation requires Score", s.Name)
	}
	if s.AutoStart == 0 {
		s.AutoStart = 8
	}
	if s.MaxSamples == 0 {
		s.MaxSamples = 512
	}
	if s.RelEps == 0 {
		s.RelEps = 1e-3
	}
	if s.Strategy == nil {
		s.Strategy = strategy.Rand()
	}
	for x, k := range s.Aggregate {
		if k == agg.Custom {
			continue
		}
		if _, err := agg.New(k); err != nil {
			return s, fmt.Errorf("core: region %q variable %q: %w", s.Name, x, err)
		}
	}
	return s, nil
}

// Region executes a sampling code region: it switches p into its tuning
// role, spawns the sampling processes, waits for them to commit, applies
// the built-in aggregations, and returns the aggregated view (rules
// [SAMPLING], [AGGR-S], [AGGR-T]).
//
// body runs once per sampling process, possibly concurrently; everything it
// touches must be either local to the body or safe for concurrent reads
// (e.g. the immutable inputs of the stage). Sample-level panics are
// contained and reported per sample; Region itself fails only for spec
// errors or if every sampling process failed.
func (p *P) Region(spec RegionSpec, body func(sp *SP) error) (*Result, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	t := p.t
	suppress := false
	if r := t.rec; r != nil {
		suppress = r.noteEvent(p, checkpoint.EvRegion, 0, spec.Name)
	}
	if !suppress {
		t.ctr.regions.Add(1)
		if ro := t.obsv.region(spec.Name); ro != nil {
			t0 := time.Now()
			defer ro.duration.ObserveSince(t0)
		}
		t.opts.Trace.add(Event{Kind: EvRegionStart, Region: spec.Name, PID: p.pid, Sample: -1})
		defer t.opts.Trace.add(Event{Kind: EvRegionEnd, Region: spec.Name, PID: p.pid, Sample: -1})
	}

	if spec.Samples > 0 {
		return p.runRound(spec, spec.Samples, 0, body)
	}

	// Auto-tuned sampling (Sec. IV-D): double until no further improvement.
	n := spec.AutoStart
	var best *Result
	bestScore := math.NaN()
	round := 0
	for {
		res, err := p.runRound(spec, n, round, body)
		if err != nil {
			if best != nil {
				return best, nil // keep the last good round
			}
			return nil, err
		}
		round++
		score := res.BestScore()
		if best == nil || improved(score, bestScore, spec.Minimize, spec.RelEps) {
			best, bestScore = res, score
			if n >= spec.MaxSamples || t.BudgetExceeded() {
				return best, nil
			}
			n *= 2
			if n > spec.MaxSamples {
				n = spec.MaxSamples
			}
			continue
		}
		return best, nil
	}
}

// improved reports whether next is a relative improvement over prev of more
// than eps in the given direction.
func improved(next, prev float64, minimize bool, eps float64) bool {
	if math.IsNaN(next) {
		return false
	}
	if math.IsNaN(prev) {
		return true
	}
	denom := math.Max(math.Abs(prev), 1e-12)
	if minimize {
		return (prev-next)/denom > eps
	}
	return (next-prev)/denom > eps
}

// regionState is the shared state of one sampling round. A detached round
// (one sampling process run by a remote worker via DetachedRunner) uses a
// stripped-down regionState with t == nil and det set; every field the
// sample hot path touches is present in both configurations.
type regionState struct {
	t       *Tuner
	spec    RegionSpec
	seed    int64
	n       int            // sample groups
	k       int            // folds per group (1 without CV)
	shape   *regionShape   // per-region-name symbols + SP pool
	syms    *store.Symbols // == shape.syms; the region's interned names
	exposed *store.Exposed // the store SP.Load reads (the tuner's, or a shipped snapshot)
	store   *store.Agg
	incs    map[string]agg.Incremental
	shared  []*svgShared   // per-group sampler and shared draws under CV
	ro      *regionObs     // nil when observability is off
	det     *detachedState // non-nil only for detached (worker-side) runs
	fb      []strategy.Feedback
	owner   *P  // tuning process running the round; receives its feedback
	execH   any // executor round handle; non-nil routes samples to the executor

	// Per-round launch state, fixed before the first worker starts; workers
	// read them so launching a worker needs no closure allocation.
	ctx           context.Context
	body          func(sp *SP) error
	fullyLaunched context.CancelFunc // withdraws the launch loop's queued request
	wg            sync.WaitGroup

	mu         sync.Mutex
	scoreSum   []float64
	scoreCnt   []int
	arena      []pkv  // all parameter snapshots of the round, back to back
	spans      []span // per-group [offset, length) into arena
	haveParams []bool
	pruned     []bool
	errs       []error
	launched   int // pairs claimed so far == index of the next pair, group-major
	done       int
	total      int // launched target; reduced if the budget cuts the round
	barrier    *barrier
}

// span locates one group's parameter snapshot inside the round arena.
type span struct{ off, n int }

// newSP takes a sampling-process struct from the region's shape pool (or
// allocates the first time) and binds it to one attempt. Pooled SPs were
// fully reset by recycleSP, and their symbol-indexed slices are already
// sized for this region's variables from previous rounds.
func (rs *regionState) newSP(g, f, attempt int, slot *spSlot, sampler strategy.Sampler, sctx context.Context) *SP {
	sp, _ := rs.shape.pool.Get().(*SP)
	if sp == nil {
		sp = &SP{}
	}
	sp.rs = rs
	sp.group, sp.fold, sp.attempt = g, f, attempt
	sp.sampler = sampler
	sp.slot = slot
	sp.ctx = sctx
	if rs.shared != nil {
		sp.shared = rs.shared[g]
	}
	return sp
}

// recycleSP returns a finished sampling process to the shape pool. Never
// call it for an abandoned SP: the abandoned body goroutine may still be
// running and touching the struct.
func (rs *regionState) recycleSP(sp *SP) {
	sp.reset()
	rs.shape.pool.Put(sp)
}

// runRound executes one sampling round of n sample groups.
func (p *P) runRound(spec RegionSpec, n, round int, body func(sp *SP) error) (*Result, error) {
	t := p.t
	rec := t.rec
	ro := t.obsv.region(spec.Name)
	k := spec.CV
	if k < 2 {
		k = 1
	}
	// The incremental aggregators are built before anything else: agg.New is
	// the only fallible step of round setup, and on the recorded path it
	// must precede round admission so a spec error can never leak an
	// in-flight registration in the quiesce gate.
	incs := make(map[string]agg.Incremental)
	for x, kind := range spec.Aggregate {
		if kind == agg.Custom {
			continue
		}
		a, err := agg.New(kind)
		if err != nil {
			return nil, err
		}
		incs[x] = a
	}
	if rec == nil {
		t.ctr.rounds.Add(1)
		if ro != nil {
			ro.rounds.Inc()
		}
		t.opts.Trace.add(Event{Kind: EvRoundStart, Region: spec.Name, PID: p.pid, Round: round, Sample: -1, N: n})
	}

	// The tuning process pauses for the duration of the region (execution
	// model step 4): it hands its pool slot back so its sampling processes
	// can use it — Algorithm 1 adjusts poolSize around wait() the same way.
	t.release()
	defer t.acquire(sched.SpawnT, 0)

	var recSeq uint64
	if rec != nil {
		// Round admission through the quiesce gate (after the slot release
		// above — a pending checkpoint may block here until in-flight rounds
		// drain, and those rounds need the slot). A journaled round is
		// satisfied from the replay path without sampling anything.
		rep, seq, err := rec.enterRound(p, spec.Name, round, n, k)
		if err != nil {
			return nil, err
		}
		if rep != nil {
			return rec.replayRound(p, &spec, rep)
		}
		recSeq = seq
		t.ctr.rounds.Add(1)
		if ro != nil {
			ro.rounds.Inc()
		}
		t.opts.Trace.add(Event{Kind: EvRoundStart, Region: spec.Name, PID: p.pid, Round: round, Sample: -1, N: n})
	}

	// The region context carries the whole-round budget (FaultPolicy) on top
	// of the tuning process's own context; every per-sample deadline derives
	// from it, so cancelling either level drains the round.
	ctx := p.Context()
	if fp := t.opts.Fault; fp.RegionBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, fp.RegionBudget)
		defer cancel()
	}

	shape := t.shape(spec.Name)
	rs := &regionState{
		t:          t,
		spec:       spec,
		seed:       t.regionSeed(spec.Name, round),
		n:          n,
		k:          k,
		shape:      shape,
		syms:       shape.syms,
		ro:         ro,
		store:      store.NewAgg(),
		incs:       incs,
		scoreSum:   make([]float64, n),
		scoreCnt:   make([]int, n),
		spans:      make([]span, n),
		haveParams: make([]bool, n),
		pruned:     make([]bool, n),
		errs:       make([]error, n),
		total:      n * k,
	}
	rs.exposed = t.exposed
	rs.ctx = ctx
	rs.body = body
	if k > 1 {
		rs.shared = make([]*svgShared, n) // filled at each group's first claim
	}
	rs.barrier = newBarrier(rs)

	fb := p.feedbackFor(spec.Name, spec.Minimize)
	rs.fb = fb
	rs.owner = p

	// Route the round through the configured executor when possible.
	// Cross-validation groups share draws fold-to-fold, so they stay local;
	// a region the executor declined once (BeginRound error, or a body that
	// turned out to use Sync) is skipped for the rest of the run.
	if ex := t.opts.Executor; ex != nil && k == 1 {
		if _, skip := t.execSkip.Load(spec.Name); !skip {
			h, err := ex.BeginRound(RoundTask{
				Job:      t.jobID,
				Region:   spec.Name,
				Seed:     rs.seed,
				Round:    round,
				N:        n,
				Feedback: fb,
				Spec:     spec,
				Body:     body,
				Exposed:  t.exposed,
			})
			if err != nil {
				t.execSkip.Store(spec.Name, struct{}{})
			} else {
				rs.execH = h
				defer ex.EndRound(h)
			}
		}
	}

	// Launch (DESIGN §8): every slot the round is admitted becomes one worker,
	// which runs sample after sample on it for as long as Algorithm 1 lets it
	// renew the admission. This loop keeps asking for one slot more while
	// pairs remain, so the round widens whenever the pool has room — after a
	// body handed its slot back at a Sync barrier, after an abandoned attempt
	// released its own, or when another job's share shrinks.
	//
	// Whoever claims the round's last pair withdraws the request this loop has
	// queued (fullyLaunched), before any worker can find the round exhausted
	// and release: the slots a finished round frees go to requests that have
	// a process to run.
	lctx, fullyLaunched := context.WithCancel(ctx)
	defer fullyLaunched()
	rs.fullyLaunched = fullyLaunched
	for {
		todo, more := rs.unlaunched()
		if !more {
			break
		}
		if err := t.acquireCtx(lctx, sched.SpawnS, todo); err != nil {
			rs.cut(err)
			break
		}
		g, f, ok := rs.claim(false)
		if !ok {
			t.release() // admitted in the instant the last pair was claimed
			break
		}
		rs.wg.Add(1)
		go rs.worker(g, f)
	}
	rs.wg.Wait()

	res, ferr := rs.finish()
	if rec != nil {
		rec.exitRound(p, recSeq, round, rs, res)
		rec.maybeAuto()
	}
	return res, ferr
}

// unlaunched reports whether the round still has (group, fold) pairs nobody
// has claimed, and Algorithm 1's todo for the next one: the sample groups
// remaining, counting the one the pair belongs to.
func (rs *regionState) unlaunched() (todo int, more bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.n - rs.launched/rs.k, rs.launched < rs.total
}

// claim hands its caller the round's next un-launched (group, fold) pair to
// run on the pool slot the caller holds. The launch loop claims with a slot
// it just acquired; a worker claims with renew set, asking the scheduler to
// let it keep the slot its finished sample ran on — the admission is renewed
// under rs.mu so that it is counted exactly when a pair is there to use it.
// ok is false when every pair is claimed, the round was cut, or the renewal
// was declined; the caller then releases its slot.
//
// Claiming the last fold of a group also decides whether the next group may
// launch at all: once the work budget is spent the remaining groups are
// pruned. Deciding it here, after the claim, keeps the rule that a region
// always launches at least one group — a tight budget yields a cheap result
// instead of none.
func (rs *regionState) claim(renew bool) (g, f int, ok bool) {
	rs.mu.Lock()
	if rs.launched == rs.total {
		rs.mu.Unlock()
		return 0, 0, false
	}
	g, f = rs.launched/rs.k, rs.launched%rs.k
	if renew {
		if err := rs.ctx.Err(); err != nil {
			// What the launch loop's acquire reports for an expired region
			// budget, seen first by a worker.
			rs.cutLocked(err)
			rs.mu.Unlock()
			rs.barrier.maybeRelease()
			return 0, 0, false
		}
		if !rs.t.renew(rs.n - g) {
			rs.mu.Unlock()
			return 0, 0, false
		}
	}
	rs.launched++
	if f == 0 && rs.shared != nil {
		// Cross-validation folds share one sampler and one set of draws.
		rs.shared[g] = &svgShared{
			sampler: rs.spec.Strategy.Sampler(rs.seed, g, rs.n, rs.fb),
			vals:    make(map[string]float64),
		}
	}
	pruned := f == rs.k-1 && g+1 < rs.n && rs.t.BudgetExceeded()
	if pruned {
		// Stop launching; un-launched groups count as pruned.
		for gg := g + 1; gg < rs.n; gg++ {
			rs.pruned[gg] = true
		}
		rs.total = rs.launched
	}
	if rs.launched == rs.total {
		rs.fullyLaunched()
	}
	rs.mu.Unlock()
	if pruned {
		rs.barrier.maybeRelease()
	}
	return g, f, true
}

// cut ends launching because the region budget (or the caller's context)
// expired: every pair not yet launched fails with the distinguished budget
// outcome, and the round aggregates over whatever the launched samples
// commit.
func (rs *regionState) cut(err error) {
	rs.mu.Lock()
	rs.cutLocked(err)
	rs.mu.Unlock()
	rs.barrier.maybeRelease()
}

func (rs *regionState) cutLocked(err error) {
	if rs.launched == rs.total {
		return // nothing left to cut: the launch loop's request was withdrawn
	}
	g, f := rs.launched/rs.k, rs.launched%rs.k
	for gg := g; gg < rs.n; gg++ {
		if rs.errs[gg] == nil && (gg > g || f == 0) {
			rs.errs[gg] = fmt.Errorf("%w: %v", ErrRegionBudget, err)
		}
	}
	rs.total = rs.launched
}

// finish assembles the Result after all sampling processes of a round are
// done, updates the memory metric, and folds the round's scored samples into
// the owner's feedback views.
func (rs *regionState) finish() (*Result, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()

	scores := make([]float64, rs.n)
	for g := 0; g < rs.n; g++ {
		if rs.scoreCnt[g] == 0 {
			scores[g] = math.NaN()
			continue
		}
		scores[g] = rs.scoreSum[g] / float64(rs.scoreCnt[g])
	}

	// Memory metric: values retained in the store and aggregator state.
	retained := int64(rs.store.Total())
	for _, a := range rs.incs {
		retained += int64(a.Retained())
	}
	rs.t.notePeakRetained(retained)

	aggregated := make(map[string]any, len(rs.incs))
	for x, a := range rs.incs {
		aggregated[x] = a.Result()
	}

	// Graceful degradation: a round with timed-out or failed samples still
	// aggregates over whatever committed; the shortfall is recorded in the
	// degradation counter and a trace event.
	failed, timeouts := 0, 0
	for g := 0; g < rs.n; g++ {
		if rs.errs[g] != nil {
			failed++
			if errors.Is(rs.errs[g], ErrSampleTimeout) || errors.Is(rs.errs[g], ErrRegionBudget) {
				timeouts++
			}
		}
	}
	if failed > 0 {
		rs.t.ctr.degraded.Add(1)
		if rs.ro != nil {
			rs.ro.degraded.Inc()
		}
		rs.t.opts.Trace.add(Event{Kind: EvRegionDegraded, Region: rs.spec.Name,
			Sample: -1, N: failed})
	}

	res := &Result{
		n:          rs.n,
		store:      rs.store,
		syms:       rs.syms,
		aggregated: aggregated,
		arena:      rs.arena,
		spans:      rs.spans,
		haveParams: rs.haveParams,
		scores:     scores,
		pruned:     rs.pruned,
		errs:       rs.errs,
		minimize:   rs.spec.Minimize,
		degraded:   failed > 0,
		timeouts:   timeouts,
	}
	// Feedback for future rounds of this region: every scored sample (one
	// that is scored also has its parameter snapshot).
	rs.owner.addFeedback(rs.spec.Name, rs.spec.Minimize, rs.n, res.Score, res.Params)

	if failed == rs.n && rs.n > 0 && !rs.t.opts.Fault.DegradeEmpty {
		return res, fmt.Errorf("core: region %q: every sampling process failed: %w",
			rs.spec.Name, errors.Join(rs.errs...))
	}
	return res, nil
}
