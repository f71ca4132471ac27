package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/checkpoint"
	"repro/internal/obs"
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
	// Fixed before the first worker starts and only read after it: every
	// sample reads them, and workers read them so launching a worker needs
	// no closure allocation.
	t       *Tuner
	spec    RegionSpec
	seed    int64
	n       int               // sample groups
	k       int               // folds per group (1 without CV)
	shape   *regionShape      // per-region-name symbols + SP pool
	syms    *store.Symbols    // == shape.syms; the region's interned names
	exposed *store.Exposed    // the store SP.Load reads (the tuner's, or a shipped snapshot)
	incs    []agg.Incremental // by symbol ID; nil where no built-in aggregator folds the name
	shared  []*svgShared      // per-group sampler and shared draws under CV
	ro      *regionObs        // nil when observability is off
	det     *detachedState    // non-nil only for detached (worker-side) runs
	fb      []strategy.Feedback
	owner   *P  // tuning process running the round; receives its feedback
	execH   any // executor round handle; non-nil routes samples to the executor
	barrier *barrier
	ctx     context.Context
	body    func(sp *SP) error
	// watched: the round's context can end or it has a per-sample deadline,
	// so its workers list their slots for the round's watcher, which abandons
	// running attempts when the context ends (watch) or a deadline passes
	// (expire, on the round's one timer).
	watched bool
	timeout time.Duration // FaultPolicy.SampleTimeout; 0 for none

	// Every chunk writes the lines below, under mu or on the timer, and no
	// line of the tuner or the scheduler (DESIGN §8): the pad keeps those
	// writes off the lines the fields above share, whatever the alignment.
	_ [56]byte

	mu sync.Mutex
	// todo mirrors Algorithm 1's todo for the next pair, n - launched/k: it is
	// written at each claim and read without mu by every pair a chunk renews.
	todo   atomic.Int64
	synced bool // a body reached Sync: claims take one pair from now on
	// What every chunk writes under mu, together: the claim cursor, the
	// arenas, and the counts finish folds into the tuner's and the
	// scheduler's.
	launched          int // pairs claimed so far == index of the next pair, group-major
	done              int
	attempts, renewed int64
	outcomes          [3]int64
	narena            int         // the arena's header changes only when it grows
	total             int         // launched target; reduced if the budget cuts the round
	lost              bool        // an attempt was abandoned: its body may still read fb
	arena             []pkv       // all parameter snapshots of the round, back to back
	commits           []commitVal // all stored commits of the round, back to back
	groups            []group
	slots             []*spSlot // a watched round's workers' slots, for its watcher
	durs              obs.Tally

	launch sched.Request // the launch loop's; withdrawn by the last claim
	wg     sync.WaitGroup
	timer  deadlineTimer
}

// group is one sample group's outcome in a round, and in its Result.
type group struct {
	scoreSum   float64
	scoreCnt   int32
	params     span // its parameter snapshot in the round's arena
	commits    span // its stored commits in the round's commit arena
	haveParams bool
	pruned     bool
	err        error
}

// score is the group's score, averaged over its scored folds, or NaN.
func (g *group) score() float64 {
	if g.scoreCnt == 0 {
		return math.NaN()
	}
	return g.scoreSum / float64(g.scoreCnt)
}

// span locates one group's entries inside an arena.
type span struct{ off, n int32 }

// newSP takes a sampling-process struct from the region's shape pool (or
// allocates the first time) and binds it to one attempt. Pooled SPs were
// reset by recycleSP, and their symbol-indexed slices are already sized for
// this region's variables from previous rounds.
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
// call it for an abandoned SP: its body may still be running and the
// watcher may still be reading it.
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
	// in-flight registration in the quiesce gate. A commit finds its
	// aggregator by symbol ID, without hashing its name.
	shape := t.shape(spec.Name)
	var incs []agg.Incremental
	for x, kind := range spec.Aggregate {
		if kind == agg.Custom {
			continue
		}
		a, err := agg.New(kind)
		if err != nil {
			return nil, err
		}
		id := int(shape.syms.Intern(x))
		if id >= len(incs) {
			incs = slices.Grow(incs, id+1-len(incs))[:id+1]
		}
		incs[id] = a
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

	// The arenas are sized for what last round's samples drew and stored: a
	// round that stores nothing allocates no commit arena.
	rs := &regionState{
		t:       t,
		spec:    spec,
		seed:    t.regionSeed(spec.Name, round),
		n:       n,
		k:       k,
		shape:   shape,
		syms:    shape.syms,
		ro:      ro,
		incs:    incs,
		arena:   make([]pkv, 0, int(shape.arenaPer.Load())*n),
		commits: make([]commitVal, 0, int(shape.commitsPer.Load())*n),
		groups:  make([]group, n),
		total:   n * k,
	}
	rs.exposed = t.exposed
	rs.ctx = ctx
	rs.body = body
	rs.timeout = t.opts.Fault.SampleTimeout
	if ro != nil {
		rs.durs = ro.sampleDur.Tally()
	}
	if k > 1 {
		rs.shared = make([]*svgShared, n) // filled at each group's first claim
	}
	rs.barrier = newBarrier(rs)

	fb := p.feedbackFor(spec.Name, spec.Minimize)
	rs.fb = fb
	rs.owner = p
	var fbHash uint64
	if rec != nil {
		fbHash = feedbackHash(fb) // finish may fold into fb's array in place
	}

	// Route the round through the configured executor when possible.
	// Cross-validation groups share draws fold-to-fold, so they stay local;
	// a region the executor declined for good (BeginRound error, or a body
	// that used Sync) is skipped for the rest of the run; a Transient decline
	// (no live worker now) keeps only this round local.
	if ex := t.opts.Executor; ex != nil && k == 1 {
		if _, skip := t.execSkip.Load(spec.Name); !skip {
			p.shareFeedback(spec.Name) // the executor may keep the view
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
			if err != nil && !IsRetryable(err) {
				t.execSkip.Store(spec.Name, struct{}{})
			} else if err == nil {
				rs.execH = h
				defer ex.EndRound(h)
			}
		}
	}

	// A context that can end — the caller's, or the region budget's — and a
	// per-sample deadline end the round's running attempts through one
	// watcher (DESIGN §7): watch when the context ends, expire on the
	// deadline timer.
	rs.watched = ctx.Done() != nil || rs.timeout > 0
	stopWatch := func() bool { return false }
	if ctx.Done() != nil {
		stopWatch = context.AfterFunc(ctx, rs.watch)
	}

	// Launch (DESIGN §8): every slot the round is admitted becomes one worker,
	// which runs sample after sample on it for as long as Algorithm 1 lets it
	// renew the admission. This loop keeps asking for one slot more while
	// pairs remain, so the round widens whenever the pool has room — after a
	// body handed its slot back at a Sync barrier, after an abandoned attempt
	// released its own, or when another job's share shrinks.
	//
	// Whoever claims the round's last pair withdraws the request this loop has
	// queued (rs.launch), before any worker can find the round exhausted and
	// release: the slots a finished round frees go to requests that have a
	// process to run. The round's context still ends the wait.
	for {
		todo, more := rs.unlaunched()
		if !more {
			break
		}
		if err := t.sched.AcquireCtxJob(ctx, sched.SpawnS, todo, t.job, &rs.launch); err != nil {
			if !errors.Is(err, sched.ErrWithdrawn) {
				rs.cut(err)
			}
			break
		}
		i, c := rs.claim(false)
		if c == 0 {
			t.release() // admitted in the instant the last pair was claimed
			t.ctr.idleLaunches.Add(1)
			break
		}
		rs.wg.Add(1)
		go rs.worker(i, i+c, true)
	}
	rs.wg.Wait()
	// Every worker finished or was counted out by the watcher, which does
	// that last; a watcher that started since finds no attempt running.
	stopWatch()
	rs.stopTimer()

	res, ferr := rs.finish()
	if rec != nil {
		rec.exitRound(p, recSeq, round, fbHash, rs, res)
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

// claim hands its caller the round's next chunk of un-launched (group, fold)
// pairs to run on the pool slot the caller holds (claimLocked), and releases
// the barrier if the claim cut or pruned the round. The launch loop claims
// with a slot it just acquired; a worker whose chunk commits claims in
// spDone's section, and here only after a sample that timed out without an SP.
func (rs *regionState) claim(renew bool) (i, c int) {
	rs.mu.Lock()
	defer rs.barrier.maybeRelease()
	defer rs.mu.Unlock()
	return rs.claimLocked(renew)
}

// chunkCap caps the pairs one claim takes.
const chunkCap = 32

// claimLocked is claim under rs.mu, which the caller holds: the c pairs from
// index i on. A worker claims with renew set, asking the scheduler to let it
// keep the slot its finished chunk ran on: the admission of the chunk's first
// pair is renewed under rs.mu so that it is counted exactly when a pair is
// there to use it (spDone renews the others). c is 0 when every pair is
// claimed, the round was cut, or the renewal was declined; the caller then
// releases its slot. A claim that cuts or prunes the round lowers total; the
// caller releases the barrier once it has unlocked rs.mu.
//
// Claiming the last fold of a group also decides whether the next group may
// launch at all: once the work budget is spent the remaining groups are
// pruned. Deciding it here, after the claim, keeps the rule that a region
// always launches at least one group — a tight budget yields a cheap result
// instead of none.
func (rs *regionState) claimLocked(renew bool) (i, c int) {
	if rs.launched == rs.total {
		return 0, 0
	}
	i = rs.launched
	g, f := i/rs.k, i%rs.k
	if renew {
		if err := rs.ctx.Err(); err != nil {
			// What the launch loop's acquire reports for an expired region
			// budget, seen first by a worker.
			rs.cutLocked(err)
			return 0, 0
		}
		if !rs.t.sched.Renew(sched.SpawnS, rs.n-g, rs.t.job) {
			return 0, 0
		}
		rs.renewed++
	}
	c = rs.chunkSize()
	rs.launched += c
	rs.todo.Store(int64(rs.n - rs.launched/rs.k))
	if f == 0 && rs.shared != nil {
		// Cross-validation folds share one sampler and one set of draws.
		rs.shared[g] = &svgShared{
			sampler: rs.spec.Strategy.Sampler(rs.seed, g, rs.n, rs.fb),
			vals:    make(map[string]float64),
		}
	}
	if f == rs.k-1 && g+1 < rs.n && rs.t.BudgetExceeded() {
		// Stop launching; un-launched groups count as pruned.
		for gg := g + 1; gg < rs.n; gg++ {
			rs.groups[gg].pruned = true
		}
		rs.total = rs.launched
	}
	if rs.launched == rs.total {
		rs.t.sched.Withdraw(&rs.launch)
	}
	return i, c
}

// chunkSize is how many pairs the next claim takes: a guided chunk, a quarter
// of each slot's share of the pairs left, at most chunkCap. It is one wherever
// a claimed pair could be cut, abandoned or parked before it starts, or the
// claim decides per pair: under CV (shared samplers), a work budget (pruning),
// an executor (declines), a watched round, and after a Sync arrival.
func (rs *regionState) chunkSize() int {
	if rs.k > 1 || rs.t.opts.Budget > 0 || rs.execH != nil || rs.watched || rs.synced {
		return 1
	}
	return min(chunkCap, max(1, (rs.total-rs.launched)/(4*rs.t.sched.Capacity())))
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
		if rs.groups[gg].err == nil && (gg > g || f == 0) {
			rs.groups[gg].err = fmt.Errorf("%w: %v", ErrRegionBudget, err)
		}
	}
	rs.total = rs.launched
}

// finish assembles the Result after all sampling processes of a round are
// done, folds the round's counts, updates the memory metric, and folds the
// round's scored samples into the owner's feedback views.
func (rs *regionState) finish() (*Result, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	// Every worker is done: the round's counts are exact, and folded in now.
	rs.t.ctr.samples.Add(rs.attempts)
	rs.t.sched.CountRenewals(sched.SpawnS, rs.renewed)
	if ro := rs.ro; ro != nil {
		ro.done.Add(rs.outcomes[0])
		ro.pruned.Add(rs.outcomes[1])
		ro.failed.Add(rs.outcomes[2])
		rs.durs.Flush()
	}
	rs.arena = rs.arena[:rs.narena]

	// Memory metric: values retained in the store and aggregator state.
	retained := int64(len(rs.commits))
	var aggregated map[string]any
	if rs.incs != nil {
		aggregated = make(map[string]any, len(rs.spec.Aggregate))
	}
	for id, a := range rs.incs {
		if a != nil {
			retained += int64(a.Retained())
			aggregated[rs.syms.Name(uint32(id))] = a.Result()
		}
	}
	rs.t.notePeakRetained(retained)

	// Graceful degradation: a round with timed-out or failed samples still
	// aggregates over whatever committed; the shortfall is recorded in the
	// degradation counter and a trace event. The next round of the shape sizes
	// its arenas for the longest snapshot and the most stored commits.
	failed, timeouts := 0, 0
	var longest, most int32
	for g := range rs.groups {
		gr := &rs.groups[g]
		longest, most = max(longest, gr.params.n), max(most, gr.commits.n)
		if gr.err != nil {
			failed++
			if errors.Is(gr.err, ErrSampleTimeout) || errors.Is(gr.err, ErrRegionBudget) {
				timeouts++
			}
		}
	}
	rs.shape.arenaPer.Store(int64(longest))
	rs.shape.commitsPer.Store(int64(most))
	if failed > 0 {
		rs.t.ctr.degraded.Add(1)
		if rs.ro != nil {
			rs.ro.degraded.Inc()
		}
		rs.t.opts.Trace.add(Event{Kind: EvRegionDegraded, Region: rs.spec.Name,
			Sample: -1, N: failed})
	}

	res := &Result{
		syms:       rs.syms,
		aggregated: aggregated,
		groups:     rs.groups,
		arena:      rs.arena,
		commits:    rs.commits,
		minimize:   rs.spec.Minimize,
		degraded:   failed > 0,
		timeouts:   timeouts,
	}
	if rs.lost {
		// An abandoned body may still be reading the view it sampled from.
		rs.owner.shareFeedback(rs.spec.Name)
	}
	// Feedback for future rounds of this region: every scored sample (one
	// that is scored also has its parameter snapshot).
	rs.owner.addFeedback(rs.spec.Name, rs.spec.Minimize, rs.n, res.Score, res.Params)

	if failed == rs.n && rs.n > 0 && !rs.t.opts.Fault.DegradeEmpty {
		return res, res.allFailed(rs.spec.Name)
	}
	return res, nil
}
