package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/strategy"
)

var unit = dist.Uniform(0, 1)

// jobSeeds derives the 16 tuning seeds a workload cycles over from --seed.
func jobSeeds(seed int64) [16]int64 {
	var out [16]int64
	for i := range out {
		out[i] = int64(dist.Mix(uint64(seed), uint64(i)) >> 1)
	}
	return out
}

// ---- region_wide ----

const (
	wideSamples = 256
	wideReads   = 16
	widePrime   = 256 // regions run during set-up
)

// wideInput is the exposed value the bodies read, generated from the seed:
// somewhere in [0.25, 0.75].
func wideInput(seed int64) float64 {
	return 0.25 + 0.5*float64(dist.Mix(uint64(seed), 0)>>11)/float64(1<<53)
}

type regionWide struct {
	e      env
	tuner  *core.Tuner
	input  float64
	spec   core.RegionSpec
	avg0   float64 // Avg of the first region; NaN until seen
	nextOp uint64

	first   firstBody
	exposes int
}

func newRegionWide(e env) (instance, error) {
	w := &regionWide{e: e, input: wideInput(e.seed), avg0: math.NaN()}
	w.first.since = time.Now()
	w.tuner = core.New(core.Options{MaxPool: e.procs, Seed: e.seed, Incremental: true, Obs: e.obs})
	w.spec = core.RegionSpec{
		Name:      "wide",
		Samples:   wideSamples,
		Aggregate: map[string]agg.Kind{"y": agg.Avg},
	}
	// Set-up ends when the runtime is warm: symbol table interned, sampling
	// process and generator pools filled.
	n := 0
	if t := w.regions(func() bool { n++; return n <= widePrime }); t.failed+t.mismatch > 0 {
		return nil, fmt.Errorf("priming: %d failed, %d wrong of %d regions", t.failed, t.mismatch, t.ops)
	}
	return w, nil
}

// body is the sampling_hot_path body of internal/bench: two memoised draws
// and one exposed read, sixteen times, one commit.
func (w *regionWide) body(sp *core.SP) error {
	if w.e.rec != nil {
		w.first.mark()
	}
	acc := 0.0
	for j := 0; j < wideReads; j++ {
		acc += sp.Float("alpha", unit) + sp.Float("beta", unit)
		acc += sp.Load("input").(float64)
	}
	sp.Commit("y", acc)
	return nil
}

// checkWide applies the output checks to one region's result: all 256
// samples arrived, the average lies where the inputs allow, and — the tuner
// seed being fixed, every region draws the same samples — it equals the
// first region's average up to summation order.
func checkWide(res *core.Result, input, first float64) (avg float64, bad int) {
	avg, ok := res.Aggregated("y").(float64)
	lo, hi := wideReads*input, wideReads*(2+input)
	if !ok || res.N() != wideSamples || avg < lo || avg > hi {
		return avg, 1
	}
	// 256 draws of 16(α+β+input) have a mean within ±2 of 16(1+input)
	// except once in 10^6.
	if math.Abs(avg-wideReads*(1+input)) > 2 {
		return avg, 1
	}
	if !math.IsNaN(first) && math.Abs(avg-first) > 1e-9*math.Abs(first) {
		return avg, 1
	}
	return avg, 0
}

func (w *regionWide) run(deadline time.Time) tally {
	return w.regions(func() bool { return time.Now().Before(deadline) })
}

// regions runs back-to-back regions in one Run while more() says so.
func (w *regionWide) regions(more func() bool) tally {
	var t tally
	before := w.tuner.Metrics().Samples
	err := w.tuner.Run(func(p *core.P) error {
		p.Expose("input", w.input)
		w.exposes++
		for more() {
			w.nextOp++
			t.ops++
			t0 := time.Now()
			res, err := tracedRegion(w.e.rec, w.nextOp, 0, w.e.procs, p, w.spec, w.body)
			if err != nil {
				t.failed++
				continue
			}
			t.opMs = append(t.opMs, float64(time.Since(t0).Nanoseconds())/1e6)
			avg, bad := checkWide(res, w.input, w.avg0)
			t.mismatch += bad
			if math.IsNaN(w.avg0) {
				w.avg0 = avg
			}
		}
		return nil
	})
	if err != nil {
		t.failed++
	}
	t.samples = w.tuner.Metrics().Samples - before
	return t
}

func (w *regionWide) layers(m metrics, tv traceView) {
	regionLayers(m, tv)
	m["core.run_setup_us"] = float64(w.first.ns.Load()) / 1e3
	m["store.version_bumps"] = float64(w.exposes)
	coreCounters(m, view(w.e.obs))
}

func (w *regionWide) close() { w.tuner.Close() }

// regionLayers fills the region metrics from the core.region spans: their
// latency, and the per-round overhead — what a region costs beyond what its
// children (bodies, or the executor's calls) cover.
func regionLayers(m metrics, tv traceView) {
	regions := tv.durationsUS("core.region")
	m["core.region_p50_us"] = median(regions)
	m["core.region_p99_us"] = percentile(regions, 0.99)
	m["core.round_overhead_us"] = tv.selfPerSpanUS("core.region")
}

// ---- region_rounds ----

const (
	roundsParent   = 256
	roundsSamples  = 8
	roundsChildren = 4
	roundsChild    = 16
	// roundsPerJob is every sampling process of one job.
	roundsPerJob = (roundsParent + roundsChildren*roundsChild) * roundsSamples
)

type regionRounds struct {
	e      env
	seeds  [16]int64
	next   int
	nextOp uint64

	best    map[int64]float64 // first best score seen per job seed
	setupUS []float64
	exposes int
}

func newRegionRounds(e env) (instance, error) {
	w := &regionRounds{e: e, seeds: jobSeeds(e.seed), best: make(map[int64]float64)}
	// Set-up ends with one whole job done cold.
	n := 0
	if t := w.jobs(func() bool { n++; return n <= 1 }); t.failed+t.mismatch > 0 {
		return nil, fmt.Errorf("priming job: failed %d, wrong %d", t.failed, t.mismatch)
	}
	return w, nil
}

// knob is the value exposed before round r; the best sample of the round
// must have read exactly it.
func knob(r int) float64 { return 1 + float64(r)/1024 }

// roundsSpec is the scored region of one long job; y=x(2-x) peaks at 1.
func roundsSpec() core.RegionSpec {
	return core.RegionSpec{
		Name:     "rounds",
		Samples:  roundsSamples,
		Strategy: strategy.MCMC(strategy.MCMCOptions{}),
		Score:    func(sp *core.SP) float64 { return sp.MustGet("y").(float64) },
	}
}

func roundsBody(key string) func(*core.SP) error {
	return func(sp *core.SP) error {
		x := sp.Float("x", unit)
		sp.Commit("k", sp.Load(key).(float64))
		sp.Commit("y", x*(2-x))
		return nil
	}
}

// job is one operation: a fresh tuner running one long job. It returns the
// best score seen and how many rounds read a stale knob.
func (w *regionRounds) job(seed int64, op uint64) (best float64, stale int, samples int64, err error) {
	rec, procs := w.e.rec, w.e.procs
	root := rec.start("op.job", op, 0)
	defer func() { rec.finish(root) }()

	first := firstBody{since: time.Now()}
	sNew := rec.start("core.new", op, root.ID)
	t := core.New(core.Options{MaxPool: procs, Seed: seed, Obs: w.e.obs})
	rec.finish(sNew)
	defer t.Close()

	spec := roundsSpec()
	var mu sync.Mutex // guards best, stale and w.exposes across split children
	best = math.Inf(-1)
	rounds := func(p *core.P, parent uint64, key string, n int) error {
		body := roundsBody(key)
		if rec != nil {
			inner := body
			body = func(sp *core.SP) error {
				first.mark()
				return inner(sp)
			}
		}
		for r := 0; r < n; r++ {
			sExp := rec.start("store.expose", op, parent)
			p.Expose(key, knob(r))
			rec.finish(sExp)
			res, err := tracedRegion(rec, op, parent, procs, p, spec, body)
			if err != nil {
				return err
			}
			mu.Lock()
			w.exposes++
			if s := res.BestScore(); s > best {
				best = s
			}
			if k, ok := res.Value("k", res.BestIndex()); !ok || k.(float64) != knob(r) {
				stale++
			}
			mu.Unlock()
		}
		return nil
	}

	sRun := rec.start("core.run", op, root.ID)
	err = t.Run(func(p *core.P) error {
		if err := rounds(p, sRun.ID, "knob", roundsParent); err != nil {
			return err
		}
		sSplit := rec.start("core.split_wait", op, sRun.ID)
		for c := 0; c < roundsChildren; c++ {
			key := fmt.Sprintf("knob%d", c)
			p.Split(func(cp *core.P) error { return rounds(cp, sSplit.ID, key, roundsChild) })
		}
		err := p.Wait()
		rec.finish(sSplit)
		return err
	})
	rec.finish(sRun)
	if rec != nil {
		w.setupUS = append(w.setupUS, float64(first.ns.Load())/1e3)
	}
	return best, stale, t.Metrics().Samples, err
}

func (w *regionRounds) run(deadline time.Time) tally {
	return w.jobs(func() bool { return time.Now().Before(deadline) })
}

func (w *regionRounds) jobs(more func() bool) tally {
	var t tally
	for more() {
		seed := w.seeds[w.next%len(w.seeds)]
		w.next++
		w.nextOp++
		t.ops++
		t0 := time.Now()
		best, stale, samples, err := w.job(seed, w.nextOp)
		if err != nil {
			t.failed++
			continue
		}
		t.opMs = append(t.opMs, float64(time.Since(t0).Nanoseconds())/1e6)
		t.samples += samples
		prev, seen := w.best[seed]
		if !seen {
			w.best[seed], prev = best, best
		}
		t.mismatch += checkRounds(best, prev, stale, samples)
	}
	return t
}

// checkRounds applies the output checks to one long job: its best score is
// a score of y=x(2-x) on [0,1] and bit-identical to the first run of the
// same job seed, every round's best sample read the knob exposed just before
// it, and no sample was lost. How close the search gets to the optimum 1 is
// not checked: a fixed-size region always samples under round 0's seed, so
// the rounds of one tuner replay the same random stream and some job seeds
// stall around 0.95.
func checkRounds(best, prev float64, stale int, samples int64) int {
	bad := stale
	if !(best > 0 && best <= 1) || math.Float64bits(best) != math.Float64bits(prev) {
		bad++
	}
	if samples != roundsPerJob {
		bad++
	}
	return bad
}

func (w *regionRounds) layers(m metrics, tv traceView) {
	regionLayers(m, tv)
	m["core.run_setup_us"] = median(w.setupUS)
	m["core.split_wait_us"] = median(tv.durationsUS("core.split_wait"))
	m["store.version_bumps"] = float64(w.exposes)
	// After Wait the parent sees every scored sample of the job.
	m["strategy.feedback_len_max"] = roundsPerJob
	coreCounters(m, view(w.e.obs))
}

func (w *regionRounds) close() {}
