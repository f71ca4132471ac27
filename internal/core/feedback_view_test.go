package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dist"
	"repro/internal/strategy"
)

// fbOracle is the feedback bookkeeping the bounded views replaced, kept as
// the reference: every entry a process can see (seen) or created (created)
// in arrival order, and a copy, sort and truncate of the whole list per read.
type fbOracle struct {
	seen, created map[string][]strategy.Feedback
	children      []*fbOracle
}

func newFBOracle() *fbOracle {
	return &fbOracle{seen: map[string][]strategy.Feedback{}, created: map[string][]strategy.Feedback{}}
}

func (o *fbOracle) add(name string, fb []strategy.Feedback) {
	o.seen[name] = append(o.seen[name][:len(o.seen[name]):len(o.seen[name])], fb...)
	o.created[name] = append(o.created[name][:len(o.created[name]):len(o.created[name])], fb...)
}

func (o *fbOracle) split() *fbOracle {
	c := newFBOracle()
	for name, fb := range o.seen {
		c.seen[name] = fb
	}
	o.children = append(o.children, c)
	return c
}

func (o *fbOracle) wait() {
	for _, c := range o.children {
		for name, fb := range c.created {
			o.add(name, fb)
		}
	}
	o.children = nil
}

func oracleBest(history []strategy.Feedback, minimize bool) []strategy.Feedback {
	fb := append([]strategy.Feedback(nil), history...)
	strategy.SortBestFirst(fb, minimize)
	if len(fb) > maxFeedback {
		fb = fb[:maxFeedback]
	}
	return fb
}

// sameFeedback compares entry for entry: the score and the identity of the
// Params map, so two tied entries in the wrong order do not pass.
func sameFeedback(got, want []strategy.Feedback) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Score != want[i].Score ||
			reflect.ValueOf(got[i].Params).Pointer() != reflect.ValueOf(want[i].Params).Pointer() {
			return fmt.Errorf("entry %d is %v (score %v), want %v (score %v)",
				i, got[i].Params, got[i].Score, want[i].Params, want[i].Score)
		}
	}
	return nil
}

// fbNames are the region names of the differential run and their directions.
var fbNames = []struct {
	name     string
	minimize bool
}{{"lo", true}, {"hi", false}}

func checkViews(t *testing.T, p *P, o *fbOracle, when string) {
	for _, n := range fbNames {
		if err := sameFeedback(p.feedbackFor(n.name, n.minimize), oracleBest(o.seen[n.name], n.minimize)); err != nil {
			t.Errorf("%s: seen[%s]: %v", when, n.name, err)
		}
		if err := sameFeedback(p.fbNew[n.name].fb, oracleBest(o.created[n.name], n.minimize)); err != nil {
			t.Errorf("%s: created[%s]: %v", when, n.name, err)
		}
		if c := cap(p.fbSeen[n.name].fb); c > maxFeedback {
			t.Errorf("%s: seen[%s] retains room for %d entries", when, n.name, c)
		}
	}
}

// driveViews runs a random sequence of rounds, splits and waits on p, with
// the oracle in step. Scores come from a 4-value set with the best value the
// rarest, so views fill with long runs of ties and still get displaced.
func driveViews(t *testing.T, p *P, o *fbOracle, rng *rand.Rand, depth int, id *atomic.Int64) {
	for step := 0; step < 24; step++ {
		switch op := rng.Intn(20); {
		case op < 15:
			n := fbNames[rng.Intn(len(fbNames))]
			cands := make([]strategy.Feedback, 1+rng.Intn(12))
			for i := range cands {
				rank := float64(bits.TrailingZeros32(rng.Uint32() | 8))
				if n.minimize {
					rank = -rank
				}
				if rng.Intn(8) == 0 {
					rank = math.NaN() // an unscored sample
				}
				cands[i] = strategy.Feedback{Params: map[string]float64{"id": float64(id.Add(1))}, Score: rank}
			}
			p.addFeedback(n.name, n.minimize, len(cands),
				func(i int) float64 { return cands[i].Score },
				func(i int) map[string]float64 { return cands[i].Params })
			var scored []strategy.Feedback
			for _, c := range cands {
				if !math.IsNaN(c.Score) {
					scored = append(scored, c)
				}
			}
			o.add(n.name, scored)
			checkViews(t, p, o, fmt.Sprintf("pid %d step %d round", p.pid, step))
		case op < 17 && depth < 3:
			co, seed := o.split(), rng.Int63()
			p.Split(func(c *P) error {
				checkViews(t, c, co, fmt.Sprintf("pid %d at split", c.pid))
				driveViews(t, c, co, rand.New(rand.NewSource(seed)), depth+1, id)
				return nil
			})
		default:
			if err := p.Wait(); err != nil {
				t.Error(err)
			}
			o.wait()
			checkViews(t, p, o, fmt.Sprintf("pid %d step %d wait", p.pid, step))
		}
	}
	if err := p.Wait(); err != nil {
		t.Error(err)
	}
	o.wait()
	checkViews(t, p, o, fmt.Sprintf("pid %d final wait", p.pid))
}

// TestFeedbackViewsMatchFullHistory is the differential check of the bounded
// views against the full-history oracle, over random split trees: one
// parallel subtest per seed, each with its own tuner and oracle.
func TestFeedbackViewsMatchFullHistory(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			var id atomic.Int64
			o := newFBOracle()
			run(t, New(Options{MaxPool: 4, Seed: seed}), func(p *P) error {
				driveViews(t, p, o, rand.New(rand.NewSource(seed)), 0, &id)
				return nil
			})
			if len(o.seen["lo"]) <= maxFeedback || len(o.seen["hi"]) <= maxFeedback {
				t.Fatalf("histories of %d and %d entries never fill a view",
					len(o.seen["lo"]), len(o.seen["hi"]))
			}
		})
	}
}

// TestFeedbackViewDirectionFlip pins the direction rule: a name reused with
// the opposite Minimize re-sorts the retained entries, ties keeping their
// order, and goes on from there.
func TestFeedbackViewDirectionFlip(t *testing.T) {
	p := &P{fbSeen: map[string]fbView{}, fbNew: map[string]fbView{}}
	fold := func(minimize bool, scores ...float64) []strategy.Feedback {
		fb := make([]strategy.Feedback, len(scores))
		for i, s := range scores {
			fb[i] = strategy.Feedback{Params: map[string]float64{}, Score: s}
		}
		p.addFeedback("r", minimize, len(fb),
			func(i int) float64 { return fb[i].Score },
			func(i int) map[string]float64 { return fb[i].Params })
		return fb
	}
	a := fold(false, 1, 3, 2, 3)
	held := p.feedbackFor("r", false)
	if err := sameFeedback(held, []strategy.Feedback{a[1], a[3], a[2], a[0]}); err != nil {
		t.Fatalf("maximizing: %v", err)
	}
	if err := sameFeedback(p.feedbackFor("r", true), []strategy.Feedback{a[0], a[2], a[1], a[3]}); err != nil {
		t.Fatalf("read under the opposite direction: %v", err)
	}
	b := fold(true, 2, 0)
	if err := sameFeedback(p.feedbackFor("r", true), []strategy.Feedback{b[1], a[0], a[2], b[0], a[1], a[3]}); err != nil {
		t.Fatalf("after a minimizing round: %v", err)
	}
	if err := sameFeedback(held, []strategy.Feedback{a[1], a[3], a[2], a[0]}); err != nil {
		t.Fatalf("a view handed out earlier was modified: %v", err)
	}
}

// TestSplitChildrenShareInheritedView runs two split children at once, both
// sampling from the view they inherited — one backing array, shared with
// the parent — and folding their own rounds in. Under -race this is the
// check that no sampler and no fold writes to a shared view.
func TestSplitChildrenShareInheritedView(t *testing.T) {
	spec := RegionSpec{
		Name: "shared", Samples: 8,
		Strategy: strategy.MCMC(strategy.MCMCOptions{}),
		Score:    func(sp *SP) float64 { return sp.MustGet("y").(float64) },
	}
	unit := dist.Uniform(0, 1)
	body := func(sp *SP) error {
		x := sp.Float("x", unit)
		sp.Commit("y", x*(2-x))
		return nil
	}
	rounds := func(p *P, n int) error {
		for r := 0; r < n; r++ {
			if _, err := p.Region(spec, body); err != nil {
				return err
			}
		}
		return nil
	}
	run(t, New(Options{MaxPool: 4, Seed: 9}), func(p *P) error {
		if err := rounds(p, 12); err != nil {
			return err
		}
		inherited := p.feedbackFor("shared", false)
		if len(inherited) != maxFeedback {
			return fmt.Errorf("parent view holds %d entries before the split, want a full %d", len(inherited), maxFeedback)
		}
		before := append([]strategy.Feedback(nil), inherited...)
		start := make(chan struct{})
		for i := 0; i < 2; i++ {
			p.Split(func(c *P) error {
				<-start // both children in flight before either runs a round
				if got := c.feedbackFor("shared", false); &got[0] != &inherited[0] {
					return fmt.Errorf("child %d got a copy of the parent's view", c.pid)
				}
				return rounds(c, 12)
			})
		}
		close(start)
		if err := p.Wait(); err != nil {
			return err
		}
		if err := sameFeedback(inherited, before); err != nil {
			return fmt.Errorf("the inherited view changed under its readers: %v", err)
		}
		return nil
	})
}

// TestScoredRoundCostFlat is the exact-count form of "a round costs the same
// whatever came before it": one scored 8-sample round allocates the same
// number of objects, and no more bytes, after 4096 samples of history as on
// a fresh job. Scores rise with every sample, so each one enters both views
// at the front — the most a round can do.
func TestScoredRoundCostFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not repeat under -race")
	}
	measure := func(history int) (allocs, bytes float64) {
		var next atomic.Int64
		spec := RegionSpec{
			Name: "flat", Samples: 8,
			Strategy: strategy.MCMC(strategy.MCMCOptions{}),
			Score:    func(sp *SP) float64 { return float64(next.Add(1)) },
		}
		unit := dist.Uniform(0, 1)
		body := func(sp *SP) error {
			sp.Float("x", unit)
			return nil
		}
		run(t, New(Options{MaxPool: 1, Seed: 1}), func(p *P) error {
			round := func() {
				if _, err := p.Region(spec, body); err != nil {
					t.Error(err)
				}
			}
			for r := 0; r < history/spec.Samples; r++ {
				round()
			}
			const runs = 64
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			allocs = testing.AllocsPerRun(runs, round)
			runtime.ReadMemStats(&m1)
			bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / (runs + 1)
			return nil
		})
		return allocs, bytes
	}
	a0, b0 := measure(0)
	a1, b1 := measure(4096)
	t.Logf("history 0: %.0f allocs, %.0f B per round; history 4096: %.0f allocs, %.0f B", a0, b0, a1, b1)
	if a0 != a1 {
		t.Errorf("a round allocates %.0f objects on a fresh job and %.0f after 4096 samples", a0, a1)
	}
	if b1 > 1.1*b0 {
		t.Errorf("a round allocates %.0f B on a fresh job and %.0f B after 4096 samples", b0, b1)
	}
}

// fbProbe is a strategy whose samplers remember the view they were built
// from. Armed, the sampler of sample 0 blocks in its first Draw until
// released and then reports whether that view changed under it.
type fbProbe struct {
	armed   atomic.Bool
	release chan struct{}
	verdict chan error
}

type fbProbeSampler struct {
	p        *fbProbe
	idx      int
	fb, copy []strategy.Feedback
}

func (p *fbProbe) Name() string { return "probe" }

func (p *fbProbe) Sampler(_ int64, idx, _ int, fb []strategy.Feedback) strategy.Sampler {
	return &fbProbeSampler{p: p, idx: idx, fb: fb, copy: append([]strategy.Feedback(nil), fb...)}
}

func (s *fbProbeSampler) Draw(string, dist.Dist) float64 {
	if s.idx == 0 && s.p.armed.CompareAndSwap(true, false) {
		<-s.p.release
		s.p.verdict <- sameFeedback(s.fb, s.copy)
	}
	return 0.5
}

// TestFeedbackInPlaceNeverLeaks: a process folds a round's scores into its
// feedback view in place while it owns the view's array. Wherever the view
// escapes the round's own samplers, the next fold must copy instead: a split
// child (in both directions), an executor's round task, and the sampler of an
// abandoned attempt, which may still be running. A journaled round must hash
// the view it launched with, not the one its fold left. Scores rise with
// every sample, so each fold shifts every entry a reader could hold.
func TestFeedbackInPlaceNeverLeaks(t *testing.T) {
	scoredSpec := func(name string, strat strategy.Strategy) RegionSpec {
		var next atomic.Int64
		return RegionSpec{Name: name, Samples: 4, Strategy: strat,
			Score: func(*SP) float64 { return float64(next.Add(1)) }}
	}
	body := func(sp *SP) error {
		sp.Float("x", dist.Uniform(0, 1))
		return nil
	}
	rounds := func(p *P, spec RegionSpec, n int) error {
		for r := 0; r < n; r++ {
			if _, err := p.Region(spec, body); err != nil {
				return err
			}
		}
		return nil
	}
	clone := func(fb []strategy.Feedback) []strategy.Feedback { return append([]strategy.Feedback(nil), fb...) }

	t.Run("SplitChild", func(t *testing.T) {
		spec := scoredSpec("split", strategy.MCMC(strategy.MCMCOptions{}))
		run(t, New(Options{MaxPool: 4, Seed: 3}), func(p *P) error {
			if err := rounds(p, spec, 3); err != nil {
				return err
			}
			atSplit := clone(p.feedbackFor("split", false))
			parentRan, childRan := make(chan struct{}), make(chan struct{})
			p.Split(func(c *P) error {
				defer close(childRan)
				<-parentRan
				if err := sameFeedback(c.feedbackFor("split", false), atSplit); err != nil {
					return fmt.Errorf("the parent's fold wrote the child's view: %v", err)
				}
				return rounds(c, spec, 1)
			})
			if err := rounds(p, spec, 1); err != nil {
				return err
			}
			before := clone(p.feedbackFor("split", false))
			close(parentRan)
			<-childRan
			if err := sameFeedback(p.feedbackFor("split", false), before); err != nil {
				return fmt.Errorf("the child's fold wrote the parent's view: %v", err)
			}
			return p.Wait()
		})
	})

	t.Run("ExecutorRoundTask", func(t *testing.T) {
		rec := &recordingExec{fakeExec: newFakeExec()}
		spec := scoredSpec("exec", strategy.MCMC(strategy.MCMCOptions{}))
		run(t, New(Options{MaxPool: 4, Seed: 3, Executor: rec}), func(p *P) error {
			return rounds(p, spec, 4)
		})
		if len(rec.tasks) != 4 {
			t.Fatalf("%d rounds reached the executor, want 4", len(rec.tasks))
		}
		for r, fb := range rec.tasks {
			if err := sameFeedback(fb, rec.copies[r]); err != nil {
				t.Errorf("round %d's task feedback changed after BeginRound: %v", r, err)
			}
		}
	})

	t.Run("AbandonedAttempt", func(t *testing.T) {
		probe := &fbProbe{release: make(chan struct{}), verdict: make(chan error, 1)}
		spec := scoredSpec("lost", probe)
		tuner := New(Options{MaxPool: 4, Seed: 3, Fault: FaultPolicy{SampleTimeout: 20 * time.Millisecond}})
		run(t, tuner, func(p *P) error {
			if err := rounds(p, spec, 3); err != nil {
				return err
			}
			probe.armed.Store(true)
			res, err := p.Region(spec, body)
			if err != nil {
				return err
			}
			if !res.TimedOut(0) {
				return errors.New("the hung sampler's attempt was not abandoned")
			}
			return nil
		})
		close(probe.release)
		if err := <-probe.verdict; err != nil {
			t.Fatalf("the round's fold wrote the view an abandoned sampler still reads: %v", err)
		}
	})

	t.Run("JournaledHash", func(t *testing.T) {
		const n = 6
		spec := scoredSpec("journal", strategy.MCMC(strategy.MCMCOptions{}))
		cs := &captureStore{}
		var want []uint64
		run(t, New(Options{MaxPool: 4, Seed: 3, Checkpoint: &CheckpointPolicy{Store: cs, Every: n}}), func(p *P) error {
			for r := 0; r < n; r++ {
				want = append(want, feedbackHash(p.feedbackFor("journal", false)))
				if err := rounds(p, spec, 1); err != nil {
					return err
				}
			}
			return nil
		})
		st, err := checkpoint.DecodeBytes(cs.snapshots()[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Rounds) != n {
			t.Fatalf("%d journaled rounds, want %d", len(st.Rounds), n)
		}
		for r, jr := range st.Rounds {
			if jr.FBHash != want[r] {
				t.Errorf("round %d journaled feedback hash %016x, launch-time view %016x", r, jr.FBHash, want[r])
			}
		}
	})
}

// recordingExec is fakeExec keeping each round task's feedback, and a copy
// of it taken at BeginRound.
type recordingExec struct {
	*fakeExec
	tasks, copies [][]strategy.Feedback
}

func (e *recordingExec) BeginRound(r RoundTask) (any, error) {
	e.tasks = append(e.tasks, r.Feedback)
	e.copies = append(e.copies, append([]strategy.Feedback(nil), r.Feedback...))
	return e.fakeExec.BeginRound(r)
}
