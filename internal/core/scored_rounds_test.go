package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dist"
	"repro/internal/leakcheck"
	"repro/internal/strategy"
)

// The long MCMC path: Table I's programs run a handful of scored rounds per
// region name, so none of them reaches the point where a feedback view is
// full (maxFeedback entries) and every round displaces retained entries.
// scoredRoundsProgram does: 256 scored 8-sample rounds under one name, then
// four split children of 16 rounds each that start from the parent's full
// view and merge back at Wait.

const (
	goldenRounds      = 256
	goldenSamples     = 8
	goldenChildren    = 4
	goldenChildRounds = 16
)

// scoredRoundsProgram runs the long job on t and returns one line per round
// — (round, BestIndex, BestScore bits, bestParams) — parent first, then the
// children in split order.
func scoredRoundsProgram(job *Tuner) ([]byte, error) {
	spec := RegionSpec{
		Name:     "rounds",
		Samples:  goldenSamples,
		Strategy: strategy.MCMC(strategy.MCMCOptions{}),
		Score:    func(sp *SP) float64 { return sp.MustGet("y").(float64) },
	}
	unit := dist.Uniform(0, 1)
	rounds := func(p *P, buf *bytes.Buffer, key string, from, n int) error {
		body := func(sp *SP) error {
			x, z := sp.Float("x", unit), sp.Float("z", unit)
			// A peak that hops every round, in steps of 8/4096, plus a drift
			// of 1/4096 per round. A fixed Samples count replays one random
			// stream, so on a still landscape the elite, and with it every
			// draw, would freeze; here later rounds keep displacing retained
			// entries, and scores tie within and across rounds.
			k := sp.Load(key).(float64)
			_, hop := math.Modf(k * 0.6180339887)
			dx, dz := x-(0.2+0.6*hop), z-0.71
			sp.Commit("y", math.Floor(512*(1-dx*dx-dz*dz))/512+k/4096)
			return nil
		}
		for r := 0; r < n; r++ {
			p.Expose(key, float64(from+r))
			res, err := p.Region(spec, body)
			if err != nil {
				return err
			}
			fmt.Fprintf(buf, "%s r%d best=%d score=%016x", key, r, res.BestIndex(), math.Float64bits(res.BestScore()))
			params := res.bestParams()
			names := make([]string, 0, len(params))
			for name := range params {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Fprintf(buf, " %s=%016x", name, math.Float64bits(params[name]))
			}
			buf.WriteByte('\n')
		}
		return nil
	}
	var root bytes.Buffer
	children := make([]bytes.Buffer, goldenChildren)
	err := job.Run(func(p *P) error {
		if err := rounds(p, &root, "knob", 0, goldenRounds); err != nil {
			return err
		}
		for c := range children {
			c := c
			p.Split(func(cp *P) error {
				return rounds(cp, &children[c], fmt.Sprintf("knob%d", c), goldenRounds+c, goldenChildRounds)
			})
		}
		if err := p.Wait(); err != nil {
			return err
		}
		// One more parent round, sampled from the view Wait merged.
		return rounds(p, &root, "knob", goldenRounds+goldenChildRounds, 1)
	})
	for c := range children {
		root.Write(children[c].Bytes())
	}
	return root.Bytes(), err
}

// scoredRoundsDigest is the FNV-1a digest of scoredRoundsProgram's output at
// seed 20190216, generated at the commit before feedback views became
// bounded (the per-round copy, sort and truncate of the whole history).
const scoredRoundsDigest = 0x997996a18d069dd6

// TestScoredRoundsGolden pins which samples MCMC learns from once the
// history is far longer than maxFeedback, across a split and a merge.
func TestScoredRoundsGolden(t *testing.T) {
	out, err := scoredRoundsProgram(New(Options{MaxPool: 4, Seed: 20190216}))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(out)
	if got := h.Sum64(); got != scoredRoundsDigest {
		t.Fatalf("digest %#016x, want %#016x; output:\n%s", got, uint64(scoredRoundsDigest), out)
	}
}

// TestScoredRoundsResume records the long job, resumes it from the
// checkpoint taken at round 150 — the replay folds 150 journaled rounds
// into the views and checks each round's feedback hash against the journal —
// and requires the uninterrupted output byte for byte.
func TestScoredRoundsResume(t *testing.T) {
	defer leakcheck.Check(t)()

	want, err := scoredRoundsProgram(New(Options{MaxPool: 4, Seed: 20190216}))
	if err != nil {
		t.Fatal(err)
	}
	cs := &captureStore{}
	rec := New(Options{MaxPool: 4, Seed: 20190216, Checkpoint: &CheckpointPolicy{Store: cs, Every: 150}})
	got, err := scoredRoundsProgram(rec)
	if err != nil {
		t.Fatalf("recorded run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recording perturbed the run")
	}
	st, err := checkpoint.DecodeBytes(cs.snapshots()[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Complete || len(st.Rounds) != 150 {
		t.Fatalf("first checkpoint: complete=%v rounds=%d, want the round-150 boundary", st.Complete, len(st.Rounds))
	}
	job, err := NewRuntime(RuntimeOptions{MaxPool: 4}).ResumeJob(JobOptions{Name: "resumed"}, st)
	if err != nil {
		t.Fatal(err)
	}
	out, err := scoredRoundsProgram(job)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("resumed run diverged from the uninterrupted one")
	}
	if gm, wm := metricsLine(job.Metrics()), metricsLine(rec.Metrics()); gm != wm {
		t.Fatalf("resumed counters %s != %s", gm, wm)
	}
}

// bestParams returns the parameter configuration of the best-scoring
// sample, or nil when nothing was scored.
func (r *Result) bestParams() map[string]float64 {
	i := r.BestIndex()
	if i < 0 {
		return nil
	}
	return r.Params(i)
}
