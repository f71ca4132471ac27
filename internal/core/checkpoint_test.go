package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dist"
	"repro/internal/leakcheck"
	"repro/internal/strategy"
)

// captureStore keeps a copy of every checkpoint saved through it, so a test
// can resume from any intermediate round boundary of a finished run.
type captureStore struct {
	checkpoint.MemStore
	mu    sync.Mutex
	saves [][]byte
}

func (c *captureStore) Save(label string, data []byte) error {
	c.mu.Lock()
	c.saves = append(c.saves, append([]byte(nil), data...))
	c.mu.Unlock()
	return c.MemStore.Save(label, data)
}

func (c *captureStore) snapshots() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.saves...)
}

// ckptProgram is a multi-round, splitting, feedback-driven tuning program
// whose complete observable behaviour — drawn params, committed values,
// scores, split-child results — folds into one deterministic dump string.
func ckptProgram(job *Tuner) (string, error) {
	var root, child bytes.Buffer
	runRounds := func(p *P, buf *bytes.Buffer, name string, rounds int) error {
		spec := RegionSpec{
			Name:     name,
			Samples:  4,
			Strategy: strategy.MCMC(strategy.MCMCOptions{}),
			Score:    func(sp *SP) float64 { return sp.MustGet("y").(float64) },
		}
		body := func(sp *SP) error {
			x := sp.Float("x", dist.Uniform(0, 1))
			sp.Work(0.25)
			sp.Commit("y", x*sp.Load("bias").(float64))
			return nil
		}
		for r := 0; r < rounds; r++ {
			p.Work(1)
			res, err := p.Region(spec, body)
			if err != nil {
				return err
			}
			for g := 0; g < res.N(); g++ {
				fmt.Fprintf(buf, "%s g%d x=%v y=%v\n", name, g, res.Params(g)["x"], res.MustValue("y", g))
			}
			fmt.Fprintf(buf, "%s best=%d score=%v\n", name, res.BestIndex(), res.BestScore())
		}
		return nil
	}
	err := job.Run(func(p *P) error {
		p.Expose("bias", 0.5)
		p.Split(func(c *P) error { return runRounds(c, &child, "child", 3) })
		if err := runRounds(p, &root, "root", 3); err != nil {
			return err
		}
		return p.Wait()
	})
	return root.String() + child.String(), err
}

// metricsLine folds the deterministic run counters (everything except
// scheduler contention stats) into a comparable string.
func metricsLine(m Metrics) string {
	return fmt.Sprintf("regions=%d rounds=%d samples=%d splits=%d work=%v ser=%v par=%v",
		m.Regions, m.Rounds, m.Samples, m.Splits, m.WorkUnits, m.WorkSerial, m.WorkParallel)
}

// TestCancelledRunKeepsItsLastWholeCheckpoint cancels a recorded run from
// inside its third round, as a daemon shutdown does. The round the
// cancellation cut must not reach the store: resuming the last checkpoint
// written must reproduce the uninterrupted run.
func TestCancelledRunKeepsItsLastWholeCheckpoint(t *testing.T) {
	defer leakcheck.Check(t)()
	program := func(ctx context.Context, job *Tuner, cancel func()) string {
		var out strings.Builder
		err := job.RunContext(ctx, func(p *P) error {
			for r := 0; r < 4; r++ {
				res, err := p.Region(RegionSpec{Name: "cut", Samples: 8}, func(sp *SP) error {
					if r == 2 && sp.Index() == 0 && cancel != nil {
						cancel()
					}
					sp.Commit("y", sp.Float("x", dist.Uniform(0, 1)))
					return nil
				})
				if err != nil {
					return err
				}
				fmt.Fprintln(&out, r, res.Values("y"))
			}
			return nil
		})
		return fmt.Sprintln(out.String(), metricsLine(job.Metrics()), err)
	}
	want := program(context.Background(), New(Options{MaxPool: 4, Seed: 5}), nil)
	cs := &captureStore{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := New(Options{MaxPool: 4, Seed: 5, Checkpoint: &CheckpointPolicy{Store: cs, Every: 1}})
	program(ctx, src, cancel)
	snaps := cs.snapshots()
	if len(snaps) == 0 {
		t.Fatal("no checkpoint written before the cancellation")
	}
	st, err := checkpoint.DecodeBytes(snaps[len(snaps)-1])
	if err != nil || st.Complete {
		t.Fatalf("last checkpoint: %v (complete %v), want a resumable one", err, st != nil && st.Complete)
	}
	job, err := NewRuntime(RuntimeOptions{MaxPool: 4}).ResumeJob(JobOptions{}, st)
	if err != nil {
		t.Fatalf("ResumeJob: %v", err)
	}
	defer job.Close()
	if got := program(context.Background(), job, nil); got != want {
		t.Fatalf("resumed run diverged\n--- resumed ---\n%s--- uninterrupted ---\n%s", got, want)
	}
}

// TestCheckpointWriterRoundtrip drives the Tuner.Checkpoint writer surface:
// a mid-run-shaped state captured after completion encodes through an
// io.Writer and decodes back to an equivalent state.
func TestCheckpointWriterRoundtrip(t *testing.T) {
	defer leakcheck.Check(t)()
	job := New(Options{MaxPool: 4, Seed: 7, Checkpoint: &CheckpointPolicy{Store: &checkpoint.MemStore{}}})
	if _, err := ckptProgram(job); err != nil {
		t.Fatalf("run: %v", err)
	}
	var buf bytes.Buffer
	if err := job.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	st, err := checkpoint.DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("decode written checkpoint: %v", err)
	}
	if st.Seed != 7 || st.Complete {
		t.Fatalf("decoded state: seed=%d complete=%v, want seed=7 complete=false", st.Seed, st.Complete)
	}
	if len(st.Rounds) == 0 || len(st.Frontier) == 0 {
		t.Fatalf("decoded state is empty: %d rounds, %d frontier paths", len(st.Rounds), len(st.Frontier))
	}
}

// TestResumeFailurePaths covers the three refusal cases of ResumeJob —
// insufficient capacity, a completed checkpoint, and a double resume — and
// checks a refused checkpoint stays resumable elsewhere.
func TestResumeFailurePaths(t *testing.T) {
	defer leakcheck.Check(t)()

	cs := &captureStore{}
	src := New(Options{MaxPool: 4, Seed: 3, Checkpoint: &CheckpointPolicy{Store: cs, Every: 1}})
	if _, err := ckptProgram(src); err != nil {
		t.Fatalf("source run: %v", err)
	}
	snaps := cs.snapshots()
	mid, err := checkpoint.DecodeBytes(snaps[0])
	if err != nil || mid.Complete {
		t.Fatalf("first checkpoint: err=%v complete=%v", err, mid != nil && mid.Complete)
	}
	final, err := checkpoint.DecodeBytes(snaps[len(snaps)-1])
	if err != nil || !final.Complete {
		t.Fatalf("final checkpoint: err=%v complete=%v", err, final != nil && final.Complete)
	}

	// Capacity: a one-slot runtime is below the default MinSlots floor.
	small := NewRuntime(RuntimeOptions{MaxPool: 1})
	if _, err := small.ResumeJob(JobOptions{}, mid); !errors.Is(err, ErrResumeCapacity) {
		t.Fatalf("resume on 1-slot runtime: %v, want ErrResumeCapacity", err)
	}

	// Completed: a final checkpoint has nothing left to resume.
	rt := NewRuntime(RuntimeOptions{MaxPool: 4})
	if _, err := rt.ResumeJob(JobOptions{}, final); !errors.Is(err, ErrResumeCompleted) {
		t.Fatalf("resume of complete checkpoint: %v, want ErrResumeCompleted", err)
	}

	// The capacity refusal above must not have claimed the capture: the same
	// state resumes cleanly on an adequate runtime...
	job, err := rt.ResumeJob(JobOptions{Name: "ok"}, mid)
	if err != nil {
		t.Fatalf("resume after prior refusal: %v", err)
	}
	defer job.Close()
	// ...and only the successful resume claims it.
	if _, err := rt.ResumeJob(JobOptions{Name: "again"}, mid); !errors.Is(err, ErrResumeDuplicate) {
		t.Fatalf("second resume of one capture: %v, want ErrResumeDuplicate", err)
	}
}

// TestCheckpointSingleRunAndNotRecording pins the API edges: Checkpoint on
// an unrecorded job fails with ErrNotRecording, and a recorded job refuses
// a second Run (the journal keys rounds by split path, which a rerun would
// collide with).
func TestCheckpointSingleRunAndNotRecording(t *testing.T) {
	defer leakcheck.Check(t)()

	plain := New(Options{MaxPool: 4})
	var buf bytes.Buffer
	if err := plain.Checkpoint(&buf); !errors.Is(err, ErrNotRecording) {
		t.Fatalf("Checkpoint on unrecorded job: %v, want ErrNotRecording", err)
	}
	if _, err := plain.CheckpointState(); !errors.Is(err, ErrNotRecording) {
		t.Fatalf("CheckpointState on unrecorded job: %v, want ErrNotRecording", err)
	}

	job := New(Options{MaxPool: 4, Checkpoint: &CheckpointPolicy{Store: &checkpoint.MemStore{}}})
	noop := func(p *P) error { return nil }
	if err := job.Run(noop); err != nil {
		t.Fatalf("first run: %v", err)
	}
	err := job.Run(noop)
	if err == nil || !strings.Contains(err.Error(), "single Run") {
		t.Fatalf("second run on recorded job: %v, want single-Run refusal", err)
	}
}

// TestCheckpointDivergence resumes a checkpoint with a program whose control
// flow differs from the recorded one; the runtime must detect the mismatch
// and fail with ErrCheckpointDiverged rather than silently mixing histories.
func TestCheckpointDivergence(t *testing.T) {
	defer leakcheck.Check(t)()

	prog := func(job *Tuner, second string) error {
		return job.Run(func(p *P) error {
			for _, name := range []string{"a", second} {
				if _, err := p.Region(RegionSpec{Name: name, Samples: 2}, func(sp *SP) error {
					sp.Commit("v", 1.0)
					return nil
				}); err != nil {
					return err
				}
			}
			return nil
		})
	}

	cs := &captureStore{}
	src := New(Options{MaxPool: 4, Seed: 5, Checkpoint: &CheckpointPolicy{Store: cs, Every: 1}})
	if err := prog(src, "a2"); err != nil {
		t.Fatalf("source run: %v", err)
	}
	snaps := cs.snapshots()
	if len(snaps) < 2 {
		t.Fatalf("expected two auto-checkpoints, got %d", len(snaps))
	}
	// The second auto-checkpoint's frontier covers both recorded regions.
	st, err := checkpoint.DecodeBytes(snaps[1])
	if err != nil || st.Complete {
		t.Fatalf("checkpoint 1: err=%v complete=%v", err, st != nil && st.Complete)
	}

	rt := NewRuntime(RuntimeOptions{MaxPool: 4})
	job, err := rt.ResumeJob(JobOptions{}, st)
	if err != nil {
		t.Fatalf("ResumeJob: %v", err)
	}
	defer job.Close()
	if err := prog(job, "b"); !errors.Is(err, ErrCheckpointDiverged) {
		t.Fatalf("divergent resume: %v, want ErrCheckpointDiverged", err)
	}
}
