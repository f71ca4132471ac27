package jobs

import (
	"context"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/leakcheck"
)

// TestRestartRecovery is the kill-and-restart integration test: a durable
// manager dies with one checkpointed job mid-run and two more still queued;
// a fresh manager over the same directory, opened anew, must resume the
// checkpointed job (not restart it), re-admit the queued specs exactly once
// each, and drive everything to results byte-identical to an uninterrupted
// run.
func TestRestartRecovery(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	dir := t.TempDir()
	store, err := checkpoint.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	newReg := func(g <-chan struct{}) *Registry {
		reg := NewRegistry()
		reg.Register("ckpt", func(spec core.JobSpec) (RunFunc, error) {
			return tuneProgram(3, 1, g), nil
		})
		reg.Register("tune", func(spec core.JobSpec) (RunFunc, error) {
			return tuneProgram(3, 0, nil), nil
		})
		return reg
	}
	specs := []core.JobSpec{
		{Name: "front", Program: "ckpt", Seed: 11, Checkpoint: &core.CheckpointSpec{Every: 1}},
		{Name: "mid", Program: "tune", Seed: 22},
		{Name: "back", Program: "tune", Seed: 33, Class: core.PriorityLow},
	}

	// Reference: every spec run uninterrupted through the direct path.
	want := make(map[string]string)
	for _, s := range specs {
		ref, _, err := RunDirect(context.Background(), core.NewRuntime(core.RuntimeOptions{MaxPool: 4}),
			newReg(closedChan()), s)
		if err != nil {
			t.Fatalf("RunDirect(%s): %v", s.Name, err)
		}
		want[s.Name] = ref
	}

	// Life 1: "front" runs to its round-1 checkpoint and parks on the gate;
	// MaxRunning=1 keeps "mid" and "back" queued. Close models the kill.
	gate1 := make(chan struct{})
	m1 := NewManager(Options{
		Runtime:  core.NewRuntime(core.RuntimeOptions{MaxPool: 4}),
		Programs: newReg(gate1),
		Store:    store, MaxRunning: 1,
	})
	for _, s := range specs {
		mustSubmit(t, m1, s)
	}
	waitCond(t, "front checkpointed", func() bool {
		s, _ := m1.Get("front")
		return s.Checkpoints > 0
	})
	if s, _ := m1.Get("mid"); s.State != StateQueued {
		t.Fatalf("mid state %q before shutdown, want queued", s.State)
	}
	m1.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Life 2: recover from the same directory, its index rebuilt from the log.
	if store, err = checkpoint.NewDirStore(dir); err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	m2 := NewManager(Options{
		Runtime:  core.NewRuntime(core.RuntimeOptions{MaxPool: 4}),
		Programs: newReg(closedChan()),
		Store:    store, MaxRunning: 1,
	})
	defer m2.Close()
	requeued, resuming, err := m2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if requeued != 2 || resuming != 1 {
		t.Fatalf("Recover = (%d requeued, %d resuming), want (2, 1)", requeued, resuming)
	}
	waitCond(t, "all recovered jobs complete", func() bool {
		for _, st := range m2.List() {
			if st.State != StateCompleted {
				return false
			}
		}
		return true
	})

	list := m2.List()
	if len(list) != 3 {
		t.Fatalf("recovered manager knows %d jobs, want 3 (no duplicates, no losses)", len(list))
	}
	for _, st := range list {
		if st.Result != want[st.Spec.Name] {
			t.Fatalf("%s result diverges from uninterrupted run:\n got %q\nwant %q",
				st.Spec.Name, st.Result, want[st.Spec.Name])
		}
	}
	front, _ := m2.Get("front")
	if !front.Resumed {
		t.Fatal("checkpointed job was restarted from scratch, not resumed")
	}
	if mid, _ := m2.Get("mid"); mid.Resumed {
		t.Fatal("queued job claims to have resumed a checkpoint")
	}

	// Completed jobs clean their durable state: a third manager finds
	// nothing to recover — nothing duplicates.
	m3 := NewManager(Options{
		Runtime:  core.NewRuntime(core.RuntimeOptions{MaxPool: 4}),
		Programs: newReg(closedChan()),
		Store:    store,
	})
	defer m3.Close()
	requeued, resuming, err = m3.Recover()
	if err != nil || requeued != 0 || resuming != 0 {
		t.Fatalf("Recover after clean completion = (%d, %d, %v), want (0, 0, nil)", requeued, resuming, err)
	}
}

// closedChan returns an already-released gate.
func closedChan() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}
