package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/leakcheck"
	"repro/internal/strategy"
)

// tuneProgram is the deterministic reference program the jobs tests run: a
// fixed number of MCMC rounds over one region, emitting a Round per round
// and folding every round's best score into the result string. gate, when
// non-nil, blocks after gateAfter completed rounds until released (or the
// job is cancelled) — the hook that lets tests park a job mid-run with a
// checkpoint already written.
func tuneProgram(rounds, gateAfter int, gate <-chan struct{}) RunFunc {
	return func(ctx context.Context, t *core.Tuner, emit func(Round)) (string, error) {
		var out strings.Builder
		err := t.RunContext(ctx, func(p *core.P) error {
			spec := core.RegionSpec{
				Name:     "svc",
				Samples:  4,
				Strategy: strategy.MCMC(strategy.MCMCOptions{}),
				Score:    func(sp *core.SP) float64 { return sp.MustGet("y").(float64) },
			}
			body := func(sp *core.SP) error {
				x := sp.Float("x", dist.Uniform(0, 1))
				sp.Work(0.125)
				sp.Commit("y", 2*x)
				return nil
			}
			for r := 0; r < rounds; r++ {
				res, err := p.Region(spec, body)
				if err != nil {
					return err
				}
				fmt.Fprintf(&out, "r%d best=%v\n", r, res.BestScore())
				emit(Round{Region: "svc", Score: res.BestScore()})
				if gate != nil && r+1 == gateAfter {
					select {
					case <-gate:
					case <-ctx.Done():
						return ctx.Err()
					}
				}
			}
			return nil
		})
		return out.String(), err
	}
}

// waitProgram parks until released (or cancelled) and then returns done.
// It never touches the tuner — the cheap filler job for queue tests.
func waitProgram(release <-chan struct{}) RunFunc {
	return func(ctx context.Context, t *core.Tuner, emit func(Round)) (string, error) {
		select {
		case <-release:
			return "done", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

// testRegistry registers "tune" (3 deterministic rounds) and "wait"
// (blocks on release).
func testRegistry(release <-chan struct{}) *Registry {
	reg := NewRegistry()
	reg.Register("tune", func(spec core.JobSpec) (RunFunc, error) {
		return tuneProgram(3, 0, nil), nil
	})
	reg.Register("wait", func(spec core.JobSpec) (RunFunc, error) {
		return waitProgram(release), nil
	})
	return reg
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func mustSubmit(t *testing.T, m *Manager, spec core.JobSpec) Status {
	t.Helper()
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit(%s): %v", spec.Name, err)
	}
	return st
}

func TestJobLifecycleCompleted(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	rt := core.NewRuntime(core.RuntimeOptions{MaxPool: 4})
	m := NewManager(Options{Runtime: rt, Programs: testRegistry(nil)})
	defer m.Close()

	st := mustSubmit(t, m, core.JobSpec{Name: "a", Program: "tune", Seed: 5})
	if st.State != StateQueued && st.State != StateAdmitted && st.State != StateRunning {
		t.Fatalf("submit status state %q", st.State)
	}
	final, err := m.Wait(context.Background(), "a")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != StateCompleted {
		t.Fatalf("final state %q (err %q), want completed", final.State, final.Error)
	}
	if final.Result == "" || final.Rounds != 3 {
		t.Fatalf("final result %q rounds %d, want 3 rounds and a result", final.Result, final.Rounds)
	}

	// Identical spec through the direct path must produce identical bytes.
	direct, directRounds, err := RunDirect(context.Background(), core.NewRuntime(core.RuntimeOptions{MaxPool: 4}),
		testRegistry(nil), core.JobSpec{Name: "a", Program: "tune", Seed: 5})
	if err != nil {
		t.Fatalf("RunDirect: %v", err)
	}
	if direct != final.Result {
		t.Fatalf("managed result diverges from direct run:\nmanaged: %q\ndirect:  %q", final.Result, direct)
	}
	if len(directRounds) != final.Rounds {
		t.Fatalf("round counts differ: direct %d, managed %d", len(directRounds), final.Rounds)
	}
}

func TestSubmitRefusals(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	release := make(chan struct{})
	defer close(release)
	rt := core.NewRuntime(core.RuntimeOptions{MaxPool: 2})
	m := NewManager(Options{
		Runtime:    rt,
		Programs:   testRegistry(release),
		MaxRunning: 1,
		MaxQueued:  2,
		Quotas: map[string]TenantQuota{
			"throttled": {RatePerSec: 0.0001, Burst: 1},
			"small":     {MaxQueued: 1},
		},
	})
	defer m.Close()

	// Occupy the running set and the whole queue.
	mustSubmit(t, m, core.JobSpec{Name: "run1", Program: "wait"})
	waitCond(t, "run1 running", func() bool { s, _ := m.Get("run1"); return s.State == StateRunning })
	mustSubmit(t, m, core.JobSpec{Name: "q1", Program: "wait", Tenant: "small"})
	mustSubmit(t, m, core.JobSpec{Name: "q2", Program: "wait"})

	cases := []struct {
		name string
		spec core.JobSpec
		want error
	}{
		{"queue full", core.JobSpec{Name: "overflow", Program: "wait"}, ErrQueueFull},
		{"duplicate name", core.JobSpec{Name: "q1", Program: "wait"}, ErrDuplicate},
		{"unknown program", core.JobSpec{Name: "x1", Program: "nope"}, ErrUnknownProgram},
		{"invalid spec", core.JobSpec{Name: "", Program: "wait"}, core.ErrSpecInvalid},
		{"invalid name", core.JobSpec{Name: "../x", Program: "wait"}, core.ErrSpecInvalid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := m.Submit(tc.spec); !errors.Is(err, tc.want) {
				t.Fatalf("Submit = %v, want %v", err, tc.want)
			}
		})
	}

	// The quota refusals need queue headroom (the global ErrQueueFull check
	// fires first), so free one slot.
	if err := m.Cancel("q2"); err != nil {
		t.Fatalf("Cancel(q2): %v", err)
	}

	// Per-tenant queue share: "small" already has q1 queued (cap 1).
	if _, err := m.Submit(core.JobSpec{Name: "s2", Program: "wait", Tenant: "small"}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("tenant-queue Submit = %v, want ErrQuotaExceeded", err)
	}

	// Rate limit: the first throttled submission spends the whole burst, the
	// second is refused regardless of queue room.
	mustSubmit(t, m, core.JobSpec{Name: "t1", Program: "wait", Tenant: "throttled"})
	if _, err := m.Submit(core.JobSpec{Name: "t2", Program: "wait", Tenant: "throttled"}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("rate-limited Submit = %v, want ErrQuotaExceeded", err)
	}

	// Closed manager refuses everything.
	m.Close()
	if _, err := m.Submit(core.JobSpec{Name: "late", Program: "wait"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

// TestHighPriorityNotStarved: with the queue full of low-priority jobs and
// one job running, an arriving high-priority job is admitted at the very
// next job-completion boundary — never behind the earlier low-priority
// queue. Run with -race in CI.
func TestHighPriorityNotStarved(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	release := make(chan struct{})
	rt := core.NewRuntime(core.RuntimeOptions{MaxPool: 2})
	m := NewManager(Options{Runtime: rt, Programs: testRegistry(release), MaxRunning: 1, MaxQueued: 8})
	defer m.Close()

	mustSubmit(t, m, core.JobSpec{Name: "occupant", Program: "wait"})
	waitCond(t, "occupant running", func() bool { s, _ := m.Get("occupant"); return s.State == StateRunning })
	for i := 0; i < 6; i++ {
		mustSubmit(t, m, core.JobSpec{Name: fmt.Sprintf("low%d", i), Program: "wait", Class: core.PriorityLow})
	}
	mustSubmit(t, m, core.JobSpec{Name: "urgent", Program: "wait", Class: core.PriorityHigh})

	// One completion boundary: everything blocked on release is released at
	// once; the completion of "occupant" must admit "urgent" first.
	close(release)
	waitCond(t, "urgent running or done", func() bool {
		s, _ := m.Get("urgent")
		return s.State == StateRunning || s.State == StateCompleted
	})
	// At the instant urgent was admitted, every low job must still be behind
	// it (queued, or at best admitted after it — i.e. urgent is not queued).
	s, _ := m.Get("urgent")
	if s.State != StateRunning && s.State != StateCompleted {
		t.Fatalf("urgent state %q", s.State)
	}
	for _, st := range m.List() {
		if st.State == StateQueued && st.Spec.Class == core.PriorityHigh {
			t.Fatalf("high-priority job still queued after a completion boundary: %+v", st)
		}
	}
	waitCond(t, "all jobs drained", func() bool {
		for _, st := range m.List() {
			if !st.State.Terminal() {
				return false
			}
		}
		return true
	})
}

// TestPriorityOrderAcrossClasses: admissions out of a mixed queue go
// high → normal → low regardless of submission order.
func TestPriorityOrderAcrossClasses(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	release := make(chan struct{})
	rt := core.NewRuntime(core.RuntimeOptions{MaxPool: 2})

	var order []string
	reg := NewRegistry()
	done := make(chan struct{}, 16)
	var mu sync.Mutex
	reg.Register("note", func(spec core.JobSpec) (RunFunc, error) {
		name := spec.Name
		return func(ctx context.Context, t *core.Tuner, emit func(Round)) (string, error) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			done <- struct{}{}
			return "ok", nil
		}, nil
	})
	reg.Register("wait", func(spec core.JobSpec) (RunFunc, error) { return waitProgram(release), nil })

	m := NewManager(Options{Runtime: rt, Programs: reg, MaxRunning: 1, MaxQueued: 8})
	defer m.Close()
	mustSubmit(t, m, core.JobSpec{Name: "occupant", Program: "wait"})
	waitCond(t, "occupant running", func() bool { s, _ := m.Get("occupant"); return s.State == StateRunning })

	mustSubmit(t, m, core.JobSpec{Name: "low", Program: "note", Class: core.PriorityLow})
	mustSubmit(t, m, core.JobSpec{Name: "norm", Program: "note"})
	mustSubmit(t, m, core.JobSpec{Name: "high", Program: "note", Class: core.PriorityHigh})

	close(release)
	for i := 0; i < 3; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("jobs did not drain")
		}
	}
	mu.Lock()
	got := strings.Join(order, ",")
	mu.Unlock()
	if got != "high,norm,low" {
		t.Fatalf("admission order %q, want high,norm,low", got)
	}
}

// TestTenantRunningCap: a tenant at its running cap is skipped over — its
// queued jobs wait, other tenants' jobs admit past them.
func TestTenantRunningCap(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	release := make(chan struct{})
	rt := core.NewRuntime(core.RuntimeOptions{MaxPool: 2})
	m := NewManager(Options{
		Runtime: rt, Programs: testRegistry(release),
		MaxRunning: 3,
		Quotas:     map[string]TenantQuota{"capped": {MaxRunning: 1}},
	})
	defer m.Close()

	mustSubmit(t, m, core.JobSpec{Name: "c1", Program: "wait", Tenant: "capped"})
	mustSubmit(t, m, core.JobSpec{Name: "c2", Program: "wait", Tenant: "capped"})
	mustSubmit(t, m, core.JobSpec{Name: "other", Program: "wait", Tenant: "free"})

	waitCond(t, "c1 and other running", func() bool {
		a, _ := m.Get("c1")
		b, _ := m.Get("other")
		return a.State == StateRunning && b.State == StateRunning
	})
	if s, _ := m.Get("c2"); s.State != StateQueued {
		t.Fatalf("second capped-tenant job state %q, want queued past its cap", s.State)
	}
	// Finishing c1 releases the tenant slot; c2 admits.
	if err := m.Cancel("c1"); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "c2 admitted after c1 freed the cap", func() bool {
		s, _ := m.Get("c2")
		return s.State == StateRunning
	})
	close(release)
}

func TestCancelQueuedAndRunning(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	release := make(chan struct{})
	defer close(release)
	rt := core.NewRuntime(core.RuntimeOptions{MaxPool: 2})
	m := NewManager(Options{Runtime: rt, Programs: testRegistry(release), MaxRunning: 1})
	defer m.Close()

	mustSubmit(t, m, core.JobSpec{Name: "running", Program: "wait"})
	waitCond(t, "running", func() bool { s, _ := m.Get("running"); return s.State == StateRunning })
	mustSubmit(t, m, core.JobSpec{Name: "parked", Program: "wait"})

	if err := m.Cancel("parked"); err != nil {
		t.Fatal(err)
	}
	if s, _ := m.Get("parked"); s.State != StateCancelled {
		t.Fatalf("queued cancel state %q, want cancelled", s.State)
	}
	if err := m.Cancel("running"); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "running cancelled", func() bool {
		s, _ := m.Get("running")
		return s.State == StateCancelled
	})
	if err := m.Cancel("running"); err != nil {
		t.Fatalf("cancel of finished job must be a no-op, got %v", err)
	}
	if err := m.Cancel("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel of unknown job = %v, want ErrNotFound", err)
	}
}

// failCkptStore persists job specs but fails every checkpoint write.
type failCkptStore struct{ checkpoint.MemStore }

func (s *failCkptStore) Save(label string, data []byte) error {
	if strings.HasPrefix(label, ckptLabel("")) {
		return errors.New("checkpoint device full")
	}
	return s.MemStore.Save(label, data)
}

// TestCheckpointErrorInStatus checks that a job whose every checkpoint write
// fails still completes, and that its status, in Go and in JSON, names the
// failure.
func TestCheckpointErrorInStatus(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	m := NewManager(Options{
		Runtime:  core.NewRuntime(core.RuntimeOptions{MaxPool: 4}),
		Programs: testRegistry(nil), Store: &failCkptStore{},
	})
	defer m.Close()
	mustSubmit(t, m, core.JobSpec{Name: "j", Program: "tune", Seed: 1, Checkpoint: &core.CheckpointSpec{Every: 1}})
	st, err := m.Wait(context.Background(), "j")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCompleted || st.Checkpoints != 0 || !strings.Contains(st.CheckpointError, "checkpoint device full") {
		t.Fatalf("state %q, %d checkpoints, checkpoint error %q; want completed, 0, the store's error", st.State, st.Checkpoints, st.CheckpointError)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"checkpoint_error":"`) {
		t.Fatalf("status JSON has no checkpoint_error: %s", data)
	}
}
