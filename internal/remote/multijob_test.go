package remote

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/leakcheck"
	"repro/internal/strategy"
)

// multiJobProgram runs a feedback-driven program with exposed @load state on
// the given job handle and returns a dump of its complete observable output.
func multiJobProgram(t *testing.T, job *core.Tuner, region string) string {
	t.Helper()
	var dump string
	err := job.Run(func(p *core.P) error {
		p.Expose("bias", 0.25)
		spec := core.RegionSpec{
			Name:     region,
			Samples:  6,
			Strategy: strategy.MCMC(strategy.MCMCOptions{}),
			Score:    func(sp *core.SP) float64 { return sp.MustGet("y").(float64) },
		}
		body := func(sp *core.SP) error {
			x := sp.Float("x", dist.Uniform(0, 1))
			sp.Work(0.125)
			sp.Commit("y", x+sp.Load("bias").(float64))
			return nil
		}
		for round := 0; round < 3; round++ {
			res, err := p.Region(spec, body)
			if err != nil {
				return err
			}
			dump += fmt.Sprintf("round %d:\n%s", round, dumpRegion(res))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return dump
}

// snapCount reports how many decoded snapshots a worker currently caches,
// and for how many distinct jobs.
func snapCount(w *Worker) (snaps, jobs int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.snaps), len(w.snapOrder)
}

// TestJobCloseReleasesRemoteSnapshots checks the job-shutdown path: closing
// a job handle evicts its snapshot namespace from every worker (via the
// end-job frame) while co-tenant namespaces survive, and a job cancelled
// mid-run leaves no scheduler slots behind. leakcheck covers the goroutines.
func TestJobCloseReleasesRemoteSnapshots(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	reg := NewRegistry()
	f := newFleet(t, 1, 4, ExecutorOptions{Registry: reg, Dynamic: true}, WorkerOptions{Registry: reg})
	rt := core.NewRuntime(core.RuntimeOptions{MaxPool: 4, Executor: f.ex})
	w := f.workers[0]

	a := rt.NewJob(core.JobOptions{Name: "a", Seed: 1})
	b := rt.NewJob(core.JobOptions{Name: "b", Seed: 2})
	multiJobProgram(t, a, "cla")
	multiJobProgram(t, b, "clb")
	if snaps, jobs := snapCount(w); snaps < 2 || jobs != 2 {
		t.Fatalf("worker caches %d snapshots across %d jobs, want both jobs present", snaps, jobs)
	}

	a.Close()
	waitFor(t, "job a's snapshots evicted", func() bool {
		snaps, jobs := snapCount(w)
		return jobs == 1 && snaps >= 1
	})
	b.Close()
	waitFor(t, "job b's snapshots evicted", func() bool {
		snaps, jobs := snapCount(w)
		return jobs == 0 && snaps == 0
	})
	// Nothing the executor still reaches may reference an ended job's
	// snapshot: not its version cache, not a worker's sent index, and not a
	// call left behind in a vacated slot of the queue's backing array (six
	// samples a round over four slots: calls did queue).
	f.ex.snapMu.Lock()
	cached := len(f.ex.snaps)
	f.ex.snapMu.Unlock()
	if cached != 0 {
		t.Errorf("%d jobs still in the dispatcher's snapshot cache after both ended", cached)
	}
	if sent := sentCounts(f.ex); sent[0] != 0 {
		t.Errorf("%d snapshot versions of ended jobs still in the worker's sent index", sent[0])
	}
	for i, qc := range queueBacking(f.ex) {
		if qc != nil {
			t.Errorf("queue slot %d still references call %d of an ended job", i, qc.id)
		}
	}

	// A cancelled job must return its scheduler slots even with samples in
	// flight at cancellation time.
	c := rt.NewJob(core.JobOptions{Name: "c", Seed: 3})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_ = c.RunContext(ctx, func(p *core.P) error {
		p.Expose("bias", 0.25)
		_, err := p.Region(core.RegionSpec{Name: "clc", Samples: 64}, func(sp *core.SP) error {
			sp.Float("x", dist.Uniform(0, 1))
			time.Sleep(2 * time.Millisecond)
			return nil
		})
		return err
	})
	cancel()
	c.Close()
	if c.SlotsInUse() != 0 {
		t.Fatalf("cancelled job still holds %d slots", c.SlotsInUse())
	}
	waitFor(t, "runtime drained after cancel", func() bool { return rt.InUse() == 0 })
}

// waitFor polls cond until it holds or a generous deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
