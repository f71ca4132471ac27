package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/obs"
)

// heapAlloc is the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFinishedJobsBounded pushes 5 000 short checkpointed jobs through one
// manager. The manager may remember the last maxFinished of them and no
// more, its heap must be as large after job 5 000 as after job 2 000, every
// job's context must be cancelled by the time the job is at rest (so it is
// no longer registered under the manager's base context), and a job's final
// status must be readable the moment it finishes.
func TestFinishedJobsBounded(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	const (
		total = 5000
		batch = 8
	)
	var (
		mu   sync.Mutex
		ctxs = make(map[string]context.Context) // live jobs only
	)
	reg := NewRegistry()
	reg.Register("tune", func(spec core.JobSpec) (RunFunc, error) {
		run := tuneProgram(2, 0, nil)
		return func(ctx context.Context, tu *core.Tuner, emit func(Round)) (string, error) {
			mu.Lock()
			ctxs[spec.Name] = ctx
			mu.Unlock()
			if spec.Args["fail"] != "" {
				return "", errors.New("asked to fail")
			}
			return run(ctx, tu, emit)
		}, nil
	})
	m := NewManager(Options{
		Runtime:  core.NewRuntime(core.RuntimeOptions{MaxPool: 4}),
		Programs: reg, Store: &checkpoint.MemStore{}, MaxRunning: 2,
	})
	defer m.Close()

	name := func(i int) string { return fmt.Sprintf("job-%d", i) }
	var at2000 uint64
	for done := 0; done < total; done += batch {
		for i := done; i < done+batch; i++ {
			// Few seeds: internal/dist caches random streams by seed, and that
			// cache filling up is not what this test measures.
			spec := core.JobSpec{Name: name(i), Program: "tune", Seed: int64(i % 16), Checkpoint: &core.CheckpointSpec{Every: 1}}
			if i%97 == 0 {
				spec.Args = map[string]string{"fail": "1"}
			}
			mustSubmit(t, m, spec)
		}
		m.mu.Lock()
		known := len(m.jobs)
		m.mu.Unlock()
		if known > maxFinished+batch {
			t.Fatalf("after %d jobs the manager knows %d, more than %d finished + %d live", done+batch, known, maxFinished, batch)
		}
		for i := done; i < done+batch; i++ {
			final, err := m.Wait(context.Background(), name(i))
			if err != nil {
				t.Fatalf("Wait(%s): %v", name(i), err)
			}
			want := StateCompleted
			if i%97 == 0 {
				want = StateFailed
			}
			if final.State != want || (want == StateCompleted && (final.Result == "" || final.Rounds != 2)) {
				t.Fatalf("%s finished as %+v, want %s", name(i), final, want)
			}
			if got, err := m.Get(name(i)); err != nil || got.State != final.State || got.Result != final.Result {
				t.Fatalf("Get(%s) right after it finished = %+v, %v; want what Wait returned", name(i), got, err)
			}
			mu.Lock()
			ctx := ctxs[name(i)]
			delete(ctxs, name(i))
			mu.Unlock()
			if ctx == nil || ctx.Err() == nil {
				t.Fatalf("%s is at rest and its context is not cancelled: it is still a child of the manager's", name(i))
			}
		}
		if done+batch == 2000 {
			at2000 = heapAlloc()
		}
	}
	if grown := int64(heapAlloc()) - int64(at2000); grown > 1<<20 {
		t.Errorf("heap grew by %d KiB between job 2000 and job %d; finished jobs are being kept", grown>>10, total)
	}

	if list := m.List(); len(list) != maxFinished {
		t.Errorf("List returns %d jobs, want the last %d", len(list), maxFinished)
	}
	if _, err := m.Get(name(0)); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get of a job forgotten long ago = %v, want ErrNotFound", err)
	}
	if _, err := m.Get(name(total - maxFinished)); err != nil {
		t.Errorf("Get of the oldest remembered job: %v", err)
	}
	mustSubmit(t, m, core.JobSpec{Name: name(0), Program: "tune", Seed: 1}) // a forgotten name is free again
	if _, err := m.Wait(context.Background(), name(0)); err != nil {
		t.Fatal(err)
	}
}

// TestCancelledQueuedJobsBounded: jobs cancelled while queued never run, and
// are forgotten like any other finished job.
func TestCancelledQueuedJobsBounded(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	release := make(chan struct{})
	m := NewManager(Options{
		Runtime:  core.NewRuntime(core.RuntimeOptions{MaxPool: 4}),
		Programs: testRegistry(release), MaxRunning: 1,
	})
	defer m.Close()
	mustSubmit(t, m, core.JobSpec{Name: "holder", Program: "wait"})
	for i := 0; i < maxFinished+10; i++ {
		name := fmt.Sprintf("queued-%d", i)
		mustSubmit(t, m, core.JobSpec{Name: name, Program: "wait"})
		if err := m.Cancel(name); err != nil {
			t.Fatal(err)
		}
		if st, err := m.Get(name); err != nil || st.State != StateCancelled {
			t.Fatalf("Get(%s) right after its cancel = %+v, %v", name, st, err)
		}
	}
	if got := len(m.List()); got != maxFinished+1 {
		t.Fatalf("manager knows %d jobs, want %d cancelled + the running one", got, maxFinished)
	}
	close(release)
}

// seriesCount is how many series the registry exposes.
func seriesCount(reg *obs.Registry) (n int) {
	for _, f := range reg.Snapshot() {
		n += len(f.Series)
	}
	return n
}

// TestForgottenJobsLeaveNoSeries: the Runtime files a set of job=<name> series
// for every job, so a manager that forgets a finished job must take them out
// of the registry too. After the first maxFinished uniquely named jobs the
// series count stays where it is for the next 2*maxFinished.
func TestForgottenJobsLeaveNoSeries(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	oreg := obs.NewRegistry()
	reg := NewRegistry()
	reg.Register("tune", func(core.JobSpec) (RunFunc, error) { return tuneProgram(1, 0, nil), nil })
	m := NewManager(Options{
		Runtime:  core.NewRuntime(core.RuntimeOptions{MaxPool: 4, Obs: oreg}),
		Programs: reg, MaxRunning: 2, Obs: oreg,
	})
	defer m.Close()

	const batch = 8
	var full int
	for done := 0; done < 3*maxFinished; done += batch {
		for i := done; i < done+batch; i++ {
			mustSubmit(t, m, core.JobSpec{Name: fmt.Sprintf("job-%d", i), Program: "tune", Seed: int64(i % 16)})
		}
		for i := done; i < done+batch; i++ {
			if _, err := m.Wait(context.Background(), fmt.Sprintf("job-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if (done+batch)%128 != 0 {
			continue // a snapshot walks every series
		}
		switch n := seriesCount(oreg); {
		case done+batch == maxFinished:
			full = n
		case done+batch > maxFinished && n != full:
			t.Fatalf("after %d jobs the registry holds %d series, %d after the first %d", done+batch, n, full, maxFinished)
		}
	}
	if perJob := full / maxFinished; perJob < 5 {
		t.Fatalf("%d series for %d jobs: the jobs are not labelled, the test measures nothing", full, maxFinished)
	}
}
