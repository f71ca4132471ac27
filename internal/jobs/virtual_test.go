//go:build goexperiment.synctest

//go:debug asynctimerchan=0

// Quota tests on a virtual clock: each builds its manager inside a synctest
// bubble, so a job "stays queued" when every goroutine of the bubble is
// blocked, and a rate limit's refill is exact. Run them with
//
//	GOEXPERIMENT=synctest go test -run '^TestVirtual' ./internal/jobs/

package jobs

import (
	"fmt"
	"testing"
	"testing/synctest"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// stateCounts renders how many of m's jobs are in each state.
func stateCounts(m *Manager) string {
	n := make(map[State]int)
	for _, st := range m.List() {
		n[st.State]++
	}
	return fmt.Sprint(n)
}

// TestVirtualQuotaEnforcedOnResume: two checkpointed jobs of one tenant,
// interrupted by a shutdown, resume under a manager that caps the tenant at
// one running job. Once the bubble settles, exactly one runs and the other
// stays queued; released, both complete from their checkpoints.
func TestVirtualQuotaEnforcedOnResume(t *testing.T) {
	synctest.Run(func() {
		store := &checkpoint.MemStore{}
		newReg := func(g <-chan struct{}) *Registry {
			reg := NewRegistry()
			reg.Register("ckpt", func(spec core.JobSpec) (RunFunc, error) {
				return tuneProgram(3, 1, g), nil
			})
			return reg
		}

		rt1 := core.NewRuntime(core.RuntimeOptions{MaxPool: 4})
		m1 := NewManager(Options{Runtime: rt1, Programs: newReg(make(chan struct{})), Store: store, MaxRunning: 4})
		ck := &core.CheckpointSpec{Every: 1}
		mustSubmit(t, m1, core.JobSpec{Name: "r1", Program: "ckpt", Tenant: "acme", Seed: 1, Checkpoint: ck})
		mustSubmit(t, m1, core.JobSpec{Name: "r2", Program: "ckpt", Tenant: "acme", Seed: 2, Checkpoint: ck})
		synctest.Wait() // both parked at the gate, a checkpoint each
		for _, name := range []string{"r1", "r2"} {
			if st, _ := m1.Get(name); st.Checkpoints == 0 {
				t.Fatalf("%s parked without a checkpoint: %+v", name, st)
			}
		}
		m1.Close() // interrupts both mid-gate; specs and checkpoints persist

		gate2 := make(chan struct{})
		rt2 := core.NewRuntime(core.RuntimeOptions{MaxPool: 4})
		m2 := NewManager(Options{
			Runtime: rt2, Programs: newReg(gate2), Store: store, MaxRunning: 4,
			Quotas: map[string]TenantQuota{"acme": {MaxRunning: 1}},
		})
		defer m2.Close()
		requeued, resuming, err := m2.Recover()
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if requeued != 0 || resuming != 2 {
			t.Fatalf("Recover = (%d requeued, %d resuming), want (0, 2)", requeued, resuming)
		}
		synctest.Wait()
		if got, want := stateCounts(m2), fmt.Sprint(map[State]int{StateQueued: 1, StateRunning: 1}); got != want {
			t.Fatalf("resumed tenant footprint %s, want %s", got, want)
		}
		close(gate2)
		synctest.Wait()
		if got, want := stateCounts(m2), fmt.Sprint(map[State]int{StateCompleted: 2}); got != want {
			t.Fatalf("after release: %s, want %s", got, want)
		}
		for _, st := range m2.List() {
			if !st.Resumed {
				t.Fatalf("job %s completed without resuming its checkpoint", st.Spec.Name)
			}
		}
	})
}

// TestVirtualTokenBucketRefill: a tenant's submission bucket refills at
// RatePerSec, so after its one burst token is spent the next submission is
// refused one tick before 1/RatePerSec and admitted at it.
func TestVirtualTokenBucketRefill(t *testing.T) {
	synctest.Run(func() {
		const rate = 4 // a refill every 250 ms, exact in binary
		q := TenantQuota{RatePerSec: rate, Burst: 1}
		m := &Manager{buckets: make(map[string]*bucket)}
		m.mu.Lock()
		defer m.mu.Unlock()
		allow := func(tenant string) bool { return m.allowLocked(tenant, q) }
		// Two tenants spend their token at the same instant; each is then
		// asked once, so a refusal's bookkeeping cannot shift the other.
		got := fmt.Sprint(allow("early"), allow("early"), allow("on-time"), allow("on-time"))
		time.Sleep(time.Second/rate - time.Nanosecond)
		got += fmt.Sprint(" one tick early: ", allow("early"))
		time.Sleep(time.Nanosecond)
		got += fmt.Sprint(", on time: ", allow("on-time"))
		if want := "true false true false one tick early: false, on time: true"; got != want {
			t.Fatalf("admissions %q, want %q", got, want)
		}
	})
}
