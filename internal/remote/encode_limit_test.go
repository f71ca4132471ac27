package remote

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/leakcheck"
	"repro/internal/store"
)

// The 64MiB message cap is enforced where the bytes are produced, not where
// they would be rejected: an oversize snapshot fails the round over to the
// in-process path, and an oversize sample result degrades to a per-sample
// error instead of costing the connection.

func TestSnapshotForRejectsOversize(t *testing.T) {
	ex := NewExecutor(ExecutorOptions{Registry: Builtins()})
	defer ex.Close()
	e := store.NewExposed()
	e.Set("global", "big", strings.Repeat("x", maxMessage))
	if _, err := ex.snapshotFor(1, e); !errors.Is(err, ErrMessageTooBig) {
		t.Fatalf("snapshotFor on oversize store: %v, want ErrMessageTooBig", err)
	}
}

func TestOversizeSnapshotFallsBackInProcess(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	reg := NewRegistry()
	f := newFleet(t, 1, 2, ExecutorOptions{Registry: reg, Dynamic: true}, WorkerOptions{Registry: reg})
	big := strings.Repeat("x", maxMessage+1)
	tuner := core.New(core.Options{MaxPool: 2, Seed: 11, Executor: f.ex})
	err := tuner.Run(func(p *core.P) error {
		p.Expose("big", big)
		res, err := p.Region(core.RegionSpec{Name: "fallback", Samples: 3}, func(sp *core.SP) error {
			sp.Float("x", dist.Uniform(0, 1))
			sp.Commit("len", len(sp.Load("big").(string)))
			return nil
		})
		if err != nil {
			return err
		}
		for g := 0; g < res.N(); g++ {
			if res.Err(g) != nil {
				return fmt.Errorf("sample %d failed: %v", g, res.Err(g))
			}
			if n := res.MustValue("len", g).(int); n != maxMessage+1 {
				return fmt.Errorf("sample %d read %d bytes of exposed state", g, n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run did not fall back in-process: %v", err)
	}
}

func TestOversizeResultDegradesPerSample(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	reg := NewRegistry()
	f := newFleet(t, 1, 2, ExecutorOptions{Registry: reg, Dynamic: true}, WorkerOptions{Registry: reg})
	tuner := core.New(core.Options{MaxPool: 2, Seed: 17, Executor: f.ex})
	err := tuner.Run(func(p *core.P) error {
		res, err := p.Region(core.RegionSpec{Name: "oversize", Samples: 2}, func(sp *core.SP) error {
			k := sp.Int("k", dist.IntRange(0, 9))
			if sp.Index() == 0 {
				// One sample's commit alone exceeds the wire cap.
				sp.Commit("v", strings.Repeat("y", maxMessage+1))
			} else {
				sp.Commit("v", fmt.Sprintf("small-%d", k))
			}
			return nil
		})
		if err != nil {
			return err
		}
		if e := res.Err(0); e == nil || !strings.Contains(fmt.Sprint(e), "64MiB") {
			return fmt.Errorf("oversize sample error = %v, want the wire-limit message", e)
		}
		if e := res.Err(1); e != nil {
			return fmt.Errorf("batch sibling poisoned: %v", e)
		}
		if v := res.MustValue("v", 1).(string); !strings.HasPrefix(v, "small-") {
			return fmt.Errorf("sibling value %q", v)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
