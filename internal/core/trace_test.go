package core

import (
	"strings"
	"testing"
)

func TestTraceRecordsLifecycle(t *testing.T) {
	tr := NewTrace()
	tuner := New(Options{MaxPool: 8, Seed: 1, Trace: tr})
	run(t, tuner, func(p *P) error {
		res, err := p.Region(RegionSpec{Name: "stage1", Samples: 6}, func(sp *SP) error {
			sp.Check(sp.Index() != 0) // prune one
			sp.Commit("v", 1.0)
			return nil
		})
		if err != nil {
			return err
		}
		_ = res
		p.Split(func(c *P) error {
			_, err := c.Region(RegionSpec{Name: "stage2", Samples: 2}, func(sp *SP) error {
				return nil
			})
			return err
		})
		return p.Wait()
	})

	counts := map[EventKind]int{}
	for _, e := range tr.Events() {
		counts[e.Kind]++
	}
	if counts[EvRegionStart] != 2 || counts[EvRegionEnd] != 2 {
		t.Fatalf("region events: %v", counts)
	}
	if counts[EvRoundStart] != 2 {
		t.Fatalf("round events: %v", counts)
	}
	if counts[EvSampleDone] != 5+2 || counts[EvSamplePruned] != 1 {
		t.Fatalf("sample events: %v", counts)
	}
	if counts[EvSplit] != 1 {
		t.Fatalf("split events: %v", counts)
	}
}

func TestTraceTreeRendering(t *testing.T) {
	tr := NewTrace()
	tuner := New(Options{MaxPool: 8, Seed: 2, Trace: tr})
	run(t, tuner, func(p *P) error {
		_, err := p.Region(RegionSpec{Name: "alpha", Samples: 4}, func(sp *SP) error {
			return nil
		})
		return err
	})
	tree := tr.Tree()
	if !strings.Contains(tree, "region alpha") {
		t.Fatalf("tree missing region: %q", tree)
	}
	if !strings.Contains(tree, "samples=4") {
		t.Fatalf("tree missing sample count: %q", tree)
	}
	if !strings.Contains(tree, "0 splits") {
		t.Fatalf("tree missing split count: %q", tree)
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	// Options without a trace must not panic anywhere in the lifecycle.
	tuner := New(Options{MaxPool: 4, Seed: 3})
	run(t, tuner, func(p *P) error {
		p.Split(func(c *P) error { return nil })
		_, err := p.Region(RegionSpec{Name: "r", Samples: 2}, func(sp *SP) error {
			sp.Check(sp.Index() == 0)
			return nil
		})
		return err
	})
	var nilTrace *Trace
	if got := nilTrace.Events(); got != nil {
		t.Fatal("nil trace Events should be nil")
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvRegionStart, EvRoundStart, EvSampleDone,
		EvSamplePruned, EvSampleFailed, EvRegionEnd, EvSplit, EventKind(99)}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has bad name %q", k, s)
		}
		seen[s] = true
	}
}

// setClock installs a deterministic clock used to stamp events (e.g. a
// logical counter for byte-identical replay exports); nil restores the wall
// clock. The clock is called under the trace lock, so a plain closure over a
// counter is race-free and stamps events in collection order.
func (tr *Trace) setClock(fn func() int64) {
	tr.mu.Lock()
	tr.clock = fn
	tr.mu.Unlock()
}
