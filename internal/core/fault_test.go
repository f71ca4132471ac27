package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// counterClock returns a logical clock for deterministic trace stamps.
func counterClock() func() int64 {
	var n int64
	return func() int64 { n++; return n }
}

// Backoff is exponential with deterministic jitter from the region seed.
func TestBackoffDeterministicJitter(t *testing.T) {
	fp := FaultPolicy{Backoff: time.Millisecond, BackoffFactor: 2, MaxBackoff: time.Second}
	if a, b := fp.backoff(1, 3, 2), fp.backoff(1, 3, 2); a != b {
		t.Fatalf("same inputs, different backoff: %v vs %v", a, b)
	}
	if a, b := fp.backoff(1, 3, 2), fp.backoff(2, 3, 2); a == b {
		t.Fatalf("seed not mixed into jitter: %v", a)
	}
	if a, b := fp.backoff(1, 3, 2), fp.backoff(1, 4, 2); a == b {
		t.Fatalf("group not mixed into jitter: %v", a)
	}
	// Exponential growth: attempt 6 delay stays within [0.5, 1.5) of
	// base*factor^4 and never exceeds the cap.
	d := fp.backoff(9, 0, 6)
	if d < 8*time.Millisecond || d > 24*time.Millisecond {
		t.Fatalf("attempt-6 backoff %v outside jittered exponential envelope", d)
	}
	for attempt := 2; attempt < 40; attempt++ {
		if d := fp.backoff(5, 1, attempt); d > time.Second {
			t.Fatalf("backoff %v exceeds cap at attempt %d", d, attempt)
		}
	}
}

// DegradeEmpty turns the all-failed error into an inspectable empty result;
// without it the historical error is preserved.
func TestDegradeEmptyPolicy(t *testing.T) {
	body := func(sp *SP) error { return errors.New("down") }
	strict := New(Options{MaxPool: 2, Seed: 1})
	err := strict.Run(func(p *P) error {
		_, err := p.Region(RegionSpec{Name: "r", Samples: 2}, body)
		return err
	})
	if err == nil {
		t.Fatal("all-failed region without DegradeEmpty must error")
	}
	soft := New(Options{MaxPool: 2, Seed: 1, Fault: FaultPolicy{DegradeEmpty: true}})
	run(t, soft, func(p *P) error {
		res, err := p.Region(RegionSpec{Name: "r", Samples: 2}, body)
		if err != nil {
			return err
		}
		if !res.Degraded() || res.Len("v") != 0 {
			return fmt.Errorf("unexpected degraded result: %v", res)
		}
		return nil
	})
}

// panicHelperForStackTest exists so the recovered panic's stack provably
// names the frame that crashed.
func panicHelperForStackTest() {
	panic("kaboom in helper")
}

// The contained-panic error must preserve the original stack (the fix for
// the message that used to lose it).
func TestContainedPanicKeepsStack(t *testing.T) {
	tuner := New(Options{MaxPool: 2, Seed: 1})
	var res *Result
	run(t, tuner, func(p *P) error {
		var err error
		res, err = p.Region(RegionSpec{Name: "r", Samples: 2}, func(sp *SP) error {
			if sp.Index() == 0 {
				panicHelperForStackTest()
			}
			sp.Commit("v", 1.0)
			return nil
		})
		return err
	})
	err := res.Err(0)
	if err == nil {
		t.Fatal("panicking sample reported no error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "kaboom in helper") {
		t.Fatalf("panic value lost: %q", msg)
	}
	if !strings.Contains(msg, "panicHelperForStackTest") || !strings.Contains(msg, "goroutine") {
		t.Fatalf("panic error lost the original stack:\n%s", msg)
	}
}

func TestFaultEventKindStrings(t *testing.T) {
	for _, k := range []EventKind{EvSampleTimeout, EvSampleRetry, EvRegionDegraded} {
		if s := k.String(); s == "" || s == "unknown" {
			t.Fatalf("kind %d has bad name %q", k, s)
		}
	}
}
