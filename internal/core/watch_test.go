package core

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// onWorker reports whether its caller runs on a round's worker goroutine:
// regionState.worker is at the root of its stack.
func onWorker() bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*regionState).worker") {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestCancellableRoundRunsInline: every round runs each body on the worker
// that claimed it — no goroutine per sample — whatever can end its attempts:
// a cancellable context, a per-sample deadline, a region budget, or nothing
// at all.
func TestCancellableRoundRunsInline(t *testing.T) {
	for _, tc := range []struct {
		name        string
		cancellable bool
		fault       FaultPolicy
	}{
		{"cancellable context", true, FaultPolicy{}},
		{"sample timeout", false, FaultPolicy{SampleTimeout: time.Minute}},
		{"region budget", false, FaultPolicy{RegionBudget: time.Minute}},
		{"plain run", false, FaultPolicy{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var off atomic.Int64
			prog := func(p *P) error {
				_, err := p.Region(RegionSpec{Name: "inline", Samples: 64}, func(sp *SP) error {
					if !onWorker() {
						off.Add(1)
					}
					sp.Commit("v", 1.0)
					return nil
				})
				return err
			}
			tuner := New(Options{MaxPool: 2, Seed: 1, Fault: tc.fault})
			var err error
			if tc.cancellable {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				err = tuner.RunContext(ctx, prog)
			} else {
				err = tuner.Run(prog)
			}
			if err != nil {
				t.Fatal(err)
			}
			if n := off.Load(); n > 0 {
				t.Fatalf("%d of 64 samples ran off their worker's goroutine", n)
			}
		})
	}
}
