// Package leakcheck is a tiny in-tree goroutine-leak checker (goleak-style,
// no external dependencies). It verifies two things at the end of a test:
// that the process goroutine count returned to its baseline (within a
// tolerance for runtime background goroutines), and that no goroutine is
// still executing this module's code — the check that actually names the
// leaker when the sampling runtime fails to drain.
package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// modulePrefix identifies this module's frames in goroutine stacks.
const modulePrefix = "repro/internal"

// settleTimeout bounds how long Check waits for goroutines to drain before
// declaring a leak. Abandoned sampler bodies unwind as soon as their context
// fires, so well under a second in practice.
const settleTimeout = 5 * time.Second

// Check snapshots the goroutine state and returns a function to defer: at
// test end it polls until every module goroutine has exited and the total
// count is back to the baseline (+tolerance), failing the test with the
// offending stacks otherwise.
//
//	defer leakcheck.Check(t)()
func Check(tb testing.TB) func() {
	tb.Helper()
	base := runtime.NumGoroutine()
	return func() {
		tb.Helper()
		deadline := time.Now().Add(settleTimeout)
		var stale []string
		for {
			stale = moduleGoroutines()
			// Tolerance 2 covers runtime/testing helpers that start lazily
			// (timer goroutines, test deadline watchdogs).
			if len(stale) == 0 && runtime.NumGoroutine() <= base+2 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if len(stale) > 0 {
			tb.Errorf("leakcheck: %d goroutine(s) still in %s after %v:\n%s",
				len(stale), modulePrefix, settleTimeout, strings.Join(stale, "\n\n"))
			return
		}
		tb.Errorf("leakcheck: goroutine count %d did not return to baseline %d (+2) after %v",
			runtime.NumGoroutine(), base, settleTimeout)
	}
}

// moduleGoroutines returns the stacks of goroutines currently executing this
// module's code, excluding the checker itself and testing machinery.
func moduleGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, modulePrefix) {
			continue
		}
		if strings.Contains(g, "leakcheck") || strings.Contains(g, "testing.") {
			continue
		}
		out = append(out, g)
	}
	return out
}
