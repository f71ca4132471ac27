package core

import (
	"errors"
	"time"

	"repro/internal/dist"
)

// ErrSampleTimeout marks a sampling process abandoned by the runtime because
// it exceeded its per-sample deadline or the region's budget. It is a
// distinguished outcome, not a tuning-program bug: the region aggregates over
// whatever committed and Result.TimedOut reports the shortfall per sample.
var ErrSampleTimeout = errors.New("core: sampling process timed out")

// ErrRegionBudget marks a sample group that was never launched because the
// region's fault budget expired first.
var ErrRegionBudget = errors.New("core: region budget exhausted before launch")

// FaultPolicy configures the fault-tolerance layer of the sampling runtime.
// The zero value disables it entirely: no deadlines, no retries, exactly the
// paper's finish-or-panic semantics. It is plain data, so a JobSpec carries it
// as is (durations encode as nanoseconds in JSON).
type FaultPolicy struct {
	// SampleTimeout is the deadline for one sampling-process attempt. It
	// counts compute only: it pauses while the process waits at a Sync
	// barrier and starts afresh when the barrier releases. When it expires
	// the round's watcher abandons the attempt: SP.Context is cancelled, the
	// pool slot is released, a timeout outcome is committed, and the region
	// proceeds without the sample. The body, which runs on its worker's
	// goroutine, cannot be killed — it is expected to observe SP.Context and
	// return; a body that ignores its context keeps that goroutine until it
	// returns on its own.
	SampleTimeout time.Duration `json:"sample_timeout,omitempty"`
	// RegionBudget bounds a whole sampling round (all samples of one Region
	// round share it). When it expires, in-flight samples are abandoned as
	// timeouts and unlaunched groups fail with ErrRegionBudget.
	RegionBudget time.Duration `json:"region_budget,omitempty"`
	// MaxAttempts is the total number of attempts per sample. Values <= 1
	// mean no retries. Only failures that are retryable (see Transient and
	// IsRetryable) are retried; panics, prunes, and timeouts are not.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// Backoff is the base delay before the second attempt. Zero with
	// retries enabled defaults to 1ms.
	Backoff time.Duration `json:"backoff,omitempty"`
	// BackoffFactor is the exponential growth factor. Values < 1 default
	// to 2.
	BackoffFactor float64 `json:"backoff_factor,omitempty"`
	// MaxBackoff caps the per-attempt delay. Zero defaults to 1s.
	MaxBackoff time.Duration `json:"max_backoff,omitempty"`
	// DegradeEmpty makes a region whose samples all failed return its
	// (empty) Result without an error instead of the all-failed error, so a
	// pipeline can continue past a fully-faulted stage and inspect the
	// shortfall itself.
	DegradeEmpty bool `json:"degrade_empty,omitempty"`
}

// active reports whether any part of the policy is enabled.
func (f FaultPolicy) active() bool {
	return f.SampleTimeout > 0 || f.RegionBudget > 0 || f.MaxAttempts > 1 || f.DegradeEmpty
}

// attempts returns the effective attempt count (>= 1).
func (f FaultPolicy) attempts() int {
	if f.MaxAttempts < 1 {
		return 1
	}
	return f.MaxAttempts
}

// backoff returns the delay before the given attempt (attempt >= 2) of
// sample group g, with exponential growth and deterministic jitter derived
// from the region seed: the same (seed, group, attempt) always produces the
// same delay, so fault schedules replay bit-identically.
func (f FaultPolicy) backoff(seed int64, g, attempt int) time.Duration {
	base := f.Backoff
	if base <= 0 {
		base = time.Millisecond
	}
	factor := f.BackoffFactor
	if factor < 1 {
		factor = 2
	}
	maxB := f.MaxBackoff
	if maxB <= 0 {
		maxB = time.Second
	}
	d := float64(base)
	for i := 2; i < attempt; i++ {
		d *= factor
		if d >= float64(maxB) {
			d = float64(maxB)
			break
		}
	}
	// Jitter in [0.5, 1.5): a 53-bit fraction from the SplitMix64 stream of
	// (seed, group, attempt).
	bits := dist.Mix(uint64(seed), uint64(g)<<16|uint64(attempt))
	frac := float64(bits>>11) / float64(1<<53)
	d *= 0.5 + frac
	if d > float64(maxB) {
		d = float64(maxB)
	}
	return time.Duration(d)
}

// retryable is the interface a retryable error implements; errors wrapped
// with Transient satisfy it, as do foreign errors that carry their own
// Retryable method (e.g. injected faults).
type retryable interface{ Retryable() bool }

// transientError wraps an error to mark it retryable.
type transientError struct{ err error }

func (e transientError) Error() string   { return "transient: " + e.err.Error() }
func (e transientError) Unwrap() error   { return e.err }
func (e transientError) Retryable() bool { return true }

// Transient marks err as retryable: a sampling process failing with it is
// retried under the region's FaultPolicy. A nil err stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return transientError{err: err}
}

// IsRetryable reports whether err is marked retryable anywhere in its chain.
func IsRetryable(err error) bool {
	var r retryable
	return errors.As(err, &r) && r.Retryable()
}
