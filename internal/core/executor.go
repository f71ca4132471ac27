package core

import (
	"context"
	"errors"

	"repro/internal/store"
	"repro/internal/strategy"
)

// ErrExecUnsupported reports that an Executor cannot run a region or sample
// (no live workers, an unregistered body, a Sync barrier inside a detached
// body, an unserializable snapshot). The runtime reacts by running the work
// on the in-process path instead — an executor can always decline, never
// wedge a region — and the region's later rounds too, unless the decline is
// Transient (no live worker at that instant).
var ErrExecUnsupported = errors.New("core: executor cannot run this work")

// RoundTask describes one sampling round an Executor is asked to run: the
// complete recipe for reconstructing the round's sampling processes
// elsewhere. Everything a sampler draws is a pure function of (Seed, group,
// N, Feedback), so a worker that rebuilds the sampler from this task
// reproduces the in-process draws bit-identically.
type RoundTask struct {
	// Job is the runtime-unique id of the tuning job the round belongs to.
	// Executors shared by several jobs namespace per-job state (snapshot
	// caches) on it; Tuner.Close retires the namespace via JobEnder.
	Job uint64
	// Region is the region name; executors that resolve bodies from a
	// registry key on it.
	Region string
	// Seed is the round's deterministic seed (Tuner.regionSeed).
	Seed int64
	// Round is the auto-tuned sampling round index (0 for fixed Samples).
	Round int
	// N is the number of sample groups in the round.
	N int
	// Feedback is the accumulated per-region feedback, sorted best-first —
	// the only cross-round state a feedback-driven strategy (MCMC) reads.
	Feedback []strategy.Feedback
	// Spec and Body are the region as the tuning program declared it. A
	// same-process executor may use them directly; a network executor ships
	// the name and resolves a registered equivalent on the worker.
	Spec RegionSpec
	Body func(sp *SP) error
	// Exposed is the tuner's exposed store — the @load state the paper's
	// runtime loads once and reuses, here shipped once per worker as a
	// content-hashed snapshot.
	Exposed *store.Exposed
}

// SampleTask identifies one sampling-process attempt within a RoundTask on
// the worker side of an executor.
type SampleTask struct {
	// Seed, N mirror the RoundTask (the sampler is rebuilt per sample).
	Seed int64
	N    int
	// Group is the sample index within the round.
	Group int
	// Attempt is the 1-based attempt number under the retry policy.
	Attempt int
	// Feedback mirrors the RoundTask.
	Feedback []strategy.Feedback
}

// ParamKV is one drawn parameter in an externalized sample result.
type ParamKV struct {
	Name  string
	Value float64
}

// CommitKV is one committed sample result variable in an externalized
// sample result.
type CommitKV struct {
	Name  string
	Value any
}

// ExecResult is the externalized outcome of one sampling-process attempt —
// everything spDone reads off a finished in-process SP, in shippable form.
type ExecResult struct {
	// Params are the drawn parameters in draw order.
	Params []ParamKV
	// Commits are the committed sample results in commit order.
	Commits []CommitKV
	// Pruned reports that Check terminated the process (rule [CHECK]).
	Pruned bool
	// Panicked reports that the body panicked (contained; Err carries it).
	Panicked bool
	// Scored/Score carry the Score callback's result, if the spec has one.
	Scored bool
	Score  float64
	// Unsupported reports that the body did something a detached process
	// cannot do (a Sync barrier); the sample must re-run in-process.
	Unsupported bool
	// Err is the attempt's error, if any; Retryable preserves its
	// IsRetryable classification across the wire.
	Err       string
	Retryable bool
	// WorkMilli is the work the attempt accounted via SP.Work, in integer
	// 1/1024 units — the same per-call quantization the in-process path
	// applies, so distributed totals match local totals exactly.
	WorkMilli int64
}

// Executor runs sampling processes on behalf of the runtime. The default is
// nil: the existing in-process path, unchanged. A non-nil executor receives
// whole rounds (BeginRound/EndRound bracket the round; the handle is the
// executor's round state) and one Execute call per sampling-process attempt.
//
// Execute must honor ctx: the runtime applies the FaultPolicy per-sample
// deadline to it and treats expiry as a sample timeout. A retryable error
// (IsRetryable) re-enters the PR 2 retry machinery — the re-dispatched
// attempt reconstructs the same seeded sampler, so replays are
// bit-identical wherever they land. Executors must be safe for concurrent
// Execute calls across rounds and samples.
type Executor interface {
	BeginRound(r RoundTask) (handle any, err error)
	Execute(ctx context.Context, handle any, group, attempt int) (ExecResult, error)
	EndRound(handle any)
	// Capacity reports how many samples the executor can run concurrently;
	// the tuner adds it to the Algorithm 1 sampling-slot bound.
	Capacity() int
}

// ElasticExecutor is implemented by executors whose capacity changes at
// runtime (an autoscaled worker fleet). WatchCapacity registers f to receive
// every capacity transition as a signed slot delta, delivering the current
// capacity synchronously first — atomically with respect to transitions, so
// the watcher's running sum always equals the executor's capacity. A runtime
// handed an ElasticExecutor tracks the fleet in its Algorithm 1 sampling
// bound instead of reading Capacity once at construction.
type ElasticExecutor interface {
	Executor
	WatchCapacity(f func(delta int))
}
