package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/store"
)

// RuntimeOptions configure a shared multi-tenant Runtime.
type RuntimeOptions struct {
	// MaxPool bounds the number of simultaneously live tuning + sampling
	// processes across every job of the runtime (Algorithm 1). Zero means
	// twice the number of CPUs.
	MaxPool int
	// DisableScheduler turns Algorithm 1 off (every spawn is admitted
	// immediately). Used by the Fig. 10 ablation.
	DisableScheduler bool
	// Obs, when non-nil, receives the runtime's metrics. Scheduler and
	// executor metrics are runtime-wide; region-scoped metrics additionally
	// carry a job label, so one Prometheus endpoint covers every job.
	Obs *obs.Registry
	// Fault is the default fault-tolerance policy jobs inherit; a job may
	// override it with JobOptions.Fault.
	Fault FaultPolicy
	// Executor, when non-nil, runs sampling processes somewhere other than
	// this process (e.g. a remote worker fleet shared by every job). Its
	// capacity joins the Algorithm 1 admission bound: once at runtime
	// construction, or — when the executor implements ElasticExecutor —
	// continuously, tracking every fleet scale-up and scale-down.
	Executor Executor
}

// Runtime is the shared substrate many tuning jobs run on: one Algorithm 1
// scheduler pool, one Executor (local or remote fleet), one default
// FaultPolicy, and one metrics registry. Create jobs with NewJob; each job
// is an ordinary Tuner restricted to its own seed, feedback state, exposed
// store, and weighted share of the pool. A Runtime is safe for concurrent
// use by all of its jobs.
//
// The single-job constructor New remains as a compatibility wrapper that
// builds a private Runtime; a program using it behaves exactly as before
// the runtime/job split.
type Runtime struct {
	opts    RuntimeOptions
	sched   *sched.Scheduler
	nextJob atomic.Int64
}

// NewRuntime returns a Runtime with the given options.
func NewRuntime(opts RuntimeOptions) *Runtime {
	if opts.MaxPool == 0 {
		opts.MaxPool = 2 * runtime.NumCPU()
	}
	if opts.MaxPool < 1 {
		panic("core: MaxPool must be positive")
	}
	rt := &Runtime{
		opts:  opts,
		sched: sched.New(opts.MaxPool, opts.DisableScheduler),
	}
	if opts.Obs != nil {
		rt.sched.Instrument(opts.Obs)
	}
	if opts.Executor != nil {
		if ew, ok := opts.Executor.(ElasticExecutor); ok {
			// An elastic fleet's slots track Algorithm 1's admission bound
			// continuously: every scale-up widens it, every drain/retirement
			// narrows it, and the watcher's synchronous initial delivery makes
			// the bound exact from the first admission.
			ew.WatchCapacity(func(delta int) {
				if delta > 0 {
					rt.sched.AddCapacity(delta)
				} else if delta < 0 {
					rt.sched.RemoveCapacity(-delta)
				}
			})
		} else if c := opts.Executor.Capacity(); c > 0 {
			// Remote slots join Algorithm 1's admission bound: a dispatched
			// sample occupies a scheduler slot exactly like a local one.
			rt.sched.AddCapacity(c)
		}
	}
	return rt
}

// JobOptions configure one tuning job on a shared Runtime.
type JobOptions struct {
	// Name labels the job in metrics and defaults the trace identity. Empty
	// means "job<N>" with N the creation ordinal. Job names should be
	// unique within a runtime; two jobs sharing a name share metric series.
	Name string
	// Seed makes the job's runs reproducible, independently of its
	// co-tenants. The zero seed is a valid seed.
	Seed int64
	// Incremental enables incremental aggregation (Sec. IV-B) for this job.
	Incremental bool
	// Budget, when positive, bounds the job's total work units.
	Budget float64
	// Trace, when non-nil, records the job's runtime events.
	Trace *Trace
	// Fault overrides the runtime's default fault policy for this job when
	// non-nil.
	Fault *FaultPolicy
	// Share is the job's weight in the scheduler's fair admission: under
	// contention, jobs hold pool slots in proportion to their shares
	// (weighted max-min). Zero means 1.
	Share int
	// MaxParallel, when positive, hard-caps how many pool slots the job's
	// processes may hold at once — an upper bound layered on top of the
	// fair share, never a reservation. Zero means no cap.
	MaxParallel int
	// Checkpoint, when non-nil, turns on checkpoint recording for this job.
	// See Options.Checkpoint.
	Checkpoint *CheckpointPolicy
	// Resume, when non-nil, starts the job from a checkpoint. NewJob panics
	// if the checkpoint cannot be resumed here; prefer Runtime.ResumeJob,
	// which reports the failure as a typed error.
	Resume *checkpoint.State
}

// NewJob creates one tuning job on the shared runtime and returns its
// handle. The job draws pool slots from the runtime's scheduler under its
// weighted share, dispatches through the runtime's executor (with its own
// snapshot namespace), and reports region metrics under its job label.
// Call Close on the handle when the job is finished to release per-job
// state held outside this process.
func (rt *Runtime) NewJob(jo JobOptions) *Tuner {
	if jo.Resume != nil {
		if err := rt.validateResume(jo.Resume); err != nil {
			panic("core: cannot resume checkpoint: " + err.Error())
		}
	}
	return rt.newJob(jo)
}

// ResumeJob creates a job that continues from a checkpoint, validating that
// this runtime can host it. It fails with ErrResumeCompleted for a final
// checkpoint, ErrResumeCapacity when the scheduler pool is below the
// checkpoint's MinSlots floor, and ErrResumeDuplicate when the same capture
// was already resumed in this process. On success the returned job replays
// the checkpointed history on its next Run and continues live from there —
// the receiving half of a live migration.
func (rt *Runtime) ResumeJob(jo JobOptions, st *checkpoint.State) (*Tuner, error) {
	if st == nil {
		return nil, errors.New("core: ResumeJob requires a checkpoint state")
	}
	if err := rt.validateResume(st); err != nil {
		return nil, err
	}
	jo.Resume = st
	return rt.newJob(jo), nil
}

// validateResume checks that st can be resumed on this runtime and claims
// its capture ID. The duplicate check runs last so a rejected checkpoint
// stays resumable elsewhere.
func (rt *Runtime) validateResume(st *checkpoint.State) error {
	if st.Complete {
		return ErrResumeCompleted
	}
	if c := rt.sched.Capacity(); c < st.MinSlots {
		return fmt.Errorf("%w: runtime has %d slots, checkpoint requires %d",
			ErrResumeCapacity, c, st.MinSlots)
	}
	resumedMu.Lock()
	defer resumedMu.Unlock()
	if resumedID[st.ID] {
		return ErrResumeDuplicate
	}
	resumedID[st.ID] = true
	return nil
}

// nextJobID namespaces per-job executor state (worker-side snapshot
// caches). It is process-global, not per-runtime: a fleet executor can be
// shared by several Runtimes — that is how a job migrates between them —
// and per-runtime ids would collide in the workers' job namespaces, so
// that one runtime's Close could drop another job's fleet state.
var nextJobID atomic.Uint64

// newJob assembles a job whose resume state, if any, is already validated.
func (rt *Runtime) newJob(jo JobOptions) *Tuner {
	ordinal := rt.nextJob.Add(1)
	name := jo.Name
	if name == "" {
		name = fmt.Sprintf("job%d", ordinal)
	}
	id := nextJobID.Add(1)
	share := jo.Share
	if share == 0 {
		share = 1
	}
	fault := rt.opts.Fault
	if jo.Fault != nil {
		fault = *jo.Fault
	}
	return rt.newTuner(Options{
		MaxPool:          rt.opts.MaxPool,
		Seed:             jo.Seed,
		Incremental:      jo.Incremental,
		DisableScheduler: rt.opts.DisableScheduler,
		Trace:            jo.Trace,
		Obs:              rt.opts.Obs,
		Budget:           jo.Budget,
		Fault:            fault,
		Executor:         rt.opts.Executor,
		Checkpoint:       jo.Checkpoint,
		Resume:           jo.Resume,
	}, id, name, share, jo.MaxParallel)
}

// newTuner assembles a job handle. label == "" keeps the pre-runtime metric
// label scheme (no job label) for single-job compatibility wrappers.
func (rt *Runtime) newTuner(opts Options, id uint64, label string, share, cap int) *Tuner {
	if opts.Resume != nil {
		// The checkpoint's seed governs the whole resumed run: replayed
		// rounds were recorded under it, and post-frontier rounds must draw
		// from the same deterministic stream.
		opts.Seed = opts.Resume.Seed
	}
	t := &Tuner{
		opts:    opts,
		rt:      rt,
		sched:   rt.sched,
		job:     sched.NewJob(share, cap),
		jobID:   id,
		jobName: label,
		exposed: store.NewExposed(),
		obsv:    newTunerObs(opts.Obs, label),
	}
	if opts.Checkpoint != nil || opts.Resume != nil {
		t.rec = newRecorder(t, opts.Checkpoint, opts.Resume)
	}
	return t
}

// Scheduler exposes the runtime's scheduler statistics.
func (rt *Runtime) Scheduler() sched.Stats { return rt.sched.Stats() }

// InUse reports the number of currently admitted processes across all jobs.
func (rt *Runtime) InUse() int { return rt.sched.InUse() }

// Load exposes the scheduler's cumulative admission-load counters — the
// autoscaler's control signal: an elastic fleet controller diffs successive
// snapshots to derive the mean admission wait per interval and steers the
// fleet toward its queue-latency setpoint.
func (rt *Runtime) Load() sched.LoadStats { return rt.sched.Load() }

// JobEnder is implemented by executors that keep per-job state (snapshot
// namespaces on remote workers); Tuner.Close calls EndJob with the job's
// runtime-unique id so that state is released fleet-wide.
type JobEnder interface {
	EndJob(job uint64)
}

// Runtime returns the runtime this job belongs to.
func (t *Tuner) Runtime() *Runtime { return t.rt }

// SlotsInUse reports how many scheduler pool slots the job's processes hold
// right now.
func (t *Tuner) SlotsInUse() int { return t.job.InUse() }

// Close releases the job's cross-runtime state: remote workers drop the
// job's snapshot namespace. It does not interrupt running work — cancel the
// RunContext context for that — and is idempotent. The handle must not be
// used after Close.
func (t *Tuner) Close() {
	if t.closed.Swap(true) {
		return
	}
	if je, ok := t.opts.Executor.(JobEnder); ok {
		je.EndJob(t.jobID)
	}
}
