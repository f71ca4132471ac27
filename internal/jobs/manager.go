package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/obs"
)

// State is a job's position in the lifecycle state machine.
type State string

// Lifecycle states. Queued → Admitted → Running → one of the three
// terminal states. Checkpointed and Resumed are transitions, not resting
// states: they are counted in MetricJobsState and surfaced on Status, while
// the job's state stays Running.
const (
	StateQueued    State = "queued"
	StateAdmitted  State = "admitted"
	StateRunning   State = "running"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is a resting final state.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCancelled
}

// Jobs-manager metric names.
const (
	// MetricJobsQueued gauges the admission-queue depth per priority class.
	MetricJobsQueued = "wbtuner_jobs_queued"
	// MetricJobsState counts lifecycle transitions per state label
	// (including the non-resting "checkpointed" and "resumed").
	MetricJobsState = "wbtuner_jobs_state_total"
	// MetricQueueWait is the queued→admitted wait histogram.
	MetricQueueWait = "wbtuner_admission_queue_wait_seconds"
)

// TenantQuota bounds one tenant's footprint. The zero value is unlimited.
type TenantQuota struct {
	// MaxRunning caps the tenant's simultaneously running jobs; admission
	// skips the tenant's queued jobs while it is at the cap (resumed jobs
	// included — a restart cannot launder a quota). Zero means unlimited.
	MaxRunning int
	// MaxQueued caps the tenant's share of the admission queue. Zero means
	// unlimited (the global MaxQueued still applies).
	MaxQueued int
	// RatePerSec throttles the tenant's submissions with a token bucket.
	// Zero means unlimited.
	RatePerSec float64
	// Burst is the bucket size; zero means a burst of 1.
	Burst int
}

// Options configure a Manager.
type Options struct {
	// Runtime hosts the admitted jobs. Required.
	Runtime *core.Runtime
	// Programs resolves spec program names. Required.
	Programs *Registry
	// Store, when non-nil, makes the manager durable: submitted specs and
	// periodic checkpoints are persisted under it, and Recover rebuilds the
	// queue from it after a restart. A Store that also implements
	// checkpoint.Lister/Deleter gets full recovery and cleanup; a plain
	// Store degrades to write-only persistence.
	Store checkpoint.Store
	// MaxRunning bounds the running set (whole jobs, orthogonal to the
	// scheduler's per-process pool). Zero means 4.
	MaxRunning int
	// MaxQueued bounds the admission queue. Zero means 64.
	MaxQueued int
	// Quotas maps tenant names to their bounds. Tenants absent from the map
	// (and the "" default tenant) are unlimited.
	Quotas map[string]TenantQuota
	// Obs, when non-nil, receives the jobs metrics. Give the Runtime the same
	// registry: a forgotten job's series are removed from this one.
	Obs *obs.Registry
}

// subscriber is one round-stream listener. closed flips under the
// manager's mutex so the channel is closed exactly once no matter which of
// unsubscribe/terminal-transition runs first.
type subscriber struct {
	ch     chan Round
	closed bool
}

// job is the manager-internal record of one submission. run, resume and
// cancel are dropped once the job is terminal: a job at rest keeps only what
// Status reports.
type job struct {
	spec        core.JobSpec
	run         RunFunc
	seq         int64
	state       State
	queued      time.Time
	resume      *checkpoint.State // recovered checkpoint to resume from
	resumed     bool
	ckpts       int64
	cancel      context.CancelFunc
	userCancel  bool
	interrupted bool // shutdown took it down mid-run; spec stays persisted
	result      string
	errText     string
	ckptErr     string // the last failed auto-checkpoint write, if any
	rounds      []Round
	subs        []*subscriber
	done        chan struct{} // closed when the job reaches rest (or shutdown)
}

// Manager owns the job lifecycle for one Runtime: a bounded priority
// admission queue in front of the running set, per-tenant quotas and rate
// limits, durable specs, and round-stream fan-out. All methods are safe for
// concurrent use.
type Manager struct {
	opts    Options
	store   checkpoint.Store
	lister  checkpoint.Lister  // nil when the store cannot enumerate
	deleter checkpoint.Deleter // nil when the store cannot delete

	baseCtx    context.Context
	baseCancel context.CancelFunc

	gQueued   map[core.PriorityClass]*obs.Gauge
	cState    map[State]*obs.Counter
	cCkpt     *obs.Counter
	cResumed  *obs.Counter
	queueWait *obs.Histogram

	mu       sync.Mutex
	jobs     map[string]*job // every live job and the last maxFinished terminal ones
	finished [maxFinished]*job
	nFinish  int    // terminal jobs so far; finished[nFinish%maxFinished] is the oldest kept
	queue    []*job // submission order; admission scans for best (class, seq)
	running  int
	byTenant map[string]int
	buckets  map[string]*bucket
	nextSeq  int64
	closed   bool
	wg       sync.WaitGroup
}

// bucket is a per-tenant token bucket, refilled lazily at submit time.
type bucket struct {
	tokens float64
	last   time.Time
}

// maxFinished is how many terminal jobs the manager remembers. Older ones
// are forgotten, oldest first: their names can be submitted again and Get,
// Subscribe and Wait report ErrNotFound for them.
const maxFinished = 1024

// specLabel / ckptLabel key a job's durable state in the Store.
func specLabel(name string) string { return "spec-" + name }
func ckptLabel(name string) string { return "ckpt-" + name }

// NewManager returns a Manager over opts.Runtime. Call Recover next when
// the Store may hold a previous process's state, then Serve/Submit.
func NewManager(opts Options) *Manager {
	if opts.Runtime == nil {
		panic("jobs: Options.Runtime is required")
	}
	if opts.Programs == nil {
		panic("jobs: Options.Programs is required")
	}
	if opts.MaxRunning <= 0 {
		opts.MaxRunning = 4
	}
	if opts.MaxQueued <= 0 {
		opts.MaxQueued = 64
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:       opts,
		store:      opts.Store,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
		byTenant:   make(map[string]int),
		buckets:    make(map[string]*bucket),
	}
	m.lister, _ = opts.Store.(checkpoint.Lister)
	m.deleter, _ = opts.Store.(checkpoint.Deleter)
	if reg := opts.Obs; reg != nil {
		reg.SetHelp(MetricJobsQueued, "admission-queue depth by priority class")
		reg.SetHelp(MetricJobsState, "job lifecycle transitions by state")
		reg.SetHelp(MetricQueueWait, "time from enqueue to admission")
		m.gQueued = make(map[core.PriorityClass]*obs.Gauge)
		for _, c := range []core.PriorityClass{core.PriorityLow, core.PriorityNormal, core.PriorityHigh} {
			m.gQueued[c] = reg.Gauge(MetricJobsQueued, "class", c.String())
		}
		m.cState = make(map[State]*obs.Counter)
		for _, s := range []State{StateQueued, StateAdmitted, StateRunning, StateCompleted, StateFailed, StateCancelled} {
			m.cState[s] = reg.Counter(MetricJobsState, "state", string(s))
		}
		m.cCkpt = reg.Counter(MetricJobsState, "state", "checkpointed")
		m.cResumed = reg.Counter(MetricJobsState, "state", "resumed")
		m.queueWait = reg.Histogram(MetricQueueWait, obs.DurationBuckets())
	}
	return m
}

// noteState counts a lifecycle transition.
func (m *Manager) noteState(s State) {
	if c := m.cState[s]; c != nil {
		c.Inc()
	}
}

// setQueuedLocked moves the queued-depth accounting (gauge + scheduler
// admission-queue feed) by delta for class c.
func (m *Manager) setQueuedLocked(c core.PriorityClass, delta int) {
	if g := m.gQueued[c]; g != nil {
		g.Add(float64(delta))
	}
	m.opts.Runtime.NoteQueuedJobs(c == core.PriorityHigh, delta)
}

// allowLocked charges one submission against the tenant's token bucket.
func (m *Manager) allowLocked(tenant string, q TenantQuota) bool {
	if q.RatePerSec <= 0 {
		return true
	}
	burst := float64(q.Burst)
	if burst < 1 {
		burst = 1
	}
	now := time.Now()
	b := m.buckets[tenant]
	if b == nil {
		b = &bucket{tokens: burst, last: now}
		m.buckets[tenant] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * q.RatePerSec
	if b.tokens > burst {
		b.tokens = burst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Submit validates spec, applies the tenant's rate limit and queue bounds,
// persists the spec when the manager is durable, and enqueues the job. The
// refusals are typed: ErrQueueFull, ErrQuotaExceeded, ErrDuplicate,
// ErrUnknownProgram, core.ErrSpecInvalid, ErrClosed.
func (m *Manager) Submit(spec core.JobSpec) (Status, error) {
	if err := spec.Validate(); err != nil {
		return Status{}, err
	}
	run, err := m.opts.Programs.resolve(spec)
	if err != nil {
		if !errors.Is(err, ErrUnknownProgram) {
			err = fmt.Errorf("%w: program %q: %v", core.ErrSpecInvalid, spec.Program, err)
		}
		return Status{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Status{}, ErrClosed
	}
	if _, ok := m.jobs[spec.Name]; ok {
		return Status{}, fmt.Errorf("%w: %q", ErrDuplicate, spec.Name)
	}
	quota := m.opts.Quotas[spec.Tenant]
	if !m.allowLocked(spec.Tenant, quota) {
		return Status{}, fmt.Errorf("%w: tenant %q over its %.3g submissions/s rate",
			ErrQuotaExceeded, spec.Tenant, quota.RatePerSec)
	}
	if len(m.queue) >= m.opts.MaxQueued {
		return Status{}, fmt.Errorf("%w: %d jobs queued", ErrQueueFull, len(m.queue))
	}
	if quota.MaxQueued > 0 {
		queued := 0
		for _, j := range m.queue {
			if j.spec.Tenant == spec.Tenant {
				queued++
			}
		}
		if queued >= quota.MaxQueued {
			return Status{}, fmt.Errorf("%w: tenant %q already has %d jobs queued (cap %d)",
				ErrQuotaExceeded, spec.Tenant, queued, quota.MaxQueued)
		}
	}
	if m.store != nil {
		data, err := core.EncodeSpec(&spec)
		if err != nil {
			return Status{}, err
		}
		if err := m.store.Save(specLabel(spec.Name), data); err != nil {
			return Status{}, fmt.Errorf("jobs: persisting spec: %w", err)
		}
	}
	j := m.enqueueLocked(spec, run, nil)
	m.pumpLocked()
	return m.statusLocked(j), nil
}

// enqueueLocked creates the job record in StateQueued. resume, when
// non-nil, is a recovered checkpoint the job will continue from.
func (m *Manager) enqueueLocked(spec core.JobSpec, run RunFunc, resume *checkpoint.State) *job {
	m.nextSeq++
	j := &job{
		spec:   spec,
		run:    run,
		seq:    m.nextSeq,
		state:  StateQueued,
		queued: time.Now(),
		resume: resume,
		done:   make(chan struct{}),
	}
	m.jobs[spec.Name] = j
	m.queue = append(m.queue, j)
	m.noteState(StateQueued)
	m.setQueuedLocked(spec.Class, +1)
	return j
}

// pumpLocked admits queued jobs while the running set has room. Selection
// is strict-priority with FIFO within a class, skipping over jobs whose
// tenant is at its running cap — a quota-blocked head never starves other
// tenants. Callers hold m.mu. Admission is synchronous with the event that
// made room (a submit or a job completion), which is what bounds
// priority-inversion: an arriving high-priority job is admitted no later
// than the next job-completion boundary.
func (m *Manager) pumpLocked() {
	if m.closed {
		return // a queued job stays queued on disk for the next process
	}
	for m.running < m.opts.MaxRunning {
		var best *job
		for _, j := range m.queue {
			q := m.opts.Quotas[j.spec.Tenant]
			if q.MaxRunning > 0 && m.byTenant[j.spec.Tenant] >= q.MaxRunning {
				continue
			}
			if best == nil || j.spec.Class > best.spec.Class ||
				(j.spec.Class == best.spec.Class && j.seq < best.seq) {
				best = j
			}
		}
		if best == nil {
			return
		}
		m.admitLocked(best)
	}
}

// dequeueLocked removes j from the queue slice and unwinds its queued-depth
// accounting.
func (m *Manager) dequeueLocked(j *job) {
	for i, q := range m.queue {
		if q == j {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			break
		}
	}
	m.setQueuedLocked(j.spec.Class, -1)
	if m.queueWait != nil {
		m.queueWait.ObserveSince(j.queued)
	}
}

// admitLocked moves j from the queue into the running set and launches its
// runner goroutine. Resume failures (capacity floor, duplicate capture)
// park the job in StateFailed instead of running it.
func (m *Manager) admitLocked(j *job) {
	m.dequeueLocked(j)
	j.state = StateAdmitted
	m.noteState(StateAdmitted)

	jo := j.spec.Options()
	if j.spec.Checkpoint != nil || j.resume != nil {
		pol := &core.CheckpointPolicy{Label: ckptLabel(j.spec.Name)}
		if c := j.spec.Checkpoint; c != nil {
			pol.Every, pol.MinSlots = c.Every, c.MinSlots
		}
		if m.store != nil {
			pol.Store = &notifyStore{m: m, j: j, s: m.store}
		}
		jo.Checkpoint = pol
	}
	var (
		t   *core.Tuner
		err error
	)
	if j.resume != nil {
		t, err = m.opts.Runtime.ResumeJob(jo, j.resume)
		if err == nil {
			j.resumed = true
			if m.cResumed != nil {
				m.cResumed.Inc()
			}
		}
	} else {
		t = m.opts.Runtime.NewJob(jo)
	}
	if err != nil {
		m.finishLocked(j, "", err, false)
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	j.cancel = cancel
	m.running++
	m.byTenant[j.spec.Tenant]++
	m.wg.Add(1)
	go m.runJob(j, t, ctx)
}

// runJob is one job's runner goroutine.
func (m *Manager) runJob(j *job, t *core.Tuner, ctx context.Context) {
	defer m.wg.Done()
	m.mu.Lock()
	j.state = StateRunning
	m.noteState(StateRunning)
	m.mu.Unlock()

	result, err := j.run(ctx, t, func(r Round) { m.emit(j, r) })
	saveErr := t.SaveErr()
	t.Close()

	m.mu.Lock()
	if saveErr != nil {
		j.ckptErr = saveErr.Error()
	}
	m.running--
	m.byTenant[j.spec.Tenant]--
	// A job torn down by manager shutdown (not by its own cancel) is
	// interrupted, not finished: its spec — and any checkpoint — stay
	// persisted so the next process re-admits or resumes it.
	interrupted := err != nil && m.closed && !j.userCancel && ctx.Err() != nil
	// Only now that ctx.Err() is read: an uncancelled child stays registered
	// under baseCtx, and holds everything the job reached, until Close.
	j.cancel()
	m.finishLocked(j, result, err, interrupted)
	m.pumpLocked()
	m.mu.Unlock()
}

// finishLocked retires j: terminal state, metrics, durable-state cleanup,
// subscriber close. With interrupted set it only wakes waiters, leaving the
// persisted spec/checkpoint for the next process's Recover.
func (m *Manager) finishLocked(j *job, result string, err error, interrupted bool) {
	if interrupted {
		j.interrupted = true
		j.errText = err.Error()
		m.closeWaitersLocked(j)
		return
	}
	switch {
	case err == nil:
		j.state = StateCompleted
		j.result = result
	case j.userCancel:
		j.state = StateCancelled
		j.errText = err.Error()
	default:
		j.state = StateFailed
		j.errText = err.Error()
	}
	m.noteState(j.state)
	m.dropPersistedLocked(j.spec.Name)
	m.closeWaitersLocked(j)
	m.retireLocked(j)
}

// retireLocked files a job that just became terminal among the finished ones,
// forgetting the oldest, and its job=<name> series, once maxFinished are kept.
func (m *Manager) retireLocked(j *job) {
	j.run, j.resume, j.cancel = nil, nil, nil
	slot := &m.finished[m.nFinish%maxFinished]
	if old := *slot; old != nil {
		delete(m.jobs, old.spec.Name)
		if m.opts.Obs != nil {
			m.opts.Obs.RemoveSeries("job", old.spec.Name)
		}
	}
	*slot = j
	m.nFinish++
}

// dropPersistedLocked removes a finished job's durable spec and checkpoint.
func (m *Manager) dropPersistedLocked(name string) {
	if m.deleter == nil {
		return
	}
	_ = m.deleter.Delete(specLabel(name))
	_ = m.deleter.Delete(ckptLabel(name))
}

// closeWaitersLocked closes the job's done channel and round subscribers.
func (m *Manager) closeWaitersLocked(j *job) {
	select {
	case <-j.done:
	default:
		close(j.done)
	}
	for _, s := range j.subs {
		if !s.closed {
			s.closed = true
			close(s.ch)
		}
	}
	j.subs = nil
}

// emit records one round and fans it out. A slow subscriber's full buffer
// drops the round for that subscriber rather than stalling the job.
func (m *Manager) emit(j *job, r Round) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r.Seq = len(j.rounds) + 1
	j.rounds = append(j.rounds, r)
	for _, s := range j.subs {
		if s.closed {
			continue
		}
		select {
		case s.ch <- r:
		default:
		}
	}
}

// noteCheckpointed records one durable checkpoint write for j.
func (m *Manager) noteCheckpointed(j *job) {
	m.mu.Lock()
	j.ckpts++
	m.mu.Unlock()
	if m.cCkpt != nil {
		m.cCkpt.Inc()
	}
}

// notifyStore wraps the manager's Store so checkpoint writes surface as
// Checkpointed transitions on the owning job.
type notifyStore struct {
	m *Manager
	j *job
	s checkpoint.Store
}

func (n *notifyStore) Save(label string, data []byte) error {
	if err := n.s.Save(label, data); err != nil {
		return err
	}
	n.m.noteCheckpointed(n.j)
	return nil
}

func (n *notifyStore) Load(label string) ([]byte, error) { return n.s.Load(label) }

// Cancel requests cancellation of the named job. A queued job is removed
// immediately; a running job's context is cancelled and it reaches
// StateCancelled when its program unwinds. Cancelling a finished job is a
// no-op.
func (m *Manager) Cancel(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	switch {
	case j.state.Terminal():
		return nil
	case j.state == StateQueued:
		m.dequeueLocked(j)
		j.userCancel = true
		j.state = StateCancelled
		j.errText = "cancelled while queued"
		m.noteState(StateCancelled)
		m.dropPersistedLocked(name)
		m.closeWaitersLocked(j)
		m.retireLocked(j)
	default:
		j.userCancel = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return nil
}

// Status is the externally visible snapshot of one job.
type Status struct {
	Spec        core.JobSpec `json:"spec"`
	State       State        `json:"state"`
	Resumed     bool         `json:"resumed,omitempty"`
	Checkpoints int64        `json:"checkpoints,omitempty"`
	// CheckpointError is the last failed auto-checkpoint write; the job
	// runs on without that checkpoint.
	CheckpointError string `json:"checkpoint_error,omitempty"`
	Rounds          int    `json:"rounds"`
	Result          string `json:"result,omitempty"`
	Error           string `json:"error,omitempty"`
}

func (m *Manager) statusLocked(j *job) Status {
	return Status{
		Spec:            j.spec,
		State:           j.state,
		Resumed:         j.resumed,
		Checkpoints:     j.ckpts,
		CheckpointError: j.ckptErr,
		Rounds:          len(j.rounds),
		Result:          j.result,
		Error:           j.errText,
	}
}

// Get returns the named job's status.
func (m *Manager) Get(name string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[name]
	if !ok {
		return Status{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return m.statusLocked(j), nil
}

// List returns every known job's status in submission order: the live jobs
// and at most maxFinished terminal ones.
func (m *Manager) List() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	js := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	sort.Slice(js, func(a, b int) bool { return js[a].seq < js[b].seq })
	out := make([]Status, len(js))
	for i, j := range js {
		out[i] = m.statusLocked(j)
	}
	return out
}

// Wait blocks until the named job reaches rest (terminal state or manager
// shutdown) or ctx expires, and returns its final status.
func (m *Manager) Wait(ctx context.Context, name string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[name]
	m.mu.Unlock()
	if !ok {
		return Status{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return Status{}, ctx.Err()
	}
	// Through j, not the name: by now the job may be forgotten.
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.statusLocked(j), nil
}

// Subscribe attaches a round-stream listener to the named job. It returns
// the rounds emitted so far and a channel carrying subsequent ones; the
// channel closes when the job reaches rest. status reports the job's status
// through the subscription itself, so the final one is still there once the
// channel has closed, even if the manager has forgotten the job by then. Call
// stop to detach early.
func (m *Manager) Subscribe(name string) (past []Round, rounds <-chan Round, status func() Status, stop func(), err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[name]
	if !ok {
		return nil, nil, nil, nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	past = append([]Round(nil), j.rounds...)
	status = func() Status {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.statusLocked(j)
	}
	ch := make(chan Round, 128)
	sub := &subscriber{ch: ch}
	select {
	case <-j.done:
		sub.closed = true
		close(ch)
		return past, ch, status, func() {}, nil
	default:
	}
	j.subs = append(j.subs, sub)
	stop = func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if sub.closed {
			return
		}
		sub.closed = true
		close(sub.ch)
		for i, s := range j.subs {
			if s == sub {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				break
			}
		}
	}
	return past, ch, status, stop, nil
}

// Recover rebuilds the manager's queue from a previous process's durable
// state: every persisted spec is re-queued, and specs with a live (non
// final) checkpoint resume from it instead of restarting. Specs whose
// checkpoint is final belong to jobs that finished just before the old
// process died — they are dropped, not duplicated. Recovered jobs bypass
// the queue bound and rate limits (they were already admitted once) but
// still respect per-tenant running caps at admission. It reports how many
// jobs were re-queued fresh and how many will resume.
func (m *Manager) Recover() (requeued, resuming int, err error) {
	if m.store == nil || m.lister == nil {
		return 0, 0, nil
	}
	labels, err := m.lister.List()
	if err != nil {
		return 0, 0, fmt.Errorf("jobs: recover: %w", err)
	}
	sort.Strings(labels) // deterministic re-queue order
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, 0, ErrClosed
	}
	var errs []error
	for _, label := range labels {
		name, ok := strings.CutPrefix(label, "spec-")
		if !ok {
			continue
		}
		if _, live := m.jobs[name]; live {
			continue // already resubmitted this process
		}
		data, lerr := m.store.Load(label)
		if lerr != nil {
			errs = append(errs, fmt.Errorf("%s: %w", label, lerr))
			continue
		}
		spec, derr := core.DecodeSpec(data)
		if derr != nil {
			errs = append(errs, fmt.Errorf("%s: %w", label, derr))
			continue
		}
		run, rerr := m.opts.Programs.resolve(*spec)
		if rerr != nil {
			errs = append(errs, fmt.Errorf("%s: %w", label, rerr))
			continue
		}
		st, serr := checkpoint.LoadFrom(m.store, ckptLabel(name))
		if serr != nil {
			// A corrupt checkpoint does not doom the job: restart it fresh
			// from its spec.
			errs = append(errs, fmt.Errorf("%s checkpoint: %w", name, serr))
			st = nil
		}
		if st != nil && st.Complete {
			m.dropPersistedLocked(name)
			continue
		}
		m.enqueueLocked(*spec, run, st)
		if st != nil {
			resuming++
		} else {
			requeued++
		}
	}
	m.pumpLocked()
	return requeued, resuming, errors.Join(errs...)
}

// Close shuts the manager down: running jobs are interrupted (their specs
// and checkpoints stay persisted for the next process), queued jobs stay
// queued on disk, and every waiter is released. Close blocks until the
// runner goroutines unwind. Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	m.mu.Unlock()

	m.baseCancel()
	m.wg.Wait()

	m.mu.Lock()
	for _, j := range m.jobs {
		if j.state == StateQueued {
			m.setQueuedLocked(j.spec.Class, -1)
		}
		m.closeWaitersLocked(j)
	}
	m.queue = nil
	m.mu.Unlock()
}
