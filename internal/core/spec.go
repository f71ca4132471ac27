package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/wire"
)

// This file defines JobSpec: the declarative, serializable description of
// one tuning job. Where JobOptions is the in-process assembly struct a
// Runtime consumes, a JobSpec is what a control plane persists, queues,
// arbitrates, and restarts: every field is plain data, the program is named
// rather than passed as a closure, and the encoding is versioned exactly
// like the checkpoint codec so a spec written today stays readable (or is
// refused with a typed error) by tomorrow's binary. A spec fully determines
// a job — running the same spec at the same seed produces byte-identical
// results whether it was admitted through a jobs manager or handed straight
// to Runtime.NewJobFromSpec.

// Job-spec errors. Decode failures wrap ErrSpecVersion or ErrSpecCorrupt
// (mirroring checkpoint.ErrCheckpointVersion/ErrCorrupt); validation
// failures wrap ErrSpecInvalid.
var (
	// ErrSpecVersion reports a job spec written by an unknown (usually
	// newer) codec version.
	ErrSpecVersion = errors.New("core: unsupported job-spec version")
	// ErrSpecCorrupt reports structurally invalid job-spec data: bad magic,
	// truncation, hash mismatch, or malformed body.
	ErrSpecCorrupt = errors.New("core: corrupt job-spec data")
	// ErrSpecInvalid reports a spec that parsed but cannot describe a job
	// (missing name or program, unknown priority class, negative bounds).
	ErrSpecInvalid = errors.New("core: invalid job spec")
)

// SpecVersion is the current job-spec codec version. Bump it on any
// incompatible change to the encoded layout; decoders refuse other versions
// outright rather than guessing.
const SpecVersion = 1

// specMagic prefixes every encoded spec.
const specMagic = "WBJS"

// PriorityClass orders jobs in an admission queue: priorities govern who
// enters the running set, while weighted shares (JobSpec.Share) keep
// governing pool slots within it. The zero value is PriorityNormal.
type PriorityClass int8

const (
	// PriorityLow yields to every other class; use it for scavenger work.
	PriorityLow PriorityClass = iota - 1
	// PriorityNormal is the default class.
	PriorityNormal
	// PriorityHigh preempts queued lower classes at every admission
	// boundary (running jobs are never preempted).
	PriorityHigh
)

// String returns the class label used in metrics and JSON.
func (c PriorityClass) String() string {
	switch c {
	case PriorityLow:
		return "low"
	case PriorityNormal:
		return "normal"
	case PriorityHigh:
		return "high"
	}
	return fmt.Sprintf("class(%d)", int8(c))
}

// Valid reports whether c is a known class.
func (c PriorityClass) Valid() bool {
	return c >= PriorityLow && c <= PriorityHigh
}

// ParsePriorityClass parses a class label; "" means PriorityNormal.
func ParsePriorityClass(s string) (PriorityClass, error) {
	switch s {
	case "low":
		return PriorityLow, nil
	case "", "normal":
		return PriorityNormal, nil
	case "high":
		return PriorityHigh, nil
	}
	return 0, fmt.Errorf("%w: unknown priority class %q", ErrSpecInvalid, s)
}

// MarshalJSON encodes the class as its label.
func (c PriorityClass) MarshalJSON() ([]byte, error) {
	if !c.Valid() {
		return nil, fmt.Errorf("%w: priority class %d", ErrSpecInvalid, int8(c))
	}
	return json.Marshal(c.String())
}

// UnmarshalJSON accepts a class label ("low", "normal", "high" or "").
func (c *PriorityClass) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	p, err := ParsePriorityClass(s)
	if err != nil {
		return err
	}
	*c = p
	return nil
}

// CheckpointSpec asks the hosting control plane to record and periodically
// checkpoint the job. The store and label are deployment concerns the
// manager supplies; the spec only carries the data that must survive a
// restart to re-create the policy identically.
type CheckpointSpec struct {
	// Every is the auto-checkpoint period in completed rounds. Zero means 1.
	Every int `json:"every,omitempty"`
	// MinSlots is the scheduler-capacity floor recorded in checkpoints
	// (see CheckpointPolicy.MinSlots). Zero means 2.
	MinSlots int `json:"min_slots,omitempty"`
}

// JobSpec declaratively describes one tuning job: who it belongs to, how it
// is arbitrated (priority class for entering the running set, share and cap
// within it, per-tenant quota identity), and what it runs (a registered
// program name plus string arguments, a seed, a budget, fault and
// checkpoint policies). It is the unit a jobs manager queues, persists, and
// resumes.
type JobSpec struct {
	// SpecVersion is the spec layout version; zero means the current
	// SpecVersion. Decoders refuse versions they do not know.
	SpecVersion int `json:"spec_version,omitempty"`
	// Name uniquely identifies the job within a manager and labels its
	// metrics. It doubles as a persistence label, so it must not contain
	// path separators or "..".
	Name string `json:"name"`
	// Tenant is the quota and rate-limit identity. Empty means the default
	// (unquota'd) tenant.
	Tenant string `json:"tenant,omitempty"`
	// Class is the admission-queue priority class.
	Class PriorityClass `json:"class,omitempty"`
	// Program names the registered tuning program the job runs.
	Program string `json:"program"`
	// Args parameterize the program (scene names, stage sizes, ...); the
	// program factory parses them. Encoded sorted by key, so a spec's bytes
	// are canonical.
	Args map[string]string `json:"args,omitempty"`
	// Seed makes the job reproducible: a spec plus its seed fully
	// determines the job's results.
	Seed int64 `json:"seed"`
	// Budget, when positive, bounds the job's total work units.
	Budget float64 `json:"budget,omitempty"`
	// Incremental enables incremental aggregation (Sec. IV-B).
	Incremental bool `json:"incremental,omitempty"`
	// Share is the job's weight in the scheduler's fair admission once
	// running. Zero means 1.
	Share int `json:"share,omitempty"`
	// MaxParallel hard-caps the job's concurrently held pool slots. Zero
	// means no cap.
	MaxParallel int `json:"max_parallel,omitempty"`
	// Fault overrides the runtime's default fault policy when non-nil.
	Fault *FaultPolicy `json:"fault,omitempty"`
	// Checkpoint asks for checkpoint recording when non-nil.
	Checkpoint *CheckpointSpec `json:"checkpoint,omitempty"`
}

// Validate reports whether the spec can describe a job. A version mismatch
// wraps ErrSpecVersion; every other failure wraps ErrSpecInvalid.
func (s *JobSpec) Validate() error {
	if s.SpecVersion != 0 && s.SpecVersion != SpecVersion {
		return fmt.Errorf("%w: spec version %d (this binary speaks %d)",
			ErrSpecVersion, s.SpecVersion, SpecVersion)
	}
	if s.Name == "" {
		return fmt.Errorf("%w: empty name", ErrSpecInvalid)
	}
	if len(s.Name) > 128 || strings.ContainsAny(s.Name, "/\\") || strings.Contains(s.Name, "..") {
		return fmt.Errorf("%w: name %q (must be a plain label: no separators, no \"..\", at most 128 bytes)",
			ErrSpecInvalid, s.Name)
	}
	if s.Program == "" {
		return fmt.Errorf("%w: empty program", ErrSpecInvalid)
	}
	if !s.Class.Valid() {
		return fmt.Errorf("%w: priority class %d", ErrSpecInvalid, int8(s.Class))
	}
	if s.Share < 0 {
		return fmt.Errorf("%w: negative share", ErrSpecInvalid)
	}
	if s.MaxParallel < 0 {
		return fmt.Errorf("%w: negative max_parallel", ErrSpecInvalid)
	}
	if s.Budget < 0 || math.IsNaN(s.Budget) || math.IsInf(s.Budget, 0) {
		return fmt.Errorf("%w: budget %v", ErrSpecInvalid, s.Budget)
	}
	if c := s.Checkpoint; c != nil && (c.Every < 0 || c.MinSlots < 0) {
		return fmt.Errorf("%w: negative checkpoint bound", ErrSpecInvalid)
	}
	if f := s.Fault; f != nil {
		if f.SampleTimeout < 0 || f.RegionBudget < 0 || f.Backoff < 0 || f.MaxBackoff < 0 || f.MaxAttempts < 0 {
			return fmt.Errorf("%w: negative fault policy bound", ErrSpecInvalid)
		}
		if math.IsNaN(f.BackoffFactor) || math.IsInf(f.BackoffFactor, 0) {
			return fmt.Errorf("%w: backoff_factor %v", ErrSpecInvalid, f.BackoffFactor)
		}
	}
	return nil
}

// Options converts the spec into the JobOptions a Runtime consumes. The fault
// policy is copied, so a job never aliases its spec. The checkpoint policy is
// not included: its store and label are supplied by whatever manages the job
// (see CheckpointSpec).
func (s *JobSpec) Options() JobOptions {
	jo := JobOptions{
		Name:        s.Name,
		Seed:        s.Seed,
		Incremental: s.Incremental,
		Budget:      s.Budget,
		Share:       s.Share,
		MaxParallel: s.MaxParallel,
	}
	if s.Fault != nil {
		fp := *s.Fault
		jo.Fault = &fp
	}
	return jo
}

// NewJobFromSpec creates one job from its declarative spec — the
// spec-driven face of NewJob. It validates the spec and returns the job
// handle; everything a JobSpec cannot carry (checkpoint stores, resume
// states) stays with the lower-level NewJob/ResumeJob surface that jobs
// managers drive.
func (rt *Runtime) NewJobFromSpec(spec JobSpec) (*Tuner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return rt.newJob(spec.Options()), nil
}

// NoteQueuedJobs feeds the scheduler's admission-queue accounting: a jobs
// manager holding specs in front of the running set reports each enqueue
// (+1) and dequeue (-1), flagging high-priority entries, so LoadStats — and
// through it an elastic fleet controller — sees control-plane backlog, not
// just process-level admission waits.
func (rt *Runtime) NoteQueuedJobs(high bool, delta int) {
	rt.sched.NoteQueuedJobs(high, delta)
}

// --- versioned binary codec: internal/wire's sealed envelope under the
// "WBJS" magic and SpecVersion ---

// specErr is the one mapping from internal/wire decode failures onto this
// package's sentinels.
func specErr(err error) error {
	if errors.Is(err, wire.ErrVersion) {
		return fmt.Errorf("%w: %v", ErrSpecVersion, err)
	}
	return fmt.Errorf("%w: %v", ErrSpecCorrupt, err)
}

// EncodeSpec encodes the spec canonically: args are written sorted by key,
// so equal specs produce equal bytes.
func EncodeSpec(s *JobSpec) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var w wire.Writer
	w.Uv(SpecVersion)
	w.Str(s.Name)
	w.Str(s.Tenant)
	w.Iv(int64(s.Class))
	w.Str(s.Program)
	keys := make([]string, 0, len(s.Args))
	for k := range s.Args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Uv(uint64(len(keys)))
	for _, k := range keys {
		w.Str(k)
		w.Str(s.Args[k])
	}
	w.Iv(s.Seed)
	w.F64(s.Budget)
	w.Flag(s.Incremental)
	w.Uv(uint64(s.Share))
	w.Uv(uint64(s.MaxParallel))
	w.Flag(s.Fault != nil)
	if f := s.Fault; f != nil {
		w.Iv(int64(f.SampleTimeout))
		w.Iv(int64(f.RegionBudget))
		w.Uv(uint64(f.MaxAttempts))
		w.Iv(int64(f.Backoff))
		w.F64(f.BackoffFactor)
		w.Iv(int64(f.MaxBackoff))
		w.Flag(f.DegradeEmpty)
	}
	w.Flag(s.Checkpoint != nil)
	if c := s.Checkpoint; c != nil {
		w.Uv(uint64(c.Every))
		w.Uv(uint64(c.MinSlots))
	}
	return wire.Seal(specMagic, SpecVersion, w.B)
}

// DecodeSpec decodes an encoded job spec, refusing unknown versions with
// ErrSpecVersion and malformed data with errors wrapping ErrSpecCorrupt.
func DecodeSpec(data []byte) (*JobSpec, error) {
	body, err := wire.Open(data, specMagic, SpecVersion)
	if err != nil {
		return nil, specErr(err)
	}
	r := wire.NewReader(body)
	s := &JobSpec{}
	if v := r.Uv(); r.Err() == nil && v != SpecVersion {
		return nil, fmt.Errorf("%w: body version %d", ErrSpecVersion, v)
	}
	s.Name = r.Str()
	s.Tenant = r.Str()
	s.Class = PriorityClass(r.Iv())
	s.Program = r.Str()
	if n := r.Count(2); n > 0 {
		s.Args = make(map[string]string, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			k := r.Str()
			s.Args[k] = r.Str()
		}
	}
	s.Seed = r.Iv()
	s.Budget = r.F64()
	s.Incremental = r.Flag()
	s.Share = int(r.Uv())
	s.MaxParallel = int(r.Uv())
	if r.Flag() {
		s.Fault = &FaultPolicy{
			SampleTimeout: time.Duration(r.Iv()),
			RegionBudget:  time.Duration(r.Iv()),
			MaxAttempts:   int(r.Uv()),
			Backoff:       time.Duration(r.Iv()),
			BackoffFactor: r.F64(),
			MaxBackoff:    time.Duration(r.Iv()),
			DegradeEmpty:  r.Flag(),
		}
	}
	if r.Flag() {
		s.Checkpoint = &CheckpointSpec{Every: int(r.Uv()), MinSlots: int(r.Uv())}
	}
	if err := r.Done(); err != nil {
		return nil, specErr(err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpecCorrupt, err)
	}
	return s, nil
}
