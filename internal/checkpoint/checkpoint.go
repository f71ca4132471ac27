// Package checkpoint defines the durable round-boundary state of a tuning
// job and a versioned, length-prefixed binary codec for it.
//
// A tuning program is arbitrary Go code, so a checkpoint does not try to
// snapshot goroutines. Instead it captures everything the deterministic
// replay path needs to fast-forward a re-run of the same program to the
// point of the snapshot: the seed and round journal (per-P-path event
// sequence, per-round aggregated results, feedback hashes), the causal
// frontier separating replayed history from live execution, the exposed
// store contents, and the budget/fault counters. Resume re-runs the tuning
// function from the start; every event before the frontier is satisfied
// from the journal without launching samplers, and execution goes live
// exactly at the recorded boundary.
//
// The encoding is internal/wire's sealed envelope ("WBCK" magic, codec
// Version, length, body, FNV-1a trailer). DecodeBytes refuses unknown
// versions with ErrCheckpointVersion and corrupt input with wrapped
// ErrCorrupt errors; it never panics on malformed data.
package checkpoint

import (
	"encoding/gob"
	"errors"
	"fmt"
)

// Codec errors. Decode failures wrap one of these so callers can
// distinguish a version skew (re-encode with an older binary) from data
// corruption (fall back to an earlier checkpoint).
var (
	// ErrCheckpointVersion reports a checkpoint written by an unknown
	// (usually newer) codec version. The data may be perfectly valid — this
	// binary just cannot parse it.
	ErrCheckpointVersion = errors.New("checkpoint: unsupported codec version")
	// ErrCorrupt reports structurally invalid checkpoint data: bad magic,
	// truncation, hash mismatch, or malformed body.
	ErrCorrupt = errors.New("checkpoint: corrupt data")
)

// Version is the current codec version. Bump it on any incompatible change
// to the body layout; decoders refuse other versions outright rather than
// guessing.
const Version = 1

// State is a job's complete round-boundary checkpoint.
type State struct {
	// ID uniquely identifies this checkpoint capture (random per write).
	// Runtimes refuse to resume the same ID twice.
	ID [16]byte
	// Seed is the job's tuning seed; replay determinism hangs off it.
	Seed int64
	// MinSlots is the scheduler capacity the job was created with, used as
	// the admission floor when resuming into another Runtime.
	MinSlots int
	// Complete marks a final checkpoint written after the job finished; it
	// exists for warm-start consumers and cannot be resumed.
	Complete bool
	// Counters snapshots the job's budget and fault progress.
	Counters Counters
	// Frontier maps each P path to the number of events it had recorded at
	// capture time. During replay, an event with sequence below the
	// frontier is satisfied from the journal; at the frontier, execution
	// goes live.
	Frontier map[string]uint64
	// Events is the non-round event journal (work, split, region entry),
	// keyed by (Path, Seq).
	Events []Event
	// Rounds is the sampling-round journal, keyed by (Path, Seq).
	Rounds []Round
	// Exposed is the exposed-store snapshot at capture time.
	Exposed []Entry
}

// Counters mirrors the tuner's cumulative counters at capture time. All
// values are totals since job start.
type Counters struct {
	Regions, Rounds, Samples, Pruned          int64
	Panics, Timeouts, Retried, Degraded       int64
	Splits, PeakRetained                      int64
	WorkMilli, WorkSerialMilli, WorkParaMilli int64
}

// Event kinds. Rounds are journaled separately as Round entries.
const (
	// EvWork is a P-level Work(units) charge; Arg is milli-units.
	EvWork = uint8(iota)
	// EvSplit is a Split; Arg is the child's split ordinal on this P.
	EvSplit
	// EvRegion is a region entry; Name is the region name, Arg the
	// auto-doubling attempt ordinal.
	EvRegion
)

// Event is one journaled non-round event on a P path.
type Event struct {
	Path string // deterministic P path ("0", "0.1", ...)
	Seq  uint64 // event ordinal on this path
	Kind uint8
	Arg  uint64
	Name string
}

// Round is one journaled sampling round: everything needed to rebuild its
// Result and feedback without launching samplers.
type Round struct {
	Path   string
	Seq    uint64
	Region string
	Round  int // auto-doubling attempt ordinal within the Region call
	N      int // sampling processes launched
	K      int // survivors requested
	// FBHash is the FNV-1a hash of the feedback visible at launch; replay
	// recomputes it and treats a mismatch as divergence.
	FBHash     uint64
	Aggregated []KV // final aggregated values, completion-order folded
	Groups     []Group
}

// Group is one sampling process's journaled outcome within a round.
type Group struct {
	Params     []Param
	HaveParams bool
	ScoreSum   float64
	ScoreCnt   int
	Pruned     bool
	ErrKind    uint8 // 0 none, 1 generic, 2 sample timeout, 3 region budget
	ErrMsg     string
	Commits    []KV
}

// Group error kinds.
const (
	ErrNone = uint8(iota)
	ErrGeneric
	ErrTimeout
	ErrBudget
)

// Param is one drawn parameter value.
type Param struct {
	Name string
	V    float64
}

// KV is a name/value pair with a dynamically typed value (see the value
// codec in codec.go for the supported types).
type KV struct {
	Name string
	V    any
}

// Entry is one exposed-store entry.
type Entry struct {
	Scope string
	Name  string
	V     any
}

// RegisterValue registers a concrete type with the value codec's gob
// fallback. Values outside the natively encoded set (numbers, strings,
// bools, float/byte slices) round-trip through gob and their types must be
// registered on both the writing and the reading side, exactly like
// gob.Register.
func RegisterValue(v any) { gob.Register(v) }

// corruptf wraps ErrCorrupt with detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}
