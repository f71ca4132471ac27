package remote

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/strategy"
	"repro/internal/wire"
)

// protocolVersion is the one wire protocol both ends speak: job-namespaced
// snapshots and rounds, mux chunk frames (large messages interleave as mChunk
// streams, see mux.go), one snapshot frame, mSnapDelta, whose full ship is the
// delta from the empty snapshot (see snapdelta.go), and a snapshot identity
// that is a sum of per-entry terms (see snapshot.go). The worker states it in
// its hello frame; the dispatcher refuses any other value rather than
// misparse frames.
const protocolVersion = 6

// Message type bytes (first payload byte of every frame). 2 is unassigned.
const (
	mHello     byte = 1  // worker -> dispatcher: name, slots, version
	mRound     byte = 3  // dispatcher -> worker: one sampling round's recipe
	mTask      byte = 4  // dispatcher -> worker: run one sampling-process attempt
	mResults   byte = 5  // worker -> dispatcher: a batch of finished samples
	mEndRound  byte = 6  // dispatcher -> worker: forget a round
	mDrain     byte = 7  // worker -> dispatcher: draining, assign nothing new
	mBye       byte = 8  // worker -> dispatcher: all in-flight flushed, closing
	mEndJob    byte = 9  // dispatcher -> worker: a job closed, drop its snapshots
	mChunk     byte = 10 // either direction: one chunk of an interleaved message
	mSnapDelta byte = 11 // dispatcher -> worker: key-level snapshot delta against a shipped or the empty base
	mSnapNack  byte = 12 // worker -> dispatcher: typed refusal of a base delta; answer is a full ship
)

// snapKey names one cached snapshot: job-scoped so co-tenant jobs of a
// shared Runtime never evict each other's @load state, content-hashed so
// re-shipment is cheap to detect.
type snapKey struct{ job, hash uint64 }

var errCodec = errors.New("remote: malformed message")

// codecErr is the one mapping from internal/wire decode failures onto this
// package's sentinel; a format-level refusal a decoder recorded itself
// (errNoValueTable) passes through unchanged.
func codecErr(err error) error {
	if _, ok := err.(*wire.Error); ok {
		return fmt.Errorf("%w: %v", errCodec, err)
	}
	return err
}

// strIn reads a string through d's intern table when d is non-nil: repeated
// names (parameter and commit keys recur every sample) resolve to one shared
// string with no allocation on the hit path — the map lookup on string(b)
// bytes compiles to an allocation-free probe.
func strIn(r *wire.Reader, d *decoder) string {
	b := r.Bytes()
	if len(b) == 0 {
		return ""
	}
	if d != nil {
		if s, ok := d.names[string(b)]; ok {
			return s
		}
		s := string(b)
		if len(d.names) < internTableCap {
			d.names[s] = s
		}
		return s
	}
	return string(b)
}

// internTableCap bounds a decoder's intern table so a peer emitting unique
// names cannot grow it without bound.
const internTableCap = 1024

// decoder is per-connection decode scratch: the result batch slice and the
// name intern table are reused across frames, so steady-state result
// decoding allocates only what escapes into the tuner's stores (the decoded
// values and per-result key slices), never the batch plumbing. Not safe for
// concurrent use; each read loop owns one.
type decoder struct {
	names map[string]string
	batch []resultMsg
}

func (d *decoder) init() {
	if d.names == nil {
		d.names = make(map[string]string, 32)
	}
}

// --- value codec -----------------------------------------------------------
//
// Commit and @expose values cross the wire with a one-byte type tag. The
// native tags cover every value the built-in aggregation strategies and the
// bench drivers' numeric commits use; anything else becomes a handle into
// the dispatcher-provided ValueTable (same-process loopback workers resolve
// the handle in shared memory; a true remote worker without a shared table
// fails the sample with a descriptive, non-retryable error).

const (
	vNil byte = iota
	vBool
	vInt
	vFloat64
	vString
	vBytes
	vInts
	vFloats
	vFloatss
	vHandle
)

var errNoValueTable = errors.New("remote: opaque value requires a shared value table (same-process workers only)")

func appendValue(w *wire.Writer, v any, vt *ValueTable) error {
	switch x := v.(type) {
	case nil:
		w.U8(vNil)
	case bool:
		w.U8(vBool)
		w.Flag(x)
	case int:
		w.U8(vInt)
		w.Iv(int64(x))
	case float64:
		w.U8(vFloat64)
		w.F64(x)
	case string:
		w.U8(vString)
		w.Str(x)
	case []byte:
		w.U8(vBytes)
		w.Bytes(x)
	case []int:
		w.U8(vInts)
		w.Uv(uint64(len(x)))
		for _, e := range x {
			w.Iv(int64(e))
		}
	case []float64:
		w.U8(vFloats)
		w.Uv(uint64(len(x)))
		for _, e := range x {
			w.F64(e)
		}
	case [][]float64:
		w.U8(vFloatss)
		w.Uv(uint64(len(x)))
		for _, row := range x {
			w.Uv(uint64(len(row)))
			for _, e := range row {
				w.F64(e)
			}
		}
	default:
		if vt == nil {
			return fmt.Errorf("%w (value type %T)", errNoValueTable, v)
		}
		w.U8(vHandle)
		w.Uv(vt.put(v))
	}
	return nil
}

// readValue decodes one value; on malformed input, an unknown handle or a
// handle with no table it returns nil with r failed.
func readValue(r *wire.Reader, vt *ValueTable) any {
	switch tag := r.U8(); tag {
	case vNil:
		return nil
	case vBool:
		return r.Flag()
	case vInt:
		return int(r.Iv())
	case vFloat64:
		return r.F64()
	case vString:
		return r.Str()
	case vBytes:
		b := r.Bytes()
		if r.Err() != nil {
			return nil
		}
		out := make([]byte, len(b))
		copy(out, b)
		return out
	case vInts:
		n := r.Count(1)
		out := make([]int, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			out = append(out, int(r.Iv()))
		}
		return out
	case vFloats:
		return readFloats(r)
	case vFloatss:
		n := r.Count(1)
		out := make([][]float64, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			out = append(out, readFloats(r))
		}
		return out
	case vHandle:
		id := r.Uv()
		if r.Err() != nil {
			return nil
		}
		if vt == nil {
			r.Fail(errNoValueTable)
			return nil
		}
		v, ok := vt.get(id)
		if !ok {
			r.Corruptf("unknown value handle %d", id)
		}
		return v
	default:
		r.Corruptf("unknown value tag %d", tag)
		return nil
	}
}

func readFloats(r *wire.Reader) []float64 {
	n := r.Count(8)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.F64())
	}
	return out
}

// --- feedback codec --------------------------------------------------------

// appendFeedback encodes the feedback history with each map's keys sorted,
// so equal feedback always serializes to equal bytes.
func appendFeedback(w *wire.Writer, fb []strategy.Feedback) {
	w.Uv(uint64(len(fb)))
	for _, f := range fb {
		w.F64(f.Score)
		names := make([]string, 0, len(f.Params))
		for k := range f.Params {
			names = append(names, k)
		}
		sort.Strings(names)
		w.Uv(uint64(len(names)))
		for _, k := range names {
			w.Str(k)
			w.F64(f.Params[k])
		}
	}
}

func readFeedback(r *wire.Reader) []strategy.Feedback {
	n := r.Count(9)
	if n == 0 {
		return nil
	}
	out := make([]strategy.Feedback, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		f := strategy.Feedback{Score: r.F64()}
		m := r.Count(9)
		f.Params = make(map[string]float64, m)
		for j := 0; j < m && r.Err() == nil; j++ {
			k := r.Str()
			f.Params[k] = r.F64()
		}
		out = append(out, f)
	}
	return out
}

// --- messages --------------------------------------------------------------

type helloMsg struct {
	Version uint64
	Name    string
	Slots   int
}

func encodeHello(h helloMsg) []byte {
	w := &wire.Writer{}
	w.U8(mHello)
	w.Uv(h.Version)
	w.Str(h.Name)
	w.Uv(uint64(h.Slots))
	return w.B
}

func decodeHello(b []byte) (helloMsg, error) {
	r := wire.NewReader(b)
	h := helloMsg{Version: r.Uv(), Name: r.Str(), Slots: int(r.Uv())}
	return h, codecErr(r.Done())
}

type roundMsg struct {
	ID       uint64
	Job      uint64 // runtime-unique tuning-job id; namespaces snapshots
	Region   string
	Dyn      uint64 // dynamic-registry key; 0 means resolve Region by name
	Seed     int64
	Round    int
	N        int
	SnapHash uint64
	Feedback []strategy.Feedback
}

func encodeRound(m roundMsg) []byte {
	w := &wire.Writer{}
	w.U8(mRound)
	w.Uv(m.ID)
	w.Uv(m.Job)
	w.Str(m.Region)
	w.Uv(m.Dyn)
	w.Iv(m.Seed)
	w.Uv(uint64(m.Round))
	w.Uv(uint64(m.N))
	w.U64(m.SnapHash)
	appendFeedback(w, m.Feedback)
	return w.B
}

func decodeRound(b []byte) (roundMsg, error) {
	r := wire.NewReader(b)
	m := roundMsg{
		ID:     r.Uv(),
		Job:    r.Uv(),
		Region: r.Str(),
		Dyn:    r.Uv(),
		Seed:   r.Iv(),
		Round:  int(r.Uv()),
		N:      int(r.Uv()),
	}
	m.SnapHash = r.U64()
	m.Feedback = readFeedback(r)
	return m, codecErr(r.Done())
}

type taskMsg struct {
	ID      uint64
	Round   uint64
	Group   int
	Attempt int
}

// appendTask encodes a task message into w (the steady-state dispatch path
// encodes straight into a pooled frame buffer).
func appendTask(w *wire.Writer, m taskMsg) {
	w.U8(mTask)
	w.Uv(m.ID)
	w.Uv(m.Round)
	w.Uv(uint64(m.Group))
	w.Uv(uint64(m.Attempt))
}

func encodeTask(m taskMsg) []byte {
	w := &wire.Writer{}
	appendTask(w, m)
	return w.B
}

func decodeTask(b []byte) (taskMsg, error) {
	r := wire.NewReader(b)
	m := taskMsg{ID: r.Uv(), Round: r.Uv(), Group: int(r.Uv()), Attempt: int(r.Uv())}
	return m, codecErr(r.Done())
}

type resultMsg struct {
	ID  uint64
	Res core.ExecResult
}

const (
	frPruned byte = 1 << iota
	frPanicked
	frScored
	frUnsupported
	frRetryable
)

func appendExecResult(w *wire.Writer, res core.ExecResult, vt *ValueTable) error {
	var flags byte
	if res.Pruned {
		flags |= frPruned
	}
	if res.Panicked {
		flags |= frPanicked
	}
	if res.Scored {
		flags |= frScored
	}
	if res.Unsupported {
		flags |= frUnsupported
	}
	if res.Retryable {
		flags |= frRetryable
	}
	w.U8(flags)
	w.F64(res.Score)
	w.Iv(res.WorkMilli)
	w.Str(res.Err)
	w.Uv(uint64(len(res.Params)))
	for _, p := range res.Params {
		w.Str(p.Name)
		w.F64(p.Value)
	}
	w.Uv(uint64(len(res.Commits)))
	for _, c := range res.Commits {
		w.Str(c.Name)
		if err := appendValue(w, c.Value, vt); err != nil {
			return err
		}
	}
	return nil
}

func readExecResult(r *wire.Reader, vt *ValueTable, d *decoder) core.ExecResult {
	flags := r.U8()
	res := core.ExecResult{
		Pruned:      flags&frPruned != 0,
		Panicked:    flags&frPanicked != 0,
		Scored:      flags&frScored != 0,
		Unsupported: flags&frUnsupported != 0,
		Retryable:   flags&frRetryable != 0,
		Score:       r.F64(),
		WorkMilli:   r.Iv(),
		Err:         r.Str(),
	}
	np := r.Count(9)
	if np > 0 {
		res.Params = make([]core.ParamKV, 0, np)
	}
	for i := 0; i < np && r.Err() == nil; i++ {
		res.Params = append(res.Params, core.ParamKV{Name: strIn(r, d), Value: r.F64()})
	}
	nc := r.Count(2)
	if nc > 0 {
		res.Commits = make([]core.CommitKV, 0, nc)
	}
	for i := 0; i < nc && r.Err() == nil; i++ {
		res.Commits = append(res.Commits, core.CommitKV{Name: strIn(r, d), Value: readValue(r, vt)})
	}
	return res
}

// appendResults encodes a result batch into w. On an unserializable value it
// returns the encode error with w in an undefined state; callers degrade per
// sample (see wconn.flush).
func appendResults(w *wire.Writer, batch []resultMsg, vt *ValueTable) error {
	w.U8(mResults)
	w.Uv(uint64(len(batch)))
	for _, m := range batch {
		w.Uv(m.ID)
		if err := appendExecResult(w, m.Res, vt); err != nil {
			return err
		}
	}
	return nil
}

func encodeResults(batch []resultMsg, vt *ValueTable) ([]byte, error) {
	w := &wire.Writer{}
	if err := appendResults(w, batch, vt); err != nil {
		return nil, err
	}
	return w.B, nil
}

// decodeResults decodes a result batch, reusing d's batch slice and intern
// table when d is non-nil. The returned slice is then valid only until the
// next decodeResults call on the same decoder; the resultMsg values it holds
// may be copied out freely.
func decodeResults(b []byte, vt *ValueTable, d *decoder) ([]resultMsg, error) {
	r := wire.NewReader(b)
	n := r.Count(2)
	var out []resultMsg
	if d != nil {
		d.init()
		out = d.batch[:0]
	} else {
		out = make([]resultMsg, 0, n)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, resultMsg{ID: r.Uv(), Res: readExecResult(r, vt, d)})
	}
	if d != nil {
		d.batch = out
	}
	if err := codecErr(r.Done()); err != nil {
		return nil, err
	}
	return out, nil
}

func encodeEndRound(id uint64) []byte {
	w := &wire.Writer{}
	w.U8(mEndRound)
	w.Uv(id)
	return w.B
}

func decodeEndRound(b []byte) (uint64, error) {
	r := wire.NewReader(b)
	id := r.Uv()
	return id, codecErr(r.Done())
}

func encodeEndJob(job uint64) []byte {
	w := &wire.Writer{}
	w.U8(mEndJob)
	w.Uv(job)
	return w.B
}

func decodeEndJob(b []byte) (uint64, error) {
	r := wire.NewReader(b)
	job := r.Uv()
	return job, codecErr(r.Done())
}
