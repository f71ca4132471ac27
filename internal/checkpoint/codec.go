package checkpoint

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"

	"repro/internal/wire"
)

// The frame is internal/wire's sealed envelope under this magic and Version;
// the body layout and the value tag table below are this package's own.
const (
	magic         = "WBCK"
	maxValueDepth = 16
)

// wireErr is the one mapping from internal/wire decode failures onto this
// package's sentinels.
func wireErr(err error) error {
	if errors.Is(err, wire.ErrVersion) {
		return fmt.Errorf("%w: %v", ErrCheckpointVersion, err)
	}
	return corruptf("%v", err)
}

// encoder appends to a pooled buffer; the first value-codec failure
// sticks.
type encoder struct {
	wire.Writer
	err error
}

// value appends one dynamically typed value. Types outside the native tag
// table fall back to gob (concrete type must be registered via
// RegisterValue on both sides); a gob failure sticks in e.err.
func (e *encoder) value(v any, depth int) {
	if depth > maxValueDepth {
		e.fail(fmt.Errorf("checkpoint: value nesting exceeds %d", maxValueDepth))
		return
	}
	switch x := v.(type) {
	case nil:
		e.U8(0)
	case float64:
		e.U8(1)
		e.F64(x)
	case int:
		e.U8(2)
		e.Iv(int64(x))
	case string:
		e.U8(3)
		e.Str(x)
	case bool:
		e.U8(4)
		e.Flag(x)
	case []float64:
		e.U8(5)
		e.Uv(uint64(len(x)))
		for _, f := range x {
			e.F64(f)
		}
	case []byte:
		e.U8(6)
		e.Bytes(x)
	case int64:
		e.U8(7)
		e.Iv(x)
	case [][]float64:
		e.U8(8)
		e.Uv(uint64(len(x)))
		for _, row := range x {
			e.Uv(uint64(len(row)))
			for _, f := range row {
				e.F64(f)
			}
		}
	case []any:
		e.U8(9)
		e.Uv(uint64(len(x)))
		for _, el := range x {
			e.value(el, depth+1)
		}
	default:
		// gob encodes through a pointer to an interface; boxing a local copy
		// here keeps v itself off the heap on every native-typed call.
		boxed := v
		var gb bytes.Buffer
		if err := gob.NewEncoder(&gb).Encode(&boxed); err != nil {
			e.fail(fmt.Errorf("checkpoint: encode %T: %w", v, err))
			return
		}
		e.U8(10)
		e.Bytes(gb.Bytes())
	}
}

func (e *encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *encoder) kvs(kvs []KV) {
	e.Uv(uint64(len(kvs)))
	for _, kv := range kvs {
		e.Str(kv.Name)
		e.value(kv.V, 0)
	}
}

// The body is, in order: the header, the event journal (a count, then the
// entries), the round journal (likewise) and the exposed entries. state
// writes it from a State; EncodeJournal splices the two journal sections from
// entries encoded earlier, one by one, with event and round.

// header appends the capture's identity, counters and frontier.
func (e *encoder) header(st *State) {
	e.Raw(st.ID[:])
	e.Iv(st.Seed)
	e.Uv(uint64(st.MinSlots))
	e.Flag(st.Complete)
	c := &st.Counters
	for _, v := range [...]int64{
		c.Regions, c.Rounds, c.Samples, c.Pruned,
		c.Panics, c.Timeouts, c.Retried, c.Degraded,
		c.Splits, c.PeakRetained,
		c.WorkMilli, c.WorkSerialMilli, c.WorkParaMilli,
	} {
		e.Iv(v)
	}

	paths := make([]string, 0, len(st.Frontier))
	for p := range st.Frontier {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	e.Uv(uint64(len(paths)))
	for _, p := range paths {
		e.Str(p)
		e.Uv(st.Frontier[p])
	}
}

// event appends one event journal entry.
func (e *encoder) event(ev *Event) {
	e.Str(ev.Path)
	e.Uv(ev.Seq)
	e.U8(ev.Kind)
	e.Uv(ev.Arg)
	e.Str(ev.Name)
}

// round appends one round journal entry.
func (e *encoder) round(r *Round) {
	e.Str(r.Path)
	e.Uv(r.Seq)
	e.Str(r.Region)
	e.Iv(int64(r.Round))
	e.Iv(int64(r.N))
	e.Iv(int64(r.K))
	e.U64(r.FBHash)
	e.kvs(r.Aggregated)
	e.Uv(uint64(len(r.Groups)))
	for gi := range r.Groups {
		g := &r.Groups[gi]
		e.Uv(uint64(len(g.Params)))
		for _, p := range g.Params {
			e.Str(p.Name)
			e.F64(p.V)
		}
		e.Flag(g.HaveParams)
		e.F64(g.ScoreSum)
		e.Iv(int64(g.ScoreCnt))
		e.Flag(g.Pruned)
		e.U8(g.ErrKind)
		e.Str(g.ErrMsg)
		e.kvs(g.Commits)
	}
}

// state appends st's body layout.
func (e *encoder) state(st *State) {
	e.header(st)
	e.Uv(uint64(len(st.Events)))
	for i := range st.Events {
		e.event(&st.Events[i])
	}
	e.Uv(uint64(len(st.Rounds)))
	for i := range st.Rounds {
		e.round(&st.Rounds[i])
	}
	e.exposed(st.Exposed)
}

// exposed appends the exposed entries. Entries whose value the codec cannot
// represent are skipped rather than failing the checkpoint: the tuning
// program re-executes its Expose calls during replay anyway, so the snapshot
// is a warm start, not the source of truth. Journal values, by contrast,
// fail the write — replay cannot reconstruct a round without them.
func (e *encoder) exposed(xs []Entry) {
	countAt := len(e.B)
	e.Uv(uint64(len(xs))) // worst case; re-encoded below if entries drop
	kept := 0
	entriesAt := len(e.B)
	for _, en := range xs {
		mark := len(e.B)
		probe := encoder{Writer: wire.Writer{B: e.B}}
		probe.Str(en.Scope)
		probe.Str(en.Name)
		probe.value(en.V, 0)
		if probe.err != nil {
			e.B = e.B[:mark]
			continue
		}
		e.B = probe.B
		kept++
	}
	if kept != len(xs) {
		// Rewrite the count in place. Uvarint lengths can differ, so
		// re-append the kept entries after the corrected count.
		entries := append([]byte(nil), e.B[entriesAt:]...)
		e.B = e.B[:countAt]
		e.Uv(uint64(kept))
		e.Raw(entries)
	}
}

// EncodeBytes encodes st into a freshly allocated byte slice. The body is
// staged in a pooled buffer and sealed into its envelope in one copy.
func EncodeBytes(st *State) ([]byte, error) {
	e := encoder{Writer: wire.Writer{B: wire.Alloc(4 << 10)[:0]}}
	e.state(st)
	return e.seal()
}

// seal wraps the staged body in its envelope and frees the staging buffer.
func (e *encoder) seal() ([]byte, error) {
	var out []byte
	err := e.err
	if err == nil {
		out, err = wire.Seal(magic, Version, e.B)
	}
	wire.Free(e.B)
	return out, err
}

// Journal is the event and round journal of one P path, each entry encoded
// once, when it is journaled, exactly as EncodeBytes would encode it. A
// capture then splices journals (EncodeJournal) instead of re-encoding every
// entry it has ever recorded.
type Journal struct {
	events, rounds   []byte
	nEvents, nRounds int
}

// AddEvent appends ev's encoding.
func (j *Journal) AddEvent(ev *Event) {
	e := encoder{Writer: wire.Writer{B: j.events}}
	e.event(ev)
	j.events = e.B
	j.nEvents++
}

// AddRound appends r's encoding. It fails, leaving the journal as it was, if
// a value has no encoding (an unregistered gob type).
func (j *Journal) AddRound(r *Round) error {
	e := encoder{Writer: wire.Writer{B: j.rounds}}
	e.round(r)
	if e.err != nil {
		j.rounds = e.B[:len(j.rounds)]
		return e.err
	}
	j.rounds = e.B
	j.nRounds++
	return nil
}

// EncodeJournal encodes st exactly as EncodeBytes encodes a copy of st whose
// Events and Rounds are the entries of js, journal by journal in the order
// given; st's own Events and Rounds are ignored. Listing the journals in
// sorted path order reproduces EncodeBytes's (path, seq) entry order.
func EncodeJournal(st *State, js []*Journal) ([]byte, error) {
	// The staging buffer is sized for the journals plus a header and a small
	// exposed store: a larger pooled class would sit in the pool unused.
	n, ne, nr := 1<<10, 0, 0
	for _, j := range js {
		n += len(j.events) + len(j.rounds)
		ne += j.nEvents
		nr += j.nRounds
	}
	e := encoder{Writer: wire.Writer{B: wire.Alloc(n)[:0]}}
	e.header(st)
	e.Uv(uint64(ne))
	for _, j := range js {
		e.Raw(j.events)
	}
	e.Uv(uint64(nr))
	for _, j := range js {
		e.Raw(j.rounds)
	}
	e.exposed(st.Exposed)
	return e.seal()
}

// readValue decodes one dynamically typed value; malformed input fails r.
func readValue(r *wire.Reader, depth int) any {
	if depth > maxValueDepth {
		r.Corruptf("value nesting exceeds %d", maxValueDepth)
		return nil
	}
	switch tag := r.U8(); tag {
	case 0:
		return nil
	case 1:
		return r.F64()
	case 2:
		return int(r.Iv())
	case 3:
		return r.Str()
	case 4:
		return r.Flag()
	case 5:
		return readFloats(r)
	case 6:
		return append([]byte(nil), r.Bytes()...)
	case 7:
		return r.Iv()
	case 8:
		rows := make([][]float64, r.Count(1))
		for i := range rows {
			rows[i] = readFloats(r)
		}
		return rows
	case 9:
		vs := make([]any, r.Count(1))
		for i := range vs {
			vs[i] = readValue(r, depth+1)
		}
		return vs
	case 10:
		gb := r.Bytes()
		if r.Err() != nil {
			return nil
		}
		var v any
		if err := gob.NewDecoder(bytes.NewReader(gb)).Decode(&v); err != nil {
			r.Corruptf("gob value: %v", err)
			return nil
		}
		return v
	default:
		r.Corruptf("unknown value tag %d", tag)
		return nil
	}
}

func readFloats(r *wire.Reader) []float64 {
	vs := make([]float64, r.Count(8))
	for i := range vs {
		vs[i] = r.F64()
	}
	return vs
}

func readKVs(r *wire.Reader) []KV {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	kvs := make([]KV, n)
	for i := range kvs {
		kvs[i].Name = r.Str()
		kvs[i].V = readValue(r, 0)
	}
	return kvs
}

// DecodeBytes parses one framed checkpoint from data. It returns
// ErrCheckpointVersion (wrapped) for an unknown codec version and
// ErrCorrupt (wrapped) for structurally invalid input; it never panics on
// malformed data.
func DecodeBytes(data []byte) (*State, error) {
	body, err := wire.Open(data, magic, Version)
	if err != nil {
		return nil, wireErr(err)
	}
	r := wire.NewReader(body)
	st := &State{}
	copy(st.ID[:], r.Take(16))
	st.Seed = r.Iv()
	st.MinSlots = int(r.Uv())
	st.Complete = r.Flag()
	c := &st.Counters
	for _, p := range []*int64{
		&c.Regions, &c.Rounds, &c.Samples, &c.Pruned,
		&c.Panics, &c.Timeouts, &c.Retried, &c.Degraded,
		&c.Splits, &c.PeakRetained,
		&c.WorkMilli, &c.WorkSerialMilli, &c.WorkParaMilli,
	} {
		*p = r.Iv()
	}

	nf := r.Count(2)
	if nf > 0 {
		st.Frontier = make(map[string]uint64, nf)
	}
	for i := 0; i < nf && r.Err() == nil; i++ {
		p := r.Str()
		st.Frontier[p] = r.Uv()
	}

	ne := r.Count(4)
	if ne > 0 {
		st.Events = make([]Event, ne)
	}
	for i := range st.Events {
		ev := &st.Events[i]
		ev.Path = r.Str()
		ev.Seq = r.Uv()
		ev.Kind = r.U8()
		ev.Arg = r.Uv()
		ev.Name = r.Str()
	}

	nr := r.Count(8)
	if nr > 0 {
		st.Rounds = make([]Round, nr)
	}
	for i := range st.Rounds {
		rd := &st.Rounds[i]
		rd.Path = r.Str()
		rd.Seq = r.Uv()
		rd.Region = r.Str()
		rd.Round = int(r.Iv())
		rd.N = int(r.Iv())
		rd.K = int(r.Iv())
		rd.FBHash = r.U64()
		rd.Aggregated = readKVs(r)
		ng := r.Count(8)
		if ng > 0 {
			rd.Groups = make([]Group, ng)
		}
		for gi := range rd.Groups {
			g := &rd.Groups[gi]
			np := r.Count(9)
			if np > 0 {
				g.Params = make([]Param, np)
			}
			for pi := range g.Params {
				g.Params[pi].Name = r.Str()
				g.Params[pi].V = r.F64()
			}
			g.HaveParams = r.Flag()
			g.ScoreSum = r.F64()
			g.ScoreCnt = int(r.Iv())
			g.Pruned = r.Flag()
			g.ErrKind = r.U8()
			g.ErrMsg = r.Str()
			g.Commits = readKVs(r)
		}
	}

	nx := r.Count(3)
	if nx > 0 {
		st.Exposed = make([]Entry, nx)
	}
	for i := range st.Exposed {
		en := &st.Exposed[i]
		en.Scope = r.Str()
		en.Name = r.Str()
		en.V = readValue(r, 0)
	}

	if err := r.Done(); err != nil {
		return nil, wireErr(err)
	}
	return st, nil
}
