package remote

import "repro/internal/wire"

// Delta snapshot shipping. A snapshot's identity is a sum of
// per-entry terms (see snapshot.go), so both ends move from one version to
// the next by touching only the entries that changed.
//
// An mSnapDelta frame carries {job, baseHash, newHash, changed entries with
// their length-prefixed encoded value bytes, deleted keys}; it is the only
// snapshot frame. The worker locates the snapshot it caches under (job,
// baseHash), splices the changes into a copy of its entry list — decoding
// only the changed values, sharing every other one — and installs the result
// only if the identity it arrives at equals newHash. A full ship is the delta
// from the empty snapshot: baseHash 0, which snapIdentity never produces and
// every worker holds implicitly. A mismatch or a missing base produces a
// typed mSnapNack refusal, which the dispatcher answers with a full ship; a
// full ship that fails verification is malformed and drops the connection,
// since answering its nack with the same frame would loop. Every cached
// snapshot is therefore one verified step from a verified base, the empty
// one included: divergence is impossible to ignore; it is never silent.

// Nack causes: why a worker refused an mSnapDelta.
const (
	nackBaseMissing  byte = 1 // no snapshot is cached under (job, baseHash)
	nackHashMismatch byte = 2 // the spliced entries did not sum to newHash
)

// snapDelta is one decoded mSnapDelta frame. Changed entries carry raw value
// bytes (val) sliced from, and aliasing, the frame payload; changed and
// deleted keys are each in strictly ascending (scope, name) order. BaseHash 0
// names the empty snapshot.
type snapDelta struct {
	Job      uint64
	BaseHash uint64
	NewHash  uint64
	Changed  []snapEntry
	Deleted  []delKey
}

// encodeSnapDelta serializes a delta frame. Changed and deleted must already
// be sorted by (scope, name); scope and name strings are interned into a
// frame-local symbol table in first-appearance order.
func encodeSnapDelta(d *snapDelta) []byte {
	syms := symtab{ids: make(map[string]uint64)}
	for i := range d.Changed {
		syms.intern(d.Changed[i].scope)
		syms.intern(d.Changed[i].name)
	}
	for _, k := range d.Deleted {
		syms.intern(k.scope)
		syms.intern(k.name)
	}
	w := &wire.Writer{}
	w.U8(mSnapDelta)
	w.Uv(d.Job)
	w.U64(d.BaseHash)
	w.U64(d.NewHash)
	syms.write(w)
	w.Uv(uint64(len(d.Changed)))
	for i := range d.Changed {
		en := &d.Changed[i]
		w.Uv(syms.ids[en.scope])
		w.Uv(syms.ids[en.name])
		w.Bytes(en.val)
	}
	w.Uv(uint64(len(d.Deleted)))
	for _, k := range d.Deleted {
		w.Uv(syms.ids[k.scope])
		w.Uv(syms.ids[k.name])
	}
	return w.B
}

// decodeSnapDelta parses an mSnapDelta payload (type byte stripped) without
// decoding values. Changed value bytes alias b, so callers must be done with
// them before recycling the frame buffer; whether each holds exactly one value
// is checked when it is decoded (decodeEntry). Keys out of order are refused —
// spliceEntries merges sorted lists.
func decodeSnapDelta(b []byte) (snapDelta, error) {
	r := wire.NewReader(b)
	d := snapDelta{Job: r.Uv(), BaseHash: r.U64(), NewHash: r.U64()}
	names := readSymbols(r)
	nch := r.Count(3)
	d.Changed = make([]snapEntry, 0, nch)
	for i := 0; i < nch && r.Err() == nil; i++ {
		en := snapEntry{scope: readSymbol(r, names), name: readSymbol(r, names), val: r.Bytes()}
		if i > 0 && r.Err() == nil && cmpEntryKey(d.Changed[i-1].scope, d.Changed[i-1].name, en.scope, en.name) >= 0 {
			r.Corruptf("changed entry %q/%q out of order", en.scope, en.name)
		}
		if r.Err() == nil {
			d.Changed = append(d.Changed, en)
		}
	}
	ndel := r.Count(2)
	d.Deleted = make([]delKey, 0, ndel)
	for i := 0; i < ndel && r.Err() == nil; i++ {
		k := delKey{scope: readSymbol(r, names), name: readSymbol(r, names)}
		if i > 0 && r.Err() == nil && cmpEntryKey(d.Deleted[i-1].scope, d.Deleted[i-1].name, k.scope, k.name) >= 0 {
			r.Corruptf("deleted key %q/%q out of order", k.scope, k.name)
		}
		if r.Err() == nil {
			d.Deleted = append(d.Deleted, k)
		}
	}
	return d, codecErr(r.Done())
}

// spliceEntries applies a delta to a version's sorted entry list and to the
// sum of its entry terms: every changed entry replaces its namesake or is
// inserted in order, every deleted key present in base is dropped (a changed
// key wins over a deletion of the same key; deleting an absent key is a
// no-op). base is not modified; the result shares every entry the delta did
// not touch. changed and deleted must each be strictly ascending. It is the
// one definition of a version step: the dispatcher and every worker run it, on
// value bytes and on decoded values respectively, and must arrive at the same
// sum.
func spliceEntries(base []snapEntry, sum uint64, changed []snapEntry, deleted []delKey) ([]snapEntry, uint64) {
	out := make([]snapEntry, 0, len(base)+len(changed))
	i, j, k := 0, 0, 0
	for i < len(base) || j < len(changed) {
		c := -1 // changed[j] sorts before base[i]: an insert
		switch {
		case j == len(changed):
			c = 1
		case i < len(base):
			c = cmpEntryKey(changed[j].scope, changed[j].name, base[i].scope, base[i].name)
		}
		if c <= 0 {
			out = append(out, changed[j])
			sum += changed[j].hash
			j++
			if c < 0 {
				continue
			}
		}
		en := &base[i]
		i++
		if c > 0 {
			for k < len(deleted) && cmpEntryKey(deleted[k].scope, deleted[k].name, en.scope, en.name) < 0 {
				k++
			}
			if k == len(deleted) || deleted[k] != (delKey{en.scope, en.name}) {
				out = append(out, *en)
				continue
			}
		}
		sum -= en.hash // replaced or deleted
	}
	return out, sum
}

// snapNack is one decoded mSnapNack frame.
type snapNack struct {
	Job      uint64
	BaseHash uint64
	NewHash  uint64
	Cause    byte
}

func encodeSnapNack(n snapNack) []byte {
	w := &wire.Writer{}
	w.U8(mSnapNack)
	w.Uv(n.Job)
	w.U64(n.BaseHash)
	w.U64(n.NewHash)
	w.U8(n.Cause)
	return w.B
}

func decodeSnapNack(b []byte) (snapNack, error) {
	r := wire.NewReader(b)
	n := snapNack{Job: r.Uv(), BaseHash: r.U64(), NewHash: r.U64(), Cause: r.U8()}
	return n, codecErr(r.Done())
}
