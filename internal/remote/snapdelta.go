package remote

import "repro/internal/wire"

// Protocol v4 delta snapshot shipping. A snapshot's canonical encoding is a
// byte string (see snapshot.go); once a job has shipped one, every later
// version's canonical encoding is *defined* as applySnapDelta(prev, delta) —
// a deterministic byte-level patch both sides run — rather than a fresh
// encodeSnapshot. That definition matters because opaque values encode as
// ValueTable handles whose ids are assigned at encode time: re-encoding the
// same store twice yields different bytes, so only patching keeps the
// dispatcher's and every worker's copy byte-identical (and therefore
// hash-identical) across versions.
//
// An mSnapDelta frame carries {job, baseHash, newHash, changed entries with
// raw value bytes, deleted keys}. The worker locates the encoded base by
// (job, baseHash), patches, and verifies the FNV-1a hash of the result
// against newHash before decoding — a mismatch or a missing base produces a
// typed mSnapNack refusal, which the dispatcher answers with a full ship.
// Divergence is impossible to ignore; it is never silent.

// snapDeltaProto is the first protocol version that understands
// mSnapDelta/mSnapNack; workers negotiating anything older are shipped full
// snapshots only.
const snapDeltaProto = 4

// Nack causes: why a worker refused an mSnapDelta.
const (
	nackBaseMissing  byte = 1 // the (job, baseHash) encoding is not cached
	nackHashMismatch byte = 2 // the patch result did not hash to newHash
)

// skipValue advances r past one encoded value without decoding it and
// returns the raw bytes it occupied (aliasing r's buffer), or nil with r's
// sticky error set on malformed input. This is how delta construction and
// patching move opaque values between encodings verbatim — the bytes are
// the identity; they are never re-encoded.
func skipValue(r *wire.Reader) []byte {
	start := r.Rest()
	switch tag := r.U8(); tag {
	case vNil:
	case vBool:
		r.Take(1)
	case vInt:
		r.Iv()
	case vFloat64:
		r.Take(8)
	case vString, vBytes:
		r.Bytes()
	case vInts:
		n := r.Count(1)
		for i := 0; i < n && r.Err() == nil; i++ {
			r.Iv()
		}
	case vFloats:
		r.Take(8 * r.Count(8))
	case vFloatss:
		n := r.Count(1)
		for i := 0; i < n && r.Err() == nil; i++ {
			r.Take(8 * r.Count(8))
		}
	case vHandle:
		r.Uv()
	default:
		r.Corruptf("unknown value tag %d", tag)
	}
	if r.Err() != nil {
		return nil
	}
	return start[:len(start)-len(r.Rest())]
}

// encEntry is one entry of an encoded snapshot in structural form: its
// scoped name plus the raw value bytes inside the encoding (tag included).
type encEntry struct {
	scope, name string
	val         []byte
}

// delKey names one deleted entry in a delta.
type delKey struct{ scope, name string }

// cmpEntryKey orders entries by (scope, name), the canonical snapshot order.
func cmpEntryKey(aScope, aName, bScope, bName string) int {
	if aScope != bScope {
		if aScope < bScope {
			return -1
		}
		return 1
	}
	if aName != bName {
		if aName < bName {
			return -1
		}
		return 1
	}
	return 0
}

// parseSnapEntries splits encoded snapshot bytes into per-entry triples
// without decoding values — the structural view delta construction and
// patching work on. The returned entries alias b.
func parseSnapEntries(b []byte) ([]encEntry, error) {
	r := wire.NewReader(b)
	names := readSymbols(r)
	nent := r.Count(3)
	ents := make([]encEntry, 0, nent)
	for i := 0; i < nent && r.Err() == nil; i++ {
		en := encEntry{scope: readSymbol(r, names), name: readSymbol(r, names), val: skipValue(r)}
		if r.Err() == nil {
			ents = append(ents, en)
		}
	}
	if err := codecErr(r.Done()); err != nil {
		return nil, err
	}
	return ents, nil
}

// snapDelta is one decoded mSnapDelta frame. Changed entries carry raw value
// bytes sliced from (and aliasing) the frame payload, in (scope, name) order.
type snapDelta struct {
	Job      uint64
	BaseHash uint64
	NewHash  uint64
	Changed  []encEntry
	Deleted  []delKey
}

// encodeSnapDelta serializes a delta frame. Changed and deleted must already
// be sorted by (scope, name); scope and name strings are interned into a
// frame-local symbol table in first-appearance order.
func encodeSnapDelta(d *snapDelta) []byte {
	ids := make(map[string]uint64, 2*(len(d.Changed)+len(d.Deleted)))
	var names []string
	intern := func(s string) uint64 {
		if id, ok := ids[s]; ok {
			return id
		}
		id := uint64(len(names))
		ids[s] = id
		names = append(names, s)
		return id
	}
	for _, en := range d.Changed {
		intern(en.scope)
		intern(en.name)
	}
	for _, k := range d.Deleted {
		intern(k.scope)
		intern(k.name)
	}
	w := &wire.Writer{}
	w.U8(mSnapDelta)
	w.Uv(d.Job)
	w.U64(d.BaseHash)
	w.U64(d.NewHash)
	w.Uv(uint64(len(names)))
	for _, s := range names {
		w.Str(s)
	}
	w.Uv(uint64(len(d.Changed)))
	for _, en := range d.Changed {
		w.Uv(ids[en.scope])
		w.Uv(ids[en.name])
		w.Raw(en.val)
	}
	w.Uv(uint64(len(d.Deleted)))
	for _, k := range d.Deleted {
		w.Uv(ids[k.scope])
		w.Uv(ids[k.name])
	}
	return w.B
}

// decodeSnapDelta parses an mSnapDelta payload (type byte stripped). Changed
// value bytes alias b, so callers must finish patching before recycling the
// frame buffer.
func decodeSnapDelta(b []byte) (snapDelta, error) {
	r := wire.NewReader(b)
	d := snapDelta{Job: r.Uv(), BaseHash: r.U64(), NewHash: r.U64()}
	names := readSymbols(r)
	nch := r.Count(3)
	d.Changed = make([]encEntry, 0, nch)
	for i := 0; i < nch && r.Err() == nil; i++ {
		en := encEntry{scope: readSymbol(r, names), name: readSymbol(r, names), val: skipValue(r)}
		if r.Err() == nil {
			d.Changed = append(d.Changed, en)
		}
	}
	ndel := r.Count(2)
	d.Deleted = make([]delKey, 0, ndel)
	for i := 0; i < ndel && r.Err() == nil; i++ {
		k := delKey{scope: readSymbol(r, names), name: readSymbol(r, names)}
		if r.Err() == nil {
			d.Deleted = append(d.Deleted, k)
		}
	}
	return d, codecErr(r.Done())
}

// applySnapDelta patches base (an encoded snapshot) with d and returns the
// new canonical encoding in a pool-allocated buffer. The patch is a pure
// function of (base, d): the dispatcher and every worker produce identical
// bytes, which is what makes the post-patch hash check meaningful. The
// caller owns the returned buffer; it does NOT alias base or d.
func applySnapDelta(base []byte, d *snapDelta) ([]byte, error) {
	ents, err := parseSnapEntries(base)
	if err != nil {
		return nil, err
	}
	dels := make(map[delKey]struct{}, len(d.Deleted))
	for _, k := range d.Deleted {
		dels[k] = struct{}{}
	}
	merged := make([]encEntry, 0, len(ents)+len(d.Changed))
	i, j := 0, 0
	for i < len(ents) || j < len(d.Changed) {
		takeChanged := false
		switch {
		case i >= len(ents):
			takeChanged = true
		case j >= len(d.Changed):
		default:
			switch cmpEntryKey(d.Changed[j].scope, d.Changed[j].name, ents[i].scope, ents[i].name) {
			case -1:
				takeChanged = true
			case 0: // same key: the changed entry replaces the base entry
				merged = append(merged, d.Changed[j])
				i++
				j++
				continue
			}
		}
		if takeChanged {
			merged = append(merged, d.Changed[j])
			j++
			continue
		}
		en := ents[i]
		i++
		if _, gone := dels[delKey{scope: en.scope, name: en.name}]; gone {
			continue
		}
		merged = append(merged, en)
	}

	ids := make(map[string]uint64, 16)
	var names []string
	intern := func(s string) uint64 {
		if id, ok := ids[s]; ok {
			return id
		}
		id := uint64(len(names))
		ids[s] = id
		names = append(names, s)
		return id
	}
	est := len(base) + 64
	for _, en := range d.Changed {
		est += len(en.val) + len(en.scope) + len(en.name) + 16
	}
	w := &wire.Writer{B: wire.Alloc(est)[:0]}
	for _, en := range merged {
		intern(en.scope)
		intern(en.name)
	}
	w.Uv(uint64(len(names)))
	for _, s := range names {
		w.Str(s)
	}
	w.Uv(uint64(len(merged)))
	for _, en := range merged {
		w.Uv(ids[en.scope])
		w.Uv(ids[en.name])
		w.Raw(en.val)
	}
	return w.B, nil
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
