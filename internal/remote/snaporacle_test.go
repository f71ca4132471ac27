package remote

import (
	"repro/internal/store"
	"repro/internal/wire"
)

// The protocol-v4 snapshot path, kept as a test-only reference: a snapshot is
// one contiguous encoding, a version step is a byte-level patch of the whole
// of it, and the worker's store is a fresh decode of the patched bytes. It is
// O(snapshot bytes) per step, which is why it left the runtime, and has no
// state beyond its byte strings, which is what makes it an oracle for the
// entry-list path (TestSnapAdvanceMatchesFullPatch). Its byte strings are
// from-empty mSnapDelta frames, the runtime's full ships, with the identity
// in the header recomputed from the entries.

// oracleEntry is one entry of an encoded snapshot in structural form: its
// scoped name plus the raw value bytes inside the encoding (tag included).
type oracleEntry struct {
	scope, name string
	val         []byte
}

// oracleWrite serializes sorted entries as job's from-empty frame, with both
// strings interned through a symbol table in first-appearance order.
func oracleWrite(job uint64, ents []oracleEntry) []byte {
	syms := store.NewSymbols()
	var sum uint64
	for _, en := range ents {
		syms.Intern(en.scope)
		syms.Intern(en.name)
		sum += entryHash(en.scope, en.name, en.val)
	}
	w := &wire.Writer{}
	w.U8(mSnapDelta)
	w.Uv(job)
	w.U64(0)
	w.U64(snapIdentity(sum))
	n := syms.Len()
	w.Uv(uint64(n))
	for id := 0; id < n; id++ {
		w.Str(syms.Name(uint32(id)))
	}
	w.Uv(uint64(len(ents)))
	for _, en := range ents {
		scopeID, _ := syms.Lookup(en.scope)
		nameID, _ := syms.Lookup(en.name)
		w.Uv(uint64(scopeID))
		w.Uv(uint64(nameID))
		w.Bytes(en.val)
	}
	w.Uv(0)
	return w.B
}

// oracleEncode serializes e's entries, sorted by (scope, name), with every
// value freshly encoded.
func oracleEncode(job uint64, e *store.Exposed, vt *ValueTable) ([]byte, error) {
	var ents []oracleEntry
	for _, kv := range e.Entries() {
		w := &wire.Writer{}
		if err := appendValue(w, kv.V, vt); err != nil {
			return nil, err
		}
		ents = append(ents, oracleEntry{kv.Scope, kv.Name, w.B})
	}
	return oracleWrite(job, ents), nil
}

// oracleParse splits a from-empty frame into entries without decoding values.
// The returned entries alias b.
func oracleParse(b []byte) ([]oracleEntry, error) {
	r := wire.NewReader(b)
	typ, _, baseHash := r.U8(), r.Uv(), r.U64()
	if typ != mSnapDelta || baseHash != 0 {
		r.Corruptf("not a from-empty frame")
	}
	r.U64() // identity: recomputed, never trusted
	names := readSymbols(r)
	nent := r.Count(3)
	ents := make([]oracleEntry, 0, nent)
	for i := 0; i < nent && r.Err() == nil; i++ {
		en := oracleEntry{scope: readSymbol(r, names), name: readSymbol(r, names), val: r.Bytes()}
		if r.Err() == nil {
			ents = append(ents, en)
		}
	}
	if r.Uv() != 0 {
		r.Corruptf("from-empty frame deletes keys")
	}
	if err := codecErr(r.Done()); err != nil {
		return nil, err
	}
	return ents, nil
}

// oraclePatch patches base (a from-empty frame) with d and returns the new
// version's from-empty frame, a pure function of (base, d).
func oraclePatch(base []byte, d *snapDelta) ([]byte, error) {
	ents, err := oracleParse(base)
	if err != nil {
		return nil, err
	}
	dels := make(map[delKey]struct{}, len(d.Deleted))
	for _, k := range d.Deleted {
		dels[k] = struct{}{}
	}
	merged := make([]oracleEntry, 0, len(ents)+len(d.Changed))
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
				merged = append(merged, oracleEntry{d.Changed[j].scope, d.Changed[j].name, d.Changed[j].val})
				i++
				j++
				continue
			}
		}
		if takeChanged {
			merged = append(merged, oracleEntry{d.Changed[j].scope, d.Changed[j].name, d.Changed[j].val})
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
	return oracleWrite(d.Job, merged), nil
}

// oracleDecode rebuilds an exposed store from a from-empty frame.
func oracleDecode(b []byte, vt *ValueTable) (*store.Exposed, error) {
	ents, err := oracleParse(b)
	if err != nil {
		return nil, err
	}
	e := store.NewExposed()
	for _, en := range ents {
		r := wire.NewReader(en.val)
		v := readValue(r, vt)
		if err := codecErr(r.Done()); err != nil {
			return nil, err
		}
		e.Set(en.scope, en.name, v)
	}
	return e, nil
}

// oracleIdentity recomputes a snapshot's identity from nothing but the
// entries of its from-empty frame.
func oracleIdentity(b []byte) (uint64, error) {
	ents, err := oracleParse(b)
	if err != nil {
		return 0, err
	}
	var sum uint64
	for _, en := range ents {
		sum += entryHash(en.scope, en.name, en.val)
	}
	return snapIdentity(sum), nil
}
