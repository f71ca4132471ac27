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
// entry-list path (TestSnapAdvanceMatchesFullPatch).

// oracleEntry is one entry of an encoded snapshot in structural form: its
// scoped name plus the raw value bytes inside the encoding (tag included).
type oracleEntry struct {
	scope, name string
	val         []byte
}

// oracleEncode serializes e's entries, sorted by (scope, name), with both
// strings interned through a symbol table and every value freshly encoded.
func oracleEncode(e *store.Exposed, vt *ValueTable) ([]byte, error) {
	entries := e.Entries()
	syms := store.NewSymbols()
	for _, kv := range entries {
		syms.Intern(kv.Scope)
		syms.Intern(kv.Name)
	}
	w := &wire.Writer{}
	n := syms.Len()
	w.Uv(uint64(n))
	for id := 0; id < n; id++ {
		w.Str(syms.Name(uint32(id)))
	}
	w.Uv(uint64(len(entries)))
	for _, kv := range entries {
		scopeID, _ := syms.Lookup(kv.Scope)
		nameID, _ := syms.Lookup(kv.Name)
		w.Uv(uint64(scopeID))
		w.Uv(uint64(nameID))
		if err := appendValue(w, kv.V, vt); err != nil {
			return nil, err
		}
	}
	return w.B, nil
}

// oracleParse splits encoded snapshot bytes into per-entry triples without
// decoding values. The returned entries alias b.
func oracleParse(b []byte) ([]oracleEntry, error) {
	r := wire.NewReader(b)
	names := readSymbols(r)
	nent := r.Count(3)
	ents := make([]oracleEntry, 0, nent)
	for i := 0; i < nent && r.Err() == nil; i++ {
		en := oracleEntry{scope: readSymbol(r, names), name: readSymbol(r, names), val: skipValue(r)}
		if r.Err() == nil {
			ents = append(ents, en)
		}
	}
	if err := codecErr(r.Done()); err != nil {
		return nil, err
	}
	return ents, nil
}

// oraclePatch patches base (an encoded snapshot) with d and returns the new
// encoding, a pure function of (base, d).
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

	ids := make(map[string]uint64, 16)
	var names []string
	intern := func(s string) {
		if _, ok := ids[s]; !ok {
			ids[s] = uint64(len(names))
			names = append(names, s)
		}
	}
	for _, en := range merged {
		intern(en.scope)
		intern(en.name)
	}
	w := &wire.Writer{}
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

// oracleDecode rebuilds an exposed store from encoded snapshot bytes.
func oracleDecode(b []byte, vt *ValueTable) (*store.Exposed, error) {
	r := wire.NewReader(b)
	names := readSymbols(r)
	nent := r.Count(3)
	e := store.NewExposed()
	for i := 0; i < nent && r.Err() == nil; i++ {
		scope, name := readSymbol(r, names), readSymbol(r, names)
		if v := readValue(r, vt); r.Err() == nil {
			e.Set(scope, name, v)
		}
	}
	if err := codecErr(r.Done()); err != nil {
		return nil, err
	}
	return e, nil
}

// oracleIdentity recomputes a snapshot's identity from nothing but its
// encoded bytes.
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
