package remote

import (
	"repro/internal/store"
	"repro/internal/wire"
)

// Snapshot serialization: the exposed store's entries, sorted by (scope,
// name), with both strings interned through a store.Symbols table so each
// distinct scope and variable name is encoded once and every entry is two
// varint IDs plus its value. The FNV-1a hash of the encoded bytes is the
// snapshot's content identity — the dispatcher ships a snapshot to a worker
// at most once per hash, and the worker caches decoded stores by hash, which
// is the paper's load-once reuse of @load state stretched across the wire.

// encodeSnapshot serializes e's entries and returns the bytes with their
// content hash. Opaque values go through the value table (or fail without
// one). Deterministic: equal store contents yield equal bytes and hash.
func encodeSnapshot(e *store.Exposed, vt *ValueTable) ([]byte, uint64, error) {
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
			return nil, 0, err
		}
	}
	return w.B, wire.FNV1a(w.B), nil
}

// readSymbols reads a symbol table: a count, then that many strings.
func readSymbols(r *wire.Reader) []string {
	n := r.Count(1)
	names := make([]string, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		names = append(names, r.Str())
	}
	return names
}

// readSymbol reads a symbol id and resolves it in names, failing r on an id
// outside the table.
func readSymbol(r *wire.Reader, names []string) string {
	id := r.Uv()
	if r.Err() != nil || id >= uint64(len(names)) {
		r.Corruptf("symbol id %d outside table of %d", id, len(names))
		return ""
	}
	return names[id]
}

// decodeSnapshot rebuilds an exposed store from encoded snapshot bytes.
func decodeSnapshot(b []byte, vt *ValueTable) (*store.Exposed, error) {
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
