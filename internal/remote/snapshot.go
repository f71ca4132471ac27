package remote

import (
	"encoding/binary"
	"strings"
	"sync"

	"repro/internal/dist"
	"repro/internal/store"
	"repro/internal/wire"
)

// Snapshot identity and serialization. A snapshot is the exposed store's
// entries sorted by (scope, name). Its identity is a sum mod 2^64 of one term
// per entry, entryHash(scope, name, encoded value bytes), not a hash of a
// contiguous encoding: a sum composes, so the next store version costs
// O(changed entries) on both ends — new = prev − replaced/deleted terms +
// changed terms — however large the unchanged @load state is. The value bytes
// are part of the identity and opaque values encode as ValueTable handles
// assigned at encode time, so a value is encoded exactly once, when it enters
// the store; every later version, delta and full ship carries those bytes.

// snapEntry is one entry of a snapshot version. The dispatcher and delta
// frames keep val, the once-encoded value bytes (tag included) that
// successive versions share; a worker keeps v, the decoded value, shared the
// same way. hash is the entry's identity term on both sides.
type snapEntry struct {
	scope, name string
	val         []byte
	v           any
	hash        uint64
}

// delKey names one deleted entry in a delta.
type delKey struct{ scope, name string }

// cmpEntryKey orders entries by (scope, name), the canonical snapshot order.
func cmpEntryKey(aScope, aName, bScope, bName string) int {
	if c := strings.Compare(aScope, bScope); c != 0 {
		return c
	}
	return strings.Compare(aName, bName)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvAdd folds s into a running FNV-1a state.
func fnvAdd[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

var nul = []byte{0}

// entryHash is one entry's identity term: FNV-1a over scope‖0‖name‖0‖val,
// finalised so that the sum of many terms stays well distributed.
func entryHash(scope, name string, val []byte) uint64 {
	h := fnvAdd(fnvAdd(fnvAdd(uint64(fnvOffset), scope), nul), name)
	return dist.Mix(fnvAdd(fnvAdd(h, nul), val), 0)
}

// snapIdentity maps a sum of entry terms to the identity that crosses the
// wire. 0 is reserved for "this round has no snapshot".
func snapIdentity(sum uint64) uint64 {
	if sum == 0 {
		return 1
	}
	return sum
}

// encodeEntry encodes v exactly once and returns its entry. scratch is
// reused between calls; the returned bytes are an exact-size copy, so a
// version that outlives its siblings pins only the values it still holds.
func encodeEntry(scratch *wire.Writer, scope, name string, v any, vt *ValueTable) (snapEntry, error) {
	scratch.B = scratch.B[:0]
	if err := appendValue(scratch, v, vt); err != nil {
		return snapEntry{}, err
	}
	val := append([]byte(nil), scratch.B...)
	return snapEntry{scope: scope, name: name, val: val, hash: entryHash(scope, name, val)}, nil
}

// snapBound is an O(entries) upper bound on the length of ents' from-empty
// frame less its fixed header (snapshotOverhead), what the wire cap and the
// delta ratio rule are checked against without materialising it: the symbol,
// entry and deletion counts, then per entry its value bytes and their length
// prefix, two symbol ids and — charged per entry, not once per distinct
// string — both symbols' table slots.
func snapBound(ents []snapEntry) int {
	n := 3 * binary.MaxVarintLen64
	for i := range ents {
		en := &ents[i]
		n += len(en.val) + len(en.scope) + len(en.name) + 5*binary.MaxVarintLen64
	}
	return n
}

// snapVersion is one immutable version of a job's snapshot on the
// dispatcher. Its from-empty frame exists only once a full ship of this
// version is actually queued.
type snapVersion struct {
	job  uint64
	ents []snapEntry // sorted
	sum  uint64      // of the entries' terms
	hash uint64      // snapIdentity(sum)

	// seq orders the job's versions (1 is its first). reach is the oldest seq
	// a worker can hold and still be brought here by a cached delta: every
	// base retained when this version was built, back to reach, passed the
	// ratio bound. reach == seq when no delta leads here.
	seq, reach uint64

	once sync.Once
	full []byte
}

// newSnapVersion encodes every value of e once, as a job's first version.
// Deterministic for native values: equal store contents yield equal entries
// and identity.
func newSnapVersion(job uint64, e *store.Exposed, vt *ValueTable) (*snapVersion, error) {
	kvs := e.Entries()
	v := &snapVersion{job: job, ents: make([]snapEntry, 0, len(kvs)), seq: 1, reach: 1}
	var scratch wire.Writer
	for _, kv := range kvs {
		en, err := encodeEntry(&scratch, kv.Scope, kv.Name, kv.V, vt)
		if err != nil {
			return nil, err
		}
		v.ents = append(v.ents, en)
		v.sum += en.hash
	}
	v.hash = snapIdentity(v.sum)
	return v, nil
}

// encoded returns the version's from-empty frame: the mSnapDelta that takes
// a worker holding nothing of the job (BaseHash 0, the empty snapshot) to
// this version, every entry a changed one. Built on first use; immutable
// afterwards.
func (v *snapVersion) encoded() []byte {
	v.once.Do(func() {
		v.full = encodeSnapDelta(&snapDelta{Job: v.job, NewHash: v.hash, Changed: v.ents})
	})
	return v.full
}

// symtab is a frame-local symbol table: strings interned in first-appearance
// order, so each distinct scope and name is written once and referenced by a
// varint id.
type symtab struct {
	ids   map[string]uint64
	names []string
}

func (t *symtab) intern(s string) {
	if _, ok := t.ids[s]; !ok {
		t.ids[s] = uint64(len(t.names))
		t.names = append(t.names, s)
	}
}

func (t *symtab) write(w *wire.Writer) {
	w.Uv(uint64(len(t.names)))
	for _, s := range t.names {
		w.Str(s)
	}
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

// decodeEntry decodes a changed entry's value bytes into a worker-side
// entry. The bytes must hold exactly one value: a length prefix that
// disagrees with the value it frames is malformed.
func decodeEntry(en *snapEntry, vt *ValueTable) (snapEntry, error) {
	r := wire.NewReader(en.val)
	v := readValue(r, vt)
	if err := codecErr(r.Done()); err != nil {
		return snapEntry{}, err
	}
	return snapEntry{scope: en.scope, name: en.name, v: v, hash: entryHash(en.scope, en.name, en.val)}, nil
}

// cachedSnap is one snapshot version a worker holds: the decoded store that
// samples read, plus the sorted entries (decoded value and term each) and
// their sum, which the next delta is applied to. Immutable once installed.
type cachedSnap struct {
	e    *store.Exposed
	ents []snapEntry
	sum  uint64
}

func newCachedSnap(ents []snapEntry, sum uint64) *cachedSnap {
	e := store.NewExposed()
	for i := range ents {
		e.Set(ents[i].scope, ents[i].name, ents[i].v)
	}
	return &cachedSnap{e: e, ents: ents, sum: sum}
}
