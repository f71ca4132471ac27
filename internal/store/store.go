// Package store implements the exposed store of the WBTuner semantics
// (Fig. 8): a mapping from scope-qualified variable names to values, written
// by @expose and read by @load from inside callbacks. The paper's C runtime
// keys it by variable name plus scope (function name); here it is in-memory
// and safe for concurrent use. The aggregation store (@loadS) is a sampling
// round's commit arena in package core.
//
// The exposed store sits on the sample hot path, so it is built for
// contention: it is sharded (per-shard RWMutex, struct keys so a Get
// allocates nothing) and carries a version counter that lets sampling
// processes keep lock-free local read caches. The Symbols table interns
// variable names into dense IDs so per-process state can live in slices
// instead of string-keyed maps.
package store

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// exposedShards is the shard count of the exposed store — a power of two so
// the shard index is a mask of the key hash. 16 shards keep worst-case
// contention (every process loading the same scope) to a short RLock on one
// of 16 locks while staying cache-friendly.
const exposedShards = 16

// skey is a scoped variable name. Using a comparable struct key instead of
// the concatenated "scope\x00name" string means composing a key never
// allocates, on reads or writes.
type skey struct{ scope, name string }

type exposedShard struct {
	mu  sync.RWMutex
	m   map[skey]any
	ver map[skey]uint64 // version counter value at the key's last Set
	del map[skey]uint64 // version counter value at the key's Delete
}

// Exposed is the exposed store. Keys combine a scope (typically the function
// or stage name) with a variable name so same-named locals from different
// scopes stay distinct, exactly as the paper's encoding does.
type Exposed struct {
	version atomic.Uint64
	shards  [exposedShards]exposedShard
}

// NewExposed returns an empty exposed store.
func NewExposed() *Exposed {
	e := &Exposed{}
	for i := range e.shards {
		e.shards[i].m = make(map[skey]any)
		e.shards[i].ver = make(map[skey]uint64)
		e.shards[i].del = make(map[skey]uint64)
	}
	return e
}

// hashKey is FNV-1a over scope, a separator byte, and name — the same key
// identity as the old concatenated encoding, without building the string.
func hashKey(scope, name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(scope); i++ {
		h = (h ^ uint64(scope[i])) * prime64
	}
	h = (h ^ 0) * prime64
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime64
	}
	return h
}

func (e *Exposed) shard(scope, name string) *exposedShard {
	return &e.shards[hashKey(scope, name)&(exposedShards-1)]
}

// Set exposes name in scope with the given value, overwriting any previous
// exposure of the same scoped name. The version counter is bumped inside the
// shard lock so the key's recorded write version (keyVer) is consistent with
// the global counter: a reader that observes the new global version and then
// takes the shard lock is guaranteed to see the new value.
func (e *Exposed) Set(scope, name string, v any) {
	s := e.shard(scope, name)
	k := skey{scope, name}
	s.mu.Lock()
	ver := e.version.Add(1)
	s.m[k] = v
	s.ver[k] = ver
	if len(s.del) > 0 {
		delete(s.del, k)
	}
	s.mu.Unlock()
}

// Delete removes an exposed variable, recording the deletion against the
// version counter so ChangedSince can report it to delta-snapshot consumers.
// It reports whether the key was present.
func (e *Exposed) Delete(scope, name string) bool {
	s := e.shard(scope, name)
	k := skey{scope, name}
	s.mu.Lock()
	_, ok := s.m[k]
	if ok {
		ver := e.version.Add(1)
		delete(s.m, k)
		delete(s.ver, k)
		s.del[k] = ver
	}
	s.mu.Unlock()
	return ok
}

// Get loads an exposed variable. The boolean reports whether it was exposed.
func (e *Exposed) Get(scope, name string) (any, bool) {
	s := e.shard(scope, name)
	s.mu.RLock()
	v, ok := s.m[skey{scope, name}]
	s.mu.RUnlock()
	return v, ok
}

// MustGet loads an exposed variable and panics with a descriptive message if
// it was never exposed. Loading a variable that was not exposed is always a
// bug in the tuning program, mirroring the paper's runtime which would read
// a missing store entry.
func (e *Exposed) MustGet(scope, name string) any {
	v, ok := e.Get(scope, name)
	if !ok {
		panic(fmt.Sprintf("store: variable %q was not exposed in scope %q", name, scope))
	}
	return v
}

// Version reports a counter that increases on every Set. Readers that cache
// loaded values locally revalidate against it with a single atomic load: an
// unchanged version guarantees the cached values are current.
func (e *Exposed) Version() uint64 { return e.version.Load() }

// Len reports the number of exposed variables.
func (e *Exposed) Len() int {
	n := 0
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Snapshot returns a copy of the store keyed by the scope and name joined
// with a NUL separator, for debugging and tests.
func (e *Exposed) Snapshot() map[string]any {
	out := make(map[string]any)
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.RLock()
		for k, v := range s.m {
			out[k.scope+"\x00"+k.name] = v
		}
		s.mu.RUnlock()
	}
	return out
}

// ExposedKV is one exposed-store entry in its externalized form, the unit of
// snapshot serialization for shipping @load state to remote workers.
type ExposedKV struct {
	Scope, Name string
	V           any
}

// Entries returns every entry of the store sorted by (scope, name). The
// deterministic order makes an encoded snapshot's content hash stable: two
// stores with equal contents serialize to identical bytes regardless of
// insertion order or shard layout.
func (e *Exposed) Entries() []ExposedKV {
	out := make([]ExposedKV, 0, e.Len())
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.RLock()
		for k, v := range s.m {
			out = append(out, ExposedKV{Scope: k.scope, Name: k.name, V: v})
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Scope != out[j].Scope {
			return out[i].Scope < out[j].Scope
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// SetEntries installs a decoded snapshot, overwriting same-keyed entries.
func (e *Exposed) SetEntries(kvs []ExposedKV) {
	for _, kv := range kvs {
		e.Set(kv.Scope, kv.Name, kv.V)
	}
}

// Key names one exposed-store entry without its value.
type Key struct{ Scope, Name string }

// ChangedKV is one entry written after some reference version, carrying the
// version counter value of its latest Set so a consumer tracking several
// reference points (the dispatcher's per-base delta cache) can slice one
// ChangedSince result by age instead of rescanning the store per base.
type ChangedKV struct {
	Scope, Name string
	V           any
	Ver         uint64
}

// DeletedKey is one entry deleted after some reference version.
type DeletedKey struct {
	Scope, Name string
	Ver         uint64
}

// ChangedSince reports every entry Set strictly after version since and every
// key Deleted strictly after it, both sorted by (scope, name). A key that was
// deleted and re-Set appears only in the changed list; a key Set and then
// deleted appears only in the deleted list. Passing since=0 returns the full
// store contents as changes.
func (e *Exposed) ChangedSince(since uint64) ([]ChangedKV, []DeletedKey) {
	var ch []ChangedKV
	var del []DeletedKey
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.RLock()
		for k, ver := range s.ver {
			if ver > since {
				ch = append(ch, ChangedKV{Scope: k.scope, Name: k.name, V: s.m[k], Ver: ver})
			}
		}
		for k, ver := range s.del {
			if ver > since {
				del = append(del, DeletedKey{Scope: k.scope, Name: k.name, Ver: ver})
			}
		}
		s.mu.RUnlock()
	}
	sort.Slice(ch, func(i, j int) bool {
		if ch[i].Scope != ch[j].Scope {
			return ch[i].Scope < ch[j].Scope
		}
		return ch[i].Name < ch[j].Name
	})
	sort.Slice(del, func(i, j int) bool {
		if del[i].Scope != del[j].Scope {
			return del[i].Scope < del[j].Scope
		}
		return del[i].Name < del[j].Name
	})
	return ch, del
}

// CompactDeletions drops deletion records at or before version upTo, which no
// remaining ChangedSince consumer can ask about. Without compaction a store
// that churns keys would accumulate tombstones forever; the dispatcher calls
// this with the oldest snapshot version it still tracks.
func (e *Exposed) CompactDeletions(upTo uint64) {
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		for k, ver := range s.del {
			if ver <= upTo {
				delete(s.del, k)
			}
		}
		s.mu.Unlock()
	}
}

// symTable is one immutable snapshot of a Symbols table. Readers get the
// whole snapshot with one atomic load, so lookups never take a lock.
type symTable struct {
	ids   map[string]uint32
	names []string
}

// Symbols interns variable names into dense IDs (0, 1, 2, ...) so that
// per-process hot-path state can be indexed slices instead of string-keyed
// maps. Lookups and hits are lock-free copy-on-write reads; only the first
// interning of a new name takes the writer lock. A Symbols table only grows:
// IDs stay valid for the table's lifetime.
type Symbols struct {
	p  atomic.Pointer[symTable]
	mu sync.Mutex
}

// NewSymbols returns an empty symbol table.
func NewSymbols() *Symbols {
	s := &Symbols{}
	s.p.Store(&symTable{ids: map[string]uint32{}})
	return s
}

// Lookup returns the ID interned for name, if any. It never takes a lock.
func (s *Symbols) Lookup(name string) (uint32, bool) {
	id, ok := s.p.Load().ids[name]
	return id, ok
}

// Intern returns the dense ID for name, assigning the next free ID on first
// use. Hits are lock-free; a miss copies the table once.
func (s *Symbols) Intern(name string) uint32 {
	if id, ok := s.p.Load().ids[name]; ok {
		return id
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.p.Load()
	if id, ok := t.ids[name]; ok { // interned while we waited for the lock
		return id
	}
	next := &symTable{ids: make(map[string]uint32, len(t.ids)+1), names: make([]string, len(t.names)+1)}
	for k, v := range t.ids {
		next.ids[k] = v
	}
	copy(next.names, t.names)
	id := uint32(len(t.names))
	next.ids[name] = id
	next.names[id] = name
	s.p.Store(next)
	return id
}

// Name returns the name interned as id. It panics on an unassigned ID,
// which is always a runtime bug.
func (s *Symbols) Name(id uint32) string { return s.p.Load().names[id] }

// Len reports how many names have been interned.
func (s *Symbols) Len() int { return len(s.p.Load().names) }
