package store

import (
	"sync"
	"testing"
)

func TestExposedScopesAreDistinct(t *testing.T) {
	e := NewExposed()
	e.Set("canny", "imgSize", 100)
	e.Set("main", "imgSize", 7)
	if v, _ := e.Get("canny", "imgSize"); v != 100 {
		t.Fatalf("canny/imgSize = %v", v)
	}
	if v, _ := e.Get("main", "imgSize"); v != 7 {
		t.Fatalf("main/imgSize = %v", v)
	}
	if e.Len() != 2 {
		t.Fatalf("Len = %d, want 2", e.Len())
	}
}

func TestExposedMissing(t *testing.T) {
	e := NewExposed()
	if _, ok := e.Get("s", "x"); ok {
		t.Fatal("Get of missing variable reported ok")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet of missing variable should panic")
		}
	}()
	e.MustGet("s", "x")
}

func TestExposedOverwrite(t *testing.T) {
	e := NewExposed()
	e.Set("s", "x", 1)
	e.Set("s", "x", 2)
	if v := e.MustGet("s", "x"); v != 2 {
		t.Fatalf("overwrite kept %v", v)
	}
}

func TestExposedNoKeyCollision(t *testing.T) {
	// Scope "a" + name "b::c" must not collide with scope "a::b" + name "c"
	// under any naive string concatenation.
	e := NewExposed()
	e.Set("a", "b\x00c", 1) // adversarial name containing the old separator
	e.Set("a\x00b", "c", 2)
	v1, _ := e.Get("a", "b\x00c")
	v2, _ := e.Get("a\x00b", "c")
	// The struct-keyed shards keep scope and name separate, so even names
	// containing the historical NUL separator cannot alias across scopes
	// (the concatenated encoding used to collide here by construction).
	if v1 != 1 || v2 != 2 {
		t.Fatalf("adversarial separator names aliased: %v vs %v", v1, v2)
	}
	// Normal names never collide.
	e2 := NewExposed()
	e2.Set("a", "b.c", 10)
	e2.Set("a.b", "c", 20)
	x, _ := e2.Get("a", "b.c")
	y, _ := e2.Get("a.b", "c")
	if x == y {
		t.Fatal("distinct scoped names collided")
	}
}

func TestExposedConcurrent(t *testing.T) {
	e := NewExposed()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e.Set("scope", "v", g*1000+i)
				e.Get("scope", "v")
			}
		}(g)
	}
	wg.Wait()
	if _, ok := e.Get("scope", "v"); !ok {
		t.Fatal("value lost after concurrent writes")
	}
}

func TestExposedSnapshot(t *testing.T) {
	e := NewExposed()
	e.Set("a", "x", 1)
	e.Set("b", "y", 2)
	snap := e.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot size %d", len(snap))
	}
	// Mutating the snapshot must not affect the store.
	for k := range snap {
		snap[k] = 99
	}
	if v, _ := e.Get("a", "x"); v != 1 {
		t.Fatal("snapshot aliased the store")
	}
}

func TestExposedConcurrentAcrossShards(t *testing.T) {
	// Writers spread over many (scope, name) pairs so all shards see traffic;
	// readers poll Version and re-read on change, like the SP load cache does.
	e := NewExposed()
	var wg sync.WaitGroup
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, n := range names {
					e.Set("scope", n, g*1000+i)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := uint64(0)
		for i := 0; i < 500; i++ {
			v := e.Version()
			if v < last {
				t.Errorf("Version went backwards: %d then %d", last, v)
				return
			}
			last = v
			for _, n := range names {
				e.Get("scope", n)
			}
		}
	}()
	wg.Wait()
	if e.Len() != len(names) {
		t.Fatalf("Len = %d, want %d", e.Len(), len(names))
	}
	if e.Version() == 0 {
		t.Fatal("Version never advanced despite writes")
	}
}

func TestSymbolsInternDenseIDs(t *testing.T) {
	s := NewSymbols()
	names := []string{"alpha", "beta", "gamma", "alpha", "beta"}
	want := []uint32{0, 1, 2, 0, 1}
	for i, n := range names {
		if id := s.Intern(n); id != want[i] {
			t.Fatalf("Intern(%q) = %d, want %d", n, id, want[i])
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for _, n := range []string{"alpha", "beta", "gamma"} {
		id, ok := s.Lookup(n)
		if !ok || s.Name(id) != n {
			t.Fatalf("Lookup/Name round-trip broken for %q: id=%d ok=%v", n, id, ok)
		}
	}
	if _, ok := s.Lookup("delta"); ok {
		t.Fatal("Lookup found a name that was never interned")
	}
}

func TestSymbolsConcurrentIntern(t *testing.T) {
	// Many goroutines intern an overlapping name set; every name must get
	// exactly one ID, IDs must be dense, and Lookup/Name must agree with
	// what each goroutine observed.
	s := NewSymbols()
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	var wg sync.WaitGroup
	got := make([]map[string]uint32, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seen := make(map[string]uint32, len(names))
			for i := 0; i < 100; i++ {
				n := names[(g+i)%len(names)]
				id := s.Intern(n)
				if prev, ok := seen[n]; ok && prev != id {
					t.Errorf("Intern(%q) changed: %d then %d", n, prev, id)
					return
				}
				seen[n] = id
			}
			got[g] = seen
		}(g)
	}
	wg.Wait()
	if s.Len() != len(names) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(names))
	}
	usedIDs := make(map[uint32]string)
	for _, n := range names {
		id, ok := s.Lookup(n)
		if !ok {
			t.Fatalf("Lookup(%q) missing after concurrent interning", n)
		}
		if int(id) >= len(names) {
			t.Fatalf("ID %d for %q not dense (Len = %d)", id, n, len(names))
		}
		if other, dup := usedIDs[id]; dup {
			t.Fatalf("ID %d assigned to both %q and %q", id, other, n)
		}
		usedIDs[id] = n
		if s.Name(id) != n {
			t.Fatalf("Name(%d) = %q, want %q", id, s.Name(id), n)
		}
	}
	for g, seen := range got {
		for n, id := range seen {
			if canonical, _ := s.Lookup(n); canonical != id {
				t.Fatalf("goroutine %d saw Intern(%q) = %d, table says %d", g, n, id, canonical)
			}
		}
	}
}
