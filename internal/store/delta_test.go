package store

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// key names one exposed-store entry without its value.
type key struct{ Scope, Name string }

func keysOf(ch []ChangedKV) []key {
	out := make([]key, len(ch))
	for i, c := range ch {
		out[i] = key{Scope: c.Scope, Name: c.Name}
	}
	return out
}

func TestChangedSinceBasics(t *testing.T) {
	e := NewExposed()
	e.Set("g", "a", 1)
	e.Set("g", "b", 2)
	v1 := e.Version()

	ch, del := e.ChangedSince(0)
	if want := []key{{"g", "a"}, {"g", "b"}}; !reflect.DeepEqual(keysOf(ch), want) {
		t.Fatalf("ChangedSince(0) keys = %v, want %v", keysOf(ch), want)
	}
	if len(del) != 0 {
		t.Fatalf("ChangedSince(0) deleted = %v, want none", del)
	}

	ch, del = e.ChangedSince(v1)
	if len(ch) != 0 || len(del) != 0 {
		t.Fatalf("ChangedSince(v1) = %v, %v, want empty", ch, del)
	}

	e.Set("g", "b", 20)
	e.Set("g", "c", 3)
	ch, del = e.ChangedSince(v1)
	if want := []key{{"g", "b"}, {"g", "c"}}; !reflect.DeepEqual(keysOf(ch), want) {
		t.Fatalf("ChangedSince(v1) keys = %v, want %v", keysOf(ch), want)
	}
	if ch[0].V != 20 || ch[1].V != 3 {
		t.Fatalf("ChangedSince(v1) values = %v, %v, want 20, 3", ch[0].V, ch[1].V)
	}
	if len(del) != 0 {
		t.Fatalf("unexpected deletions %v", del)
	}
	for _, c := range ch {
		if c.Ver <= v1 || c.Ver > e.Version() {
			t.Fatalf("changed key %v has out-of-range Ver %d", c, c.Ver)
		}
	}
}

func TestDeleteTracking(t *testing.T) {
	e := NewExposed()
	e.Set("g", "a", 1)
	e.Set("g", "b", 2)
	v1 := e.Version()

	if !e.Delete("g", "a") {
		t.Fatal("Delete of present key reported false")
	}
	if e.Delete("g", "a") {
		t.Fatal("Delete of absent key reported true")
	}
	if _, ok := e.Get("g", "a"); ok {
		t.Fatal("deleted key still readable")
	}
	if e.Len() != 1 {
		t.Fatalf("Len = %d after delete, want 1", e.Len())
	}

	ch, del := e.ChangedSince(v1)
	if len(ch) != 0 {
		t.Fatalf("unexpected changes %v", ch)
	}
	if want := []DeletedKey{{Scope: "g", Name: "a", Ver: del[0].Ver}}; !reflect.DeepEqual(del, want) {
		t.Fatalf("deleted = %v, want one g/a entry", del)
	}

	// Delete then re-Set: appears only as a change.
	e.Set("g", "a", 10)
	ch, del = e.ChangedSince(v1)
	if want := []key{{"g", "a"}}; !reflect.DeepEqual(keysOf(ch), want) {
		t.Fatalf("changed after re-set = %v, want %v", keysOf(ch), want)
	}
	if len(del) != 0 {
		t.Fatalf("deleted after re-set = %v, want none", del)
	}

	// A version bump is observable for every Delete.
	before := e.Version()
	e.Delete("g", "a")
	if e.Version() != before+1 {
		t.Fatalf("Delete did not bump version: %d -> %d", before, e.Version())
	}
}

func TestCompactDeletions(t *testing.T) {
	e := NewExposed()
	e.Set("g", "a", 1)
	e.Delete("g", "a")
	vDel := e.Version()
	e.Set("g", "b", 2)
	e.Delete("g", "b")

	e.CompactDeletions(vDel)
	_, del := e.ChangedSince(0)
	if len(del) != 1 || del[0].Name != "b" {
		t.Fatalf("after compaction deleted = %v, want only g/b", del)
	}
}

func TestChangedSinceConcurrent(t *testing.T) {
	e := NewExposed()
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				e.Set("g", fmt.Sprintf("w%d-%d", w, i%10), i)
			}
		}(w)
	}
	// Concurrent scans must stay internally consistent (no panics, sorted,
	// versions within the global counter).
	for i := 0; i < 50; i++ {
		ch, _ := e.ChangedSince(0)
		top := e.Version()
		for j, c := range ch {
			if c.Ver > top {
				t.Fatalf("changed key %v ahead of global version %d", c, top)
			}
			if j > 0 && (ch[j-1].Scope > c.Scope || (ch[j-1].Scope == c.Scope && ch[j-1].Name >= c.Name)) {
				t.Fatalf("ChangedSince result unsorted at %d: %v then %v", j, ch[j-1], c)
			}
		}
	}
	wg.Wait()
	ch, _ := e.ChangedSince(0)
	if len(ch) != writers*10 {
		t.Fatalf("final changed count = %d, want %d", len(ch), writers*10)
	}
}
