package checkpoint

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// storeUnderTest exercises the full Store+Lister+Deleter surface against
// one implementation.
func storeUnderTest(t *testing.T, s Store) {
	t.Helper()
	ls, ok := s.(Lister)
	if !ok {
		t.Fatal("store does not implement Lister")
	}
	del, ok := s.(Deleter)
	if !ok {
		t.Fatal("store does not implement Deleter")
	}

	if labels, err := ls.List(); err != nil || len(labels) != 0 {
		t.Fatalf("List on empty store = %v, %v; want empty", labels, err)
	}
	for _, l := range []string{"spec-a", "spec-b", "ckpt-a"} {
		if err := s.Save(l, []byte(l+" data")); err != nil {
			t.Fatalf("Save(%s): %v", l, err)
		}
	}
	labels, err := ls.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	sort.Strings(labels)
	want := []string{"ckpt-a", "spec-a", "spec-b"}
	if len(labels) != len(want) {
		t.Fatalf("List = %v, want %v", labels, want)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("List = %v, want %v", labels, want)
		}
	}

	if err := del.Delete("spec-a"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := del.Delete("spec-a"); err != nil {
		t.Fatalf("Delete must be idempotent, got %v", err)
	}
	if err := del.Delete("never-existed"); err != nil {
		t.Fatalf("Delete of absent label must be a no-op, got %v", err)
	}
	if _, err := s.Load("spec-a"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Load after Delete = %v, want fs.ErrNotExist", err)
	}
	if labels, _ := ls.List(); len(labels) != 2 {
		t.Fatalf("List after Delete = %v, want 2 labels", labels)
	}
	if data, err := s.Load("spec-b"); err != nil || string(data) != "spec-b data" {
		t.Fatalf("surviving label: %q, %v", data, err)
	}
}

func TestDirStoreListDelete(t *testing.T) {
	dir := t.TempDir()
	// The temp file of a compaction that never reached its rename and an
	// unrelated file must not surface as labels, nor keep the store from
	// opening.
	if err := os.WriteFile(filepath.Join(dir, logTmpName), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	storeUnderTest(t, s)
}

func TestMemStoreListDelete(t *testing.T) {
	storeUnderTest(t, &MemStore{})
}
