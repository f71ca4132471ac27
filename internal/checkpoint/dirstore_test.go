package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"testing"
)

// recSize is the log footprint of one save.
func recSize(label string, data []byte) int64 {
	return int64(recHeader + len(label) + len(data) + recTrailer)
}

func logSize(t testing.TB, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func mustOpen(t testing.TB, dir string) *DirStore {
	t.Helper()
	d, err := NewDirStore(dir)
	if err != nil {
		t.Fatalf("NewDirStore(%s): %v", dir, err)
	}
	return d
}

// sameContents requires d to list exactly want's labels and load want's
// bytes under each.
func sameContents(t testing.TB, d *DirStore, want map[string][]byte, when string) {
	t.Helper()
	got, err := d.List()
	if err != nil {
		t.Fatalf("%s: List: %v", when, err)
	}
	sort.Strings(got)
	labels := make([]string, 0, len(want))
	for l := range want {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	if fmt.Sprint(got) != fmt.Sprint(labels) {
		t.Fatalf("%s: List = %v, want %v", when, got, labels)
	}
	for _, l := range labels {
		data, err := d.Load(l)
		if err != nil {
			t.Fatalf("%s: Load(%s): %v", when, l, err)
		}
		if !bytes.Equal(data, want[l]) {
			t.Fatalf("%s: Load(%s) returned %d bytes that differ from the %d saved", when, l, len(data), len(want[l]))
		}
	}
}

// TestDirStoreMatchesMemStore drives a DirStore and a MemStore through the
// same random saves, overwrites, deletes and reopens and requires them to
// agree after every step, while the log stays within its compaction bound.
func TestDirStoreMatchesMemStore(t *testing.T) {
	const maxValue = 256 << 10
	steps := 400
	if testing.Short() {
		steps = 120
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			d := mustOpen(t, dir)
			defer func() { d.Close() }()
			var oracle MemStore
			compactions, reopens := 0, 0
			for step := 0; step < steps; step++ {
				label := fmt.Sprintf("label-%02d", rng.Intn(20))
				before := logSize(t, dir)
				var last int64 // footprint of the record this step appends
				switch op := rng.Intn(10); {
				case op < 6:
					var n int
					switch rng.Intn(8) {
					case 0:
						n = 0
					case 1:
						n = maxValue
					case 2, 3:
						n = rng.Intn(maxValue)
					default:
						n = rng.Intn(4 << 10)
					}
					data := make([]byte, n)
					rng.Read(data)
					if err := d.Save(label, data); err != nil {
						t.Fatalf("step %d: Save: %v", step, err)
					}
					oracle.Save(label, data)
					last = recSize(label, data)
				case op < 9:
					if err := d.Delete(label); err != nil {
						t.Fatalf("step %d: Delete: %v", step, err)
					}
					oracle.Delete(label)
					last = recSize(label, nil)
				default:
					if err := d.Close(); err != nil {
						t.Fatalf("step %d: Close: %v", step, err)
					}
					d = mustOpen(t, dir)
					reopens++
				}
				sameContents(t, d, oracle.m, fmt.Sprint("step ", step))

				var live int64
				for l, data := range oracle.m {
					live += recSize(l, data)
				}
				size := logSize(t, dir)
				if size < before {
					compactions++
					if size != live {
						t.Fatalf("step %d: compacted log is %d bytes, its live records %d", step, size, live)
					}
				}
				if bound := max(compactMinLog, compactRatio*live) + last; size > bound {
					t.Fatalf("step %d: log is %d bytes, over the bound of %d (live %d)", step, size, bound, live)
				}
			}
			if !testing.Short() && (compactions < 2 || reopens < 2) {
				t.Fatalf("%d compactions and %d reopens: the run must cross at least two of each", compactions, reopens)
			}
		})
	}
}

// TestDirStoreTornTail cuts the last record of a log at every byte and
// flips one bit in every byte of it: the store must open, show the state
// before that record, and put the next record where the tail was cut.
func TestDirStoreTornTail(t *testing.T) {
	base := map[string][]byte{"a": []byte("first value of a"), "b": []byte("b's value")}
	for _, tc := range []struct {
		name string
		last func(d *DirStore) error
	}{
		{"overwrite", func(d *DirStore) error { return d.Save("a", []byte("second value of a, longer")) }},
		{"first save", func(d *DirStore) error { return d.Save("c", []byte("c is new")) }},
		{"tombstone", func(d *DirStore) error { return d.Delete("b") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := t.TempDir()
			d := mustOpen(t, src)
			for _, l := range []string{"a", "b"} {
				if err := d.Save(l, base[l]); err != nil {
					t.Fatal(err)
				}
			}
			tail := logSize(t, src)
			if err := tc.last(d); err != nil {
				t.Fatal(err)
			}
			d.Close()
			whole, err := os.ReadFile(filepath.Join(src, logName))
			if err != nil {
				t.Fatal(err)
			}

			check := func(when string, log []byte) {
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, logName), log, 0o644); err != nil {
					t.Fatal(err)
				}
				d, err := NewDirStore(dir)
				if err != nil {
					t.Fatalf("%s: open: %v", when, err)
				}
				defer d.Close()
				sameContents(t, d, base, when)
				if got := logSize(t, dir); got != tail {
					t.Fatalf("%s: log is %d bytes after open, want the %d before the torn record", when, got, tail)
				}
				next := []byte("the save after the crash")
				if err := d.Save("a", next); err != nil {
					t.Fatalf("%s: Save: %v", when, err)
				}
				if got, want := logSize(t, dir), tail+recSize("a", next); got != want {
					t.Fatalf("%s: log is %d bytes after the next save, want %d", when, got, want)
				}
				d.Close()
				d = mustOpen(t, dir)
				sameContents(t, d, map[string][]byte{"a": next, "b": base["b"]}, when+", reopened")
			}
			for cut := int(tail); cut < len(whole); cut++ {
				check(fmt.Sprintf("cut at %d of %d", cut, len(whole)), whole[:cut])
			}
			for i := int(tail); i < len(whole); i++ {
				flipped := append([]byte(nil), whole...)
				flipped[i] ^= 1 << (i % 8)
				check(fmt.Sprintf("bit %d of byte %d flipped", i%8, i), flipped)
			}
		})
	}
}

func TestDirStoreSingleWriter(t *testing.T) {
	dir := t.TempDir()
	first := mustOpen(t, dir)
	if err := first.Save("x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDirStore(dir); !errors.Is(err, ErrStoreLocked) {
		t.Fatalf("second open = %v, want ErrStoreLocked", err)
	}
	// A compaction moves the lock to the new log with it.
	big := make([]byte, compactMinLog/3)
	for i := 0; i < 5; i++ {
		if err := first.Save("big", big); err != nil {
			t.Fatal(err)
		}
	}
	if size := logSize(t, dir); size >= compactMinLog {
		t.Fatalf("log is %d bytes: no compaction happened", size)
	}
	if _, err := NewDirStore(dir); !errors.Is(err, ErrStoreLocked) {
		t.Fatalf("second open after a compaction = %v, want ErrStoreLocked", err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	second := mustOpen(t, dir)
	defer second.Close()
	sameContents(t, second, map[string][]byte{"x": []byte("1"), "big": big}, "after Close")
}

func TestDirStoreLegacyLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "run001.ckpt"), []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDirStore(dir); !errors.Is(err, ErrLegacyStore) {
		t.Fatalf("open of a one-file-per-label directory = %v, want ErrLegacyStore", err)
	}
	if _, err := os.Stat(filepath.Join(dir, logName)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the refused open left a log behind (stat: %v)", err)
	}
}

// TestDirStoreDirectoryRemoved: a store nobody closes, in a directory
// removed underneath it, keeps taking saves — compaction included, which
// can no longer create its file.
func TestDirStoreDirectoryRemoved(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	d := mustOpen(t, dir)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, compactMinLog/3)
	for i := 0; i < 12; i++ {
		if err := d.Save("big", big); err != nil {
			t.Fatalf("save %d after the directory went: %v", i, err)
		}
	}
	if got, err := d.Load("big"); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("Load after the directory went: %d bytes, %v", len(got), err)
	}
}

// TestDirStoreCompactionCrash kills a child on either side of the
// compaction rename; whichever log the directory then names must hold
// everything saved before the kill.
func TestDirStoreCompactionCrash(t *testing.T) {
	if dir := os.Getenv("WBTUNE_STORE_CHILD"); dir != "" {
		d := mustOpen(t, dir)
		for i := 0; ; i++ {
			if err := d.Save("big", compactionValue(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, site := range []string{"ckpt-pre-compact", "ckpt-post-compact"} {
		t.Run(site, func(t *testing.T) {
			dir := t.TempDir()
			pre := mustOpen(t, dir)
			if err := pre.Save("small", []byte("kept")); err != nil {
				t.Fatal(err)
			}
			pre.Close()

			cmd := exec.Command(os.Args[0], "-test.run=^TestDirStoreCompactionCrash$", "-test.count=1")
			cmd.Env = append(os.Environ(), "WBTUNE_STORE_CHILD="+dir, "WBTUNE_CRASH="+site+":1")
			out, err := cmd.CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
				t.Fatalf("child ended with %v, want SIGKILL\n%s", err, out)
			}
			d := mustOpen(t, dir)
			defer d.Close()
			// The first compaction comes with the save that takes the log
			// to compactMinLog.
			saves := (compactMinLog + int(recSize("big", compactionValue(0))) - 1) / int(recSize("big", compactionValue(0)))
			sameContents(t, d, map[string][]byte{"small": []byte("kept"), "big": compactionValue(saves - 1)}, "after the kill")
			if err := d.Save("big", nil); err != nil {
				t.Fatalf("Save after the kill: %v", err)
			}
		})
	}
}

// compactionValue is the i-th value the compaction-crash child saves.
func compactionValue(i int) []byte {
	return bytes.Repeat([]byte{byte(i)}, compactMinLog/5)
}

// FuzzDirStoreLog opens arbitrary bytes as a log. Open must succeed without
// a panic, every label it lists must load (so passed its checksum), and a
// save made after the open must survive a reopen next to what was there.
func FuzzDirStoreLog(f *testing.F) {
	seed := f.TempDir()
	d := mustOpen(f, seed)
	d.Save("a", []byte("alpha"))
	d.Save("b", bytes.Repeat([]byte("b"), 300))
	d.Delete("a")
	d.Save("c", nil)
	d.Close()
	valid, err := os.ReadFile(filepath.Join(seed, logName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0x04
	f.Add(flip)
	f.Add([]byte{})
	f.Add([]byte{recSave, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 'x'})

	f.Fuzz(func(t *testing.T, log []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := NewDirStore(dir)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		labels, _ := d.List()
		found := make(map[string][]byte)
		for _, l := range labels {
			if found[l], err = d.Load(l); err != nil {
				t.Fatalf("Load(%q) of a listed label: %v", l, err)
			}
		}
		probe := []byte("saved after the open")
		if err := d.Save("fuzz-probe", probe); err != nil {
			t.Fatalf("Save: %v", err)
		}
		found["fuzz-probe"] = probe
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d = mustOpen(t, dir)
		defer d.Close()
		sameContents(t, d, found, "reopened")
	})
}

// TestDirStoreSaveAllocs: a save that does not compact allocates nothing once
// its label is indexed and the record buffer has grown.
func TestDirStoreSaveAllocs(t *testing.T) {
	d := mustOpen(t, t.TempDir())
	defer d.Close()
	data := make([]byte, 2<<10)
	d.Save("job", data)
	if n := testing.AllocsPerRun(100, func() { d.Save("job", data) }); n != 0 {
		t.Fatalf("a 2 KiB save allocates %v times, want 0", n)
	}
}

// BenchmarkDirStoreSave is the durable-save path: one label saved over and
// over beside a sibling being overwritten too, so the log grows, compacts
// and the cost of that is inside ns/op.
func BenchmarkDirStoreSave(b *testing.B) {
	for _, size := range []int{2 << 10, 128 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			d := mustOpen(b, b.TempDir())
			defer d.Close()
			data, sibling := make([]byte, size), make([]byte, size)
			for i := 0; i < 2; i++ { // both labels indexed, the record buffer grown
				d.Save("job", data)
				d.Save("sibling", sibling)
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				label := "job"
				if i%2 == 1 {
					label = "sibling"
				}
				if err := d.Save(label, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDirStoreReopen is the scan at open: a log of 10 000 records over
// 1 000 labels.
func BenchmarkDirStoreReopen(b *testing.B) {
	b.Run("10k-records", func(b *testing.B) {
		dir := b.TempDir()
		d := mustOpen(b, dir)
		data := make([]byte, 64) // small enough that 10k records stay under the compaction floor
		for i := 0; i < 10000; i++ {
			if err := d.Save(fmt.Sprintf("label-%04d", i%1000), data); err != nil {
				b.Fatal(err)
			}
		}
		d.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := mustOpen(b, dir)
			if len(d.index) != 1000 {
				b.Fatalf("index holds %d labels", len(d.index))
			}
			d.Close()
		}
	})
}
