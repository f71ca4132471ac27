package remote

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/store"
)

// opaque is a value the wire codec cannot serialize: it crosses as a
// ValueTable handle whose id is assigned at encode time.
type opaque struct{ tag int }

// advanceRig is one dispatcher-side snapshot cache feeding one worker-side
// snapshot cache directly, frame by frame, with no connection in between.
type advanceRig struct {
	job uint64
	vt  *ValueTable
	ex  *NetExecutor
	w   *Worker
	e   *store.Exposed
}

func newAdvanceRig() *advanceRig {
	vt := NewValueTable()
	return &advanceRig{
		job: 11,
		vt:  vt,
		ex:  NewExecutor(ExecutorOptions{Registry: Builtins(), Values: vt}),
		w:   NewWorker(WorkerOptions{Registry: Builtins(), Values: vt}),
		e:   store.NewExposed(),
	}
}

// fullShip hands version v to the worker the way an mSnapshot frame does.
func (r *advanceRig) fullShip(v *snapVersion) error {
	s, err := decodeSnapshot(v.encoded(), r.vt)
	if err != nil {
		return err
	}
	if got := snapIdentity(s.sum); got != v.hash {
		return fmt.Errorf("full ship of %#x decodes to identity %#x", v.hash, got)
	}
	r.w.installSnapshot(r.job, v.hash, s)
	return nil
}

// lastDelta returns the decoded delta frame from the previous version to the
// current one, or nil if it failed the ratio rule.
func (r *advanceRig) lastDelta() (*snapDelta, error) {
	s := r.ex.snaps[r.job]
	b := s.bases[len(s.bases)-1]
	if b.delta == nil {
		return nil, nil
	}
	d, err := decodeSnapDelta(b.delta[1:])
	return &d, err
}

// TestSnapAdvanceMatchesFullPatch holds the O(changed entries) version step
// against the protocol-v4 reference (snaporacle_test.go) over random store
// histories: sets, deletes, re-adds, content-identical rewrites and opaque
// handles over ~40 keys in two scopes. After every version the worker's
// store, the decode of the reference-patched bytes and the decode of the
// dispatcher's materialised full encoding all equal the tuner's store, and the
// identity both sides maintained incrementally equals the one recomputed
// from the reference bytes alone.
func TestSnapAdvanceMatchesFullPatch(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := newAdvanceRig()
			defer r.ex.Close()
			key := func() (string, string) {
				return fmt.Sprintf("s%d", rng.Intn(2)), fmt.Sprintf("k%02d", rng.Intn(20))
			}
			value := func() any {
				switch rng.Intn(8) {
				case 0:
					return nil
				case 1:
					return rng.Intn(2) == 0
				case 2:
					return rng.Intn(1000) - 500
				case 3:
					return fmt.Sprintf("str%d", rng.Intn(50))
				case 4:
					return []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
				case 5:
					fs := make([]float64, rng.Intn(64))
					for i := range fs {
						fs[i] = rng.Float64()
					}
					return fs
				case 6:
					return &opaque{tag: rng.Int()}
				default:
					return rng.Float64()
				}
			}
			for i := 0; i < 12; i++ {
				scope, name := key()
				r.e.Set(scope, name, value())
			}
			r.e.Set("s0", "anchor", 1.0) // never deleted: the store is never empty

			cur, err := r.ex.snapshotFor(r.job, r.e)
			if err != nil {
				t.Fatalf("snapshotFor(first): %v", err)
			}
			if err := r.fullShip(cur); err != nil {
				t.Fatal(err)
			}
			ref := cur.encoded() // the reference's whole state: one byte string

			for step := 0; step < 60; step++ {
				identical := rng.Intn(6) == 0
				for n := 1 + rng.Intn(4); n > 0; n-- {
					scope, name := key()
					old, had := r.e.Get(scope, name)
					switch {
					case identical:
						if _, isOpaque := old.(*opaque); had && !isOpaque {
							r.e.Set(scope, name, old) // same content, new store version
						}
					case had && rng.Intn(3) == 0:
						r.e.Delete(scope, name)
					case rng.Intn(8) == 0:
						r.e.Set(scope, "scratch", value()) // set and deleted within one version
						r.e.Delete(scope, "scratch")
					default:
						r.e.Set(scope, name, value()) // overwrite, first add, or re-add
					}
				}

				bases := len(r.ex.snaps[r.job].bases)
				next, err := r.ex.snapshotFor(r.job, r.e)
				if err != nil {
					t.Fatalf("step %d: snapshotFor: %v", step, err)
				}
				if identical {
					if next != cur || len(r.ex.snaps[r.job].bases) != bases {
						t.Fatalf("step %d: a content-identical rewrite made a new version (%#x -> %#x)", step, cur.hash, next.hash)
					}
				}
				if next != cur {
					d, err := r.lastDelta()
					if err != nil {
						t.Fatalf("step %d: decode cached delta: %v", step, err)
					}
					if d == nil { // past the ratio bound: both sides take a full ship
						if ref, err = oracleEncode(r.e, r.vt); err != nil {
							t.Fatalf("step %d: oracleEncode: %v", step, err)
						}
						if err := r.fullShip(next); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
					} else {
						if d.BaseHash != cur.hash || d.NewHash != next.hash {
							t.Fatalf("step %d: delta %#x -> %#x, versions %#x -> %#x", step, d.BaseHash, d.NewHash, cur.hash, next.hash)
						}
						if ref, err = oraclePatch(ref, d); err != nil {
							t.Fatalf("step %d: oraclePatch: %v", step, err)
						}
						if cause, err := r.w.applyDelta(d); err != nil || cause != 0 {
							t.Fatalf("step %d: worker refused the delta: nack cause %d, err %v", step, cause, err)
						}
					}
					cur = next
				}

				want := r.e.Entries()
				refStore, err := oracleDecode(ref, r.vt)
				if err != nil {
					t.Fatalf("step %d: oracleDecode(reference bytes): %v", step, err)
				}
				if got := refStore.Entries(); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: reference store = %v, want %v", step, got, want)
				}
				ws, ok := r.w.snapshot(r.job, cur.hash)
				if !ok {
					t.Fatalf("step %d: worker holds nothing under %#x", step, cur.hash)
				}
				if got := ws.e.Entries(); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: worker store = %v, want %v", step, got, want)
				}
				fullStore, err := oracleDecode(cur.encoded(), r.vt)
				if err != nil {
					t.Fatalf("step %d: oracleDecode(materialised encoding): %v", step, err)
				}
				if got := fullStore.Entries(); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: materialised encoding decodes to %v, want %v", step, got, want)
				}
				scratch, err := oracleIdentity(cur.encoded())
				if err != nil {
					t.Fatalf("step %d: oracleIdentity: %v", step, err)
				}
				if cur.hash != scratch || snapIdentity(ws.sum) != scratch {
					t.Fatalf("step %d: identity from scratch %#x, dispatcher %#x, worker %#x",
						step, scratch, cur.hash, snapIdentity(ws.sum))
				}
			}
		})
	}
}

// advanceOnce is one version step end to end: one changed float, the
// dispatcher's advance, and the worker's application of the resulting delta.
func (r *advanceRig) advanceOnce(tb testing.TB, knob float64) (dispatcher, worker time.Duration) {
	r.e.Set("g", "knob", knob)
	t0 := time.Now()
	if _, err := r.ex.snapshotFor(r.job, r.e); err != nil {
		tb.Fatalf("snapshotFor: %v", err)
	}
	t1 := time.Now()
	d, err := r.lastDelta()
	if err != nil || d == nil {
		tb.Fatalf("no delta for a one-knob step: %v", err)
	}
	t2 := time.Now()
	if cause, err := r.w.applyDelta(d); err != nil || cause != 0 {
		tb.Fatalf("applyDelta: nack cause %d, err %v", cause, err)
	}
	return t1.Sub(t0), time.Since(t2)
}

// blobRig is a rig whose store holds a blob of the given encoded size and one
// knob, with the first version shipped in full.
func blobRig(tb testing.TB, blobBytes int) *advanceRig {
	r := newAdvanceRig()
	r.e.Set("g", "blob", make([]float64, blobBytes/8))
	r.e.Set("g", "knob", 0.0)
	v, err := r.ex.snapshotFor(r.job, r.e)
	if err != nil {
		tb.Fatalf("snapshotFor(first): %v", err)
	}
	if err := r.fullShip(v); err != nil {
		tb.Fatal(err)
	}
	return r
}

// TestSnapAdvanceCostFlat is the exact-count form of "a version step costs
// O(changed entries)": one dispatcher advance plus one worker apply of a
// single changed float allocates the same number of objects, and no more
// bytes, beside a 4 MiB blob as beside a 1 KiB one.
func TestSnapAdvanceCostFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not repeat under -race")
	}
	measure := func(blobBytes int) (allocs, bytes float64) {
		r := blobRig(t, blobBytes)
		defer r.ex.Close()
		knob := 0.0
		step := func() {
			knob++
			r.advanceOnce(t, knob)
		}
		for i := 0; i < 2*maxSnapVersions; i++ {
			step() // reach the steady state: base list and worker cache full
		}
		const runs = 64
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		allocs = testing.AllocsPerRun(runs, step)
		runtime.ReadMemStats(&m1)
		return allocs, float64(m1.TotalAlloc-m0.TotalAlloc) / (runs + 1)
	}
	a0, b0 := measure(1 << 10)
	a1, b1 := measure(4 << 20)
	t.Logf("1 KiB blob: %.0f allocs, %.0f B per step; 4 MiB blob: %.0f allocs, %.0f B", a0, b0, a1, b1)
	if a0 != a1 {
		t.Errorf("a version step allocates %.0f objects beside a 1 KiB blob and %.0f beside a 4 MiB one", a0, a1)
	}
	if b1 > 1.1*b0 {
		t.Errorf("a version step allocates %.0f B beside a 1 KiB blob and %.0f B beside a 4 MiB one", b0, b1)
	}
}

// BenchmarkSnapAdvance times one version step — a single changed float — on
// each side, beside blobs of three sizes.
func BenchmarkSnapAdvance(b *testing.B) {
	for _, size := range []struct {
		name  string
		bytes int
	}{{"1KiB", 1 << 10}, {"128KiB", 128 << 10}, {"4MiB", 4 << 20}} {
		b.Run(size.name, func(b *testing.B) {
			r := blobRig(b, size.bytes)
			defer r.ex.Close()
			var disp, work time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, w := r.advanceOnce(b, float64(i+1))
				disp += d
				work += w
			}
			b.ReportMetric(float64(disp.Nanoseconds())/float64(b.N), "dispatcher-ns/op")
			b.ReportMetric(float64(work.Nanoseconds())/float64(b.N), "worker-ns/op")
		})
	}
}
