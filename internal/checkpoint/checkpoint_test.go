package checkpoint

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// testValue exercises the gob fallback of the value codec.
type testValue struct {
	A int
	B string
}

func init() { RegisterValue(testValue{}) }

// sampleState covers every field and every native value tag of the codec,
// plus the gob fallback.
func sampleState() *State {
	st := &State{
		Seed:     -7,
		MinSlots: 2,
		Counters: Counters{
			Regions: 1, Rounds: 2, Samples: 8, Pruned: 1,
			Panics: 0, Timeouts: 1, Retried: 2, Degraded: 1,
			Splits: 1, PeakRetained: 12,
			WorkMilli: 4096, WorkSerialMilli: 1024, WorkParaMilli: 3072,
		},
		Frontier: map[string]uint64{"0": 4, "0.0": 2},
		Events: []Event{
			{Path: "0", Seq: 0, Kind: EvRegion, Arg: 0, Name: "r"},
			{Path: "0", Seq: 2, Kind: EvWork, Arg: 1024},
			{Path: "0", Seq: 3, Kind: EvSplit, Arg: 0},
		},
		Rounds: []Round{{
			Path: "0", Seq: 1, Region: "r", Round: 0, N: 2, K: 1, FBHash: 0xdeadbeefcafe,
			Aggregated: []KV{
				{Name: "all", V: []any{1.0, "s", true, nil}},
				{Name: "avg", V: 1.5},
			},
			Groups: []Group{
				{
					Params:     []Param{{Name: "x", V: 0.5}, {Name: "", V: -1}},
					HaveParams: true,
					ScoreSum:   2.5, ScoreCnt: 2,
					Commits: []KV{
						{Name: "m", V: [][]float64{{1, 2}, {3}}},
						{Name: "tags", V: []byte("ab")},
						{Name: "y", V: 0.25},
					},
				},
				{Pruned: true, ErrKind: ErrTimeout, ErrMsg: "core: sampling process timed out"},
			},
		}},
		Exposed: []Entry{
			{Scope: "global", Name: "bias", V: 0.25},
			{Scope: "global", Name: "big", V: int64(1 << 40)},
			{Scope: "global", Name: "n", V: 42},
			{Scope: "s", Name: "name", V: "hello"},
			{Scope: "s", Name: "obj", V: testValue{A: 3, B: "z"}},
			{Scope: "s", Name: "vec", V: []float64{1, 2, 3}},
		},
	}
	for i := range st.ID {
		st.ID[i] = byte(i + 1)
	}
	return st
}

func TestCodecRoundtrip(t *testing.T) {
	st := sampleState()
	data, err := EncodeBytes(st)
	if err != nil {
		t.Fatalf("EncodeBytes: %v", err)
	}
	got, err := DecodeBytes(data)
	if err != nil {
		t.Fatalf("DecodeBytes: %v", err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("roundtrip mismatch:\ngot  %+v\nwant %+v", got, st)
	}

}

// TestCodecDeterministic pins that encoding is canonical: the frontier map
// is emitted in sorted path order, so equal states produce equal bytes.
func TestCodecDeterministic(t *testing.T) {
	a, err := EncodeBytes(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeBytes(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of one state differ")
	}
}

// TestVersionRefusal proves the cross-version contract: a checkpoint whose
// codec version this binary does not know is refused with the typed
// ErrCheckpointVersion before any body parsing.
func TestVersionRefusal(t *testing.T) {
	data, err := EncodeBytes(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	if data[len(magic)] != Version {
		t.Fatalf("version byte %d not at expected offset", data[len(magic)])
	}
	skew := append([]byte(nil), data...)
	skew[len(magic)] = Version + 1
	if _, err := DecodeBytes(skew); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("DecodeBytes of bumped version: %v, want ErrCheckpointVersion", err)
	}
	// A version refusal must not be conflated with corruption.
	if _, err := DecodeBytes(skew); errors.Is(err, ErrCorrupt) {
		t.Fatal("version skew misreported as corruption")
	}
}

// TestCorruptionRejected runs the decoder over every truncation and every
// single-bit flip of a valid frame: all must fail with a typed error and
// none may panic. The trailing body hash makes single-bit body flips
// detectable by construction.
func TestCorruptionRejected(t *testing.T) {
	data, err := EncodeBytes(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i++ {
		if _, err := DecodeBytes(data[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", i)
		} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrCheckpointVersion) {
			t.Fatalf("truncation to %d bytes: untyped error %v", i, err)
		}
	}
	for i := 0; i < len(data); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << bit
			if _, err := DecodeBytes(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d decoded successfully", i, bit)
			}
		}
	}
}

func TestDirStore(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDirStore(filepath.Join(dir, "ckpts"))
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	if _, err := ds.Load("job"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Load of absent label: %v, want fs.ErrNotExist", err)
	}
	if st, err := LoadFrom(ds, "job"); st != nil || err != nil {
		t.Fatalf("LoadFrom of absent label: %v, %v, want nil, nil", st, err)
	}
	want := sampleState()
	data, err := EncodeBytes(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Save("job", data); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := ds.Save("job", data); err != nil {
		t.Fatalf("overwrite Save: %v", err)
	}
	got, err := LoadFrom(ds, "job")
	if err != nil {
		t.Fatalf("LoadFrom: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("LoadFrom returned a different state")
	}
	// The directory holds the log and nothing else.
	ents, err := os.ReadDir(filepath.Join(dir, "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != logName {
			t.Fatalf("unexpected file %q after save", e.Name())
		}
	}
	// Labels are record fields, not file names: only an empty or oversized
	// one is refused.
	for _, bad := range []string{"", strings.Repeat("x", maxLabel+1)} {
		if err := ds.Save(bad, data); err == nil {
			t.Fatalf("Save accepted invalid label of %d bytes", len(bad))
		}
		if err := ds.Delete(bad); err == nil {
			t.Fatalf("Delete accepted invalid label of %d bytes", len(bad))
		}
		if _, err := ds.Load(bad); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("Load of invalid label of %d bytes: %v, want fs.ErrNotExist", len(bad), err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := ds.Save("job", data); err == nil {
		t.Fatal("Save on a closed store succeeded")
	}
}

func TestMemStore(t *testing.T) {
	var ms MemStore
	if _, err := ms.Load("x"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Load of absent label: %v, want fs.ErrNotExist", err)
	}
	data := []byte{1, 2, 3}
	if err := ms.Save("x", data); err != nil {
		t.Fatal(err)
	}
	data[0] = 99 // the store must hold a copy
	got, err := ms.Load("x")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Load returned %v, want the originally saved bytes", got)
	}
}

// TestCheckpointSizeBudget is the size regression gate: the encoding of
// the representative sampleState must stay within the checked-in byte
// budget (testdata/size_budget.txt, ~1.5x the size at the time the codec
// was written). A codec change that bloats frames fails here and forces a
// deliberate budget bump in the same commit.
func TestCheckpointSizeBudget(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "size_budget.txt"))
	if err != nil {
		t.Fatalf("size budget: %v", err)
	}
	budget, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("parse size budget: %v", err)
	}
	data, err := EncodeBytes(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("representative checkpoint: %d bytes (budget %d)", len(data), budget)
	if len(data) > budget {
		t.Errorf("checkpoint grew to %d bytes, over the %d-byte budget; if deliberate, raise testdata/size_budget.txt", len(data), budget)
	}
}
