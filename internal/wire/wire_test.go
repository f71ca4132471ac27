package wire

import (
	"bytes"
	"errors"
	"hash/fnv"
	"math"
	"reflect"
	"testing"
)

// typed fails the test unless err is an *Error of one of the given kinds
// with an offset inside a buffer of n bytes.
func typed(t *testing.T, what string, err error, n int, kinds ...error) {
	t.Helper()
	var we *Error
	if !errors.As(err, &we) {
		t.Fatalf("%s: error %v (%T) is not a *wire.Error", what, err, err)
	}
	if we.Off < 0 || we.Off > n {
		t.Fatalf("%s: offset %d outside the %d-byte input", what, we.Off, n)
	}
	for _, k := range kinds {
		if errors.Is(err, k) {
			return
		}
	}
	t.Fatalf("%s: error %v is none of %v", what, err, kinds)
}

// primitives pairs each Writer method with the Reader method that undoes it.
var primitives = []struct {
	name string
	enc  func(w *Writer)
	dec  func(r *Reader) any
	want any
}{
	{"u8", func(w *Writer) { w.U8(0xfe) }, func(r *Reader) any { return r.U8() }, byte(0xfe)},
	{"flag", func(w *Writer) { w.Flag(true) }, func(r *Reader) any { return r.Flag() }, true},
	{"uvarint", func(w *Writer) { w.Uv(1 << 40) }, func(r *Reader) any { return r.Uv() }, uint64(1 << 40)},
	{"uvarint max", func(w *Writer) { w.Uv(math.MaxUint64) }, func(r *Reader) any { return r.Uv() }, uint64(math.MaxUint64)},
	{"varint", func(w *Writer) { w.Iv(-(1 << 40)) }, func(r *Reader) any { return r.Iv() }, int64(-(1 << 40))},
	{"u64be", func(w *Writer) { w.U64(0x0102030405060708) }, func(r *Reader) any { return r.U64() }, uint64(0x0102030405060708)},
	{"f64", func(w *Writer) { w.F64(-2.5) }, func(r *Reader) any { return r.F64() }, -2.5},
	{"string", func(w *Writer) { w.Str("tuning") }, func(r *Reader) any { return r.Str() }, "tuning"},
	{"bytes", func(w *Writer) { w.Bytes([]byte{1, 2, 3}) }, func(r *Reader) any { return r.Bytes() }, []byte{1, 2, 3}},
	{"raw", func(w *Writer) { w.Raw([]byte{9, 8}) }, func(r *Reader) any { return r.Take(2) }, []byte{9, 8}},
	{"count+elems", func(w *Writer) { w.Uv(2); w.U64(7); w.U64(8) }, func(r *Reader) any {
		out := make([]uint64, r.Count(8))
		for i := range out {
			out[i] = r.U64()
		}
		return out
	}, []uint64{7, 8}},
}

// TestPrimitivesRoundTripAndTruncate decodes each primitive's encoding
// whole, then cut short at every offset: the whole one must round-trip with
// nothing left over, every prefix must fail typed, and nothing may panic.
func TestPrimitivesRoundTripAndTruncate(t *testing.T) {
	for _, p := range primitives {
		var w Writer
		p.enc(&w)
		r := NewReader(w.B)
		if got := p.dec(r); !reflect.DeepEqual(got, p.want) {
			t.Errorf("%s: decoded %v, want %v", p.name, got, p.want)
		}
		if err := r.Done(); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
		for cut := 0; cut < len(w.B); cut++ {
			r := NewReader(w.B[:cut])
			p.dec(r)
			if r.Err() == nil {
				t.Fatalf("%s cut to %d/%d bytes decoded", p.name, cut, len(w.B))
			}
			typed(t, p.name, r.Done(), cut, ErrTruncated, ErrCorrupt)
		}
		// One byte too many is trailing garbage, and only Done says so.
		r = NewReader(append(w.B, 0))
		p.dec(r)
		if r.Err() != nil {
			t.Errorf("%s: trailing byte failed the read itself: %v", p.name, r.Err())
		}
		typed(t, p.name+" trailing", r.Done(), len(w.B)+1, ErrCorrupt)
	}
}

// TestCountIsStrict pins the bound the fleet decoder used to miss by one: a
// count is accepted up to exactly remaining/minElem and not one past it.
func TestCountIsStrict(t *testing.T) {
	for _, c := range []struct {
		n, payload, minElem int
		ok                  bool
	}{
		{0, 0, 1, true}, {2, 2, 1, true}, {3, 2, 1, false},
		{1, 8, 8, true}, {2, 15, 8, false}, {2, 16, 8, true},
	} {
		var w Writer
		w.Uv(uint64(c.n))
		w.Raw(make([]byte, c.payload))
		r := NewReader(w.B)
		if got := r.Count(c.minElem); (r.Err() == nil) != c.ok || (c.ok && got != c.n) {
			t.Errorf("Count(%d) of %d over %d bytes = %d, %v; want ok=%v", c.minElem, c.n, c.payload, got, r.Err(), c.ok)
		}
		if !c.ok {
			typed(t, "count", r.Err(), len(w.B), ErrCorrupt)
		}
	}
}

func TestReaderStickyAndVarintOverflow(t *testing.T) {
	r := NewReader(bytes.Repeat([]byte{0x80}, 11))
	r.Uv()
	typed(t, "overlong uvarint", r.Err(), 11, ErrCorrupt)
	first := r.Err()
	if r.U8() != 0 || r.U64() != 0 || r.Str() != "" || r.Take(1) != nil || r.Count(1) != 0 {
		t.Error("reads after a failure must return zero values")
	}
	r.Fail(errors.New("later"))
	r.Corruptf("later")
	if r.Err() != first || r.Done() != first {
		t.Errorf("first failure did not stick: %v", r.Err())
	}

	own := errors.New("format-level refusal")
	r = NewReader([]byte{1})
	r.Fail(own)
	if r.Done() != own {
		t.Errorf("Fail: Done() = %v, want the caller's own error", r.Done())
	}
	if NewReader(nil).Take(-1) != nil {
		t.Error("Take(-1) returned bytes")
	}
}

// TestEnvelope seals a body and opens it whole, cut short at every offset,
// and with every bit of every byte flipped: only the whole one opens, the
// rest fail typed — header damage by the field it hit.
func TestEnvelope(t *testing.T) {
	const magic, version = "WBXX", 3
	body := []byte("sampled state")
	env, err := Seal(magic, version, body)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(magic) + 1 + 4 + len(body) + 8; len(env) != want || cap(env) != want {
		t.Fatalf("envelope len %d cap %d, want exactly %d", len(env), cap(env), want)
	}
	got, err := Open(env, magic, version)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("Open = %q, %v", got, err)
	}
	if _, err := Open(env, magic, version+1); !errors.Is(err, ErrVersion) {
		t.Fatalf("Open under another version: %v, want ErrVersion", err)
	}
	if _, err := Open(env, "WBYY", version); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open under another magic: %v, want ErrCorrupt", err)
	}

	for cut := 0; cut < len(env); cut++ {
		_, err := Open(env[:cut], magic, version)
		typed(t, "truncated envelope", err, cut, ErrTruncated, ErrCorrupt)
	}
	_, err = Open(append(env[:len(env):len(env)], 0), magic, version)
	typed(t, "trailing byte", err, len(env)+1, ErrCorrupt)

	lenAt := len(magic) + 1
	for i := range env {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), env...)
			mut[i] ^= 1 << bit
			_, err := Open(mut, magic, version)
			switch {
			case i < len(magic), i >= lenAt:
				// Magic, declared length, body, trailer: all corruption.
				typed(t, "flipped byte", err, len(mut), ErrCorrupt)
			default:
				// The version byte: another version, or (high bit set) a
				// varint that swallows the length field.
				typed(t, "flipped version", err, len(mut), ErrVersion, ErrCorrupt, ErrTruncated)
			}
		}
	}

	if _, err := Seal(magic, version, make([]byte, MaxBody+1)); err == nil {
		t.Error("Seal accepted a body past MaxBody")
	}
}

func TestFNV1aMatchesStdlib(t *testing.T) {
	for _, s := range []string{"", "a", "white-box program tuning"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got := FNV1a([]byte(s)); got != h.Sum64() {
			t.Errorf("FNV1a(%q) = %#x, want %#x", s, got, h.Sum64())
		}
	}
}
