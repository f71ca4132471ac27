// Package wire holds the byte-level primitives under the repo's three binary
// formats — fleet frames (internal/remote), WBCK checkpoints
// (internal/checkpoint) and WBJS job specs (internal/core): an append
// Writer, a bounds-checked sticky-error Reader, the sealed envelope both
// on-disk formats share, the FNV-1a content hash, and the size-classed
// buffer arena (arena.go). Each format keeps only its message layout and its
// value tag table on top; none of them touches encoding/binary for a
// varint, a length or a hash.
//
// Integers are uvarint/zig-zag varint unless fixed width is named (u64 and
// f64 are 8 bytes big-endian); strings and byte slices are a uvarint length
// then the bytes; a flag is one byte, 0 or 1.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Decode failure kinds. Every error a Reader or Open produces is an *Error
// wrapping one of them.
var (
	// ErrTruncated reports input that ends before the value it promises.
	ErrTruncated = errors.New("truncated input")
	// ErrCorrupt reports input that is present but cannot be valid.
	ErrCorrupt = errors.New("corrupt input")
	// ErrVersion reports an envelope sealed under another codec version.
	ErrVersion = errors.New("unsupported version")
)

// Error is a decode failure: what went wrong, and at which byte offset of
// the buffer being read.
type Error struct {
	Kind error // ErrTruncated, ErrCorrupt or ErrVersion
	Off  int
	What string
}

func (e *Error) Error() string { return fmt.Sprintf("%v: %s at offset %d", e.Kind, e.What, e.Off) }
func (e *Error) Unwrap() error { return e.Kind }

// Writer is an append-only encode buffer. B is exported so callers can hand
// it a pooled array, reserve a prefix, or splice pre-encoded bytes.
type Writer struct{ B []byte }

func (w *Writer) U8(v byte)     { w.B = append(w.B, v) }
func (w *Writer) Uv(v uint64)   { w.B = binary.AppendUvarint(w.B, v) }
func (w *Writer) Iv(v int64)    { w.B = binary.AppendVarint(w.B, v) }
func (w *Writer) U64(v uint64)  { w.B = binary.BigEndian.AppendUint64(w.B, v) }
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }
func (w *Writer) Raw(b []byte)  { w.B = append(w.B, b...) }

func (w *Writer) Str(s string) {
	w.Uv(uint64(len(s)))
	w.B = append(w.B, s...)
}

func (w *Writer) Bytes(b []byte) {
	w.Uv(uint64(len(b)))
	w.B = append(w.B, b...)
}

func (w *Writer) Flag(v bool) {
	if v {
		w.B = append(w.B, 1)
	} else {
		w.B = append(w.B, 0)
	}
}

// Reader is a bounds-checked decode cursor with a sticky error: decoders read
// fields unconditionally and check Err or Done once. After the first failure
// every read returns the zero value. Every length read from the input is
// validated against the bytes that remain before it is used, so a hostile
// length never becomes an allocation or an out-of-range slice.
type Reader struct {
	b   []byte
	off int
	err error
}

func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Rest returns the unread bytes, aliasing the input.
func (r *Reader) Rest() []byte { return r.b[r.off:] }

// Fail records err as the Reader's failure unless one is already recorded —
// the hook for a format's own refusals that are not corruption (a value this
// side cannot resolve), which then stop the decode like any other error.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Corruptf fails the Reader with an ErrCorrupt at the current offset.
func (r *Reader) Corruptf(format string, args ...any) {
	if r.err == nil {
		r.err = &Error{Kind: ErrCorrupt, Off: r.off, What: fmt.Sprintf(format, args...)}
	}
}

func (r *Reader) truncated(what string) {
	if r.err == nil {
		r.err = &Error{Kind: ErrTruncated, Off: r.off, What: what}
	}
}

// Take returns the next n bytes, aliasing the input, or nil on failure.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.truncated("short read")
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *Reader) U8() byte {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) Flag() bool { return r.U8() != 0 }

func (r *Reader) Uv() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.badVarint(n)
		return 0
	}
	r.off += n
	return v
}

func (r *Reader) Iv() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.badVarint(n)
		return 0
	}
	r.off += n
	return v
}

// badVarint classifies encoding/binary's failure returns: 0 is a buffer that
// ended mid-varint, negative a value overflowing 64 bits.
func (r *Reader) badVarint(n int) {
	if n == 0 {
		r.truncated("short varint")
	} else {
		r.Corruptf("varint overflows 64 bits")
	}
}

func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads a collection length and rejects one the remaining input cannot
// hold at minElem encoded bytes per element. It is strict: exactly
// remaining/minElem is the largest count accepted, so a loop bounded by the
// result can index or slice the input without its own check, and the result
// times minElem never exceeds the input length.
func (r *Reader) Count(minElem int) int {
	n := r.Uv()
	if r.err != nil {
		return 0
	}
	if n > uint64((len(r.b)-r.off)/minElem) {
		r.Corruptf("count %d exceeds remaining input", n)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string, aliasing the input.
func (r *Reader) Bytes() []byte { return r.Take(r.Count(1)) }

func (r *Reader) Str() string { return string(r.Bytes()) }

// Done returns the Reader's failure, or an error if input remains unread.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		r.Corruptf("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// FNV1a is the 64-bit FNV-1a hash of b: the envelope trailer and the
// snapshot content identity.
func FNV1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// MaxBody caps an envelope body, far above any realistic checkpoint or spec.
const MaxBody = 256 << 20

// Seal wraps body in the envelope both on-disk formats use:
//
//	magic | uvarint version | u32be len(body) | body | u64be FNV1a(body)
//
// and returns it in a freshly allocated slice of exactly that size.
func Seal(magic string, version uint64, body []byte) ([]byte, error) {
	if len(body) > MaxBody {
		return nil, fmt.Errorf("wire: %s body %d bytes exceeds cap %d", magic, len(body), MaxBody)
	}
	var ver [binary.MaxVarintLen64]byte
	nv := binary.PutUvarint(ver[:], version)
	out := make([]byte, 0, len(magic)+nv+4+len(body)+8)
	out = append(out, magic...)
	out = append(out, ver[:nv]...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(body)))
	out = append(out, body...)
	return binary.BigEndian.AppendUint64(out, FNV1a(body)), nil
}

// Open checks a sealed envelope — magic, version, declared length against
// the bytes present, body hash — and returns the body, aliasing data. A
// version other than want fails with ErrVersion before the body is looked at.
func Open(data []byte, magic string, want uint64) ([]byte, error) {
	r := NewReader(data)
	if string(r.Take(len(magic))) != magic {
		return nil, &Error{Kind: ErrCorrupt, What: "bad magic"}
	}
	if got := r.Uv(); r.err == nil && got != want {
		return nil, &Error{Kind: ErrVersion, Off: len(magic), What: fmt.Sprintf("got %d, want %d", got, want)}
	}
	hdr := r.Take(4)
	if r.err != nil {
		return nil, r.err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > MaxBody || len(r.Rest()) != n+8 {
		r.Corruptf("%d body bytes declared, %d present", n, len(r.Rest())-8)
		return nil, r.err
	}
	body := r.Take(n)
	if FNV1a(body) != r.U64() {
		return nil, &Error{Kind: ErrCorrupt, Off: r.off - 8, What: "body hash mismatch"}
	}
	return body, nil
}
