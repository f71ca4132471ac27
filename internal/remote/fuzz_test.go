package remote

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/strategy"
	"repro/internal/wire"
)

// FuzzFrameDecode feeds arbitrary bytes through the wire stack exactly as a
// connection read loop would: split the stream into length-prefixed frames,
// then decode each payload with the message decoder its type byte selects.
// Nothing may panic or allocate unboundedly — malformed length prefixes,
// truncated frames, hostile collection counts, and overlong varints must all
// come back as errors. Snapshot frames have their own target,
// FuzzSnapDeltaDecode. For payloads that do decode, the decoded message
// must survive a re-encode/re-decode round trip unchanged (compared on
// printed form, which tolerates non-canonical varints and NaN scores in the
// fuzz input).
func FuzzFrameDecode(f *testing.F) {
	frame := func(payload []byte) []byte {
		b := make([]byte, 4+len(payload))
		binary.BigEndian.PutUint32(b, uint32(len(payload)))
		copy(b[4:], payload)
		return b
	}
	f.Add(frame(encodeHello(helloMsg{Version: 1, Name: "w", Slots: 4})))
	f.Add(frame(encodeRound(roundMsg{ID: 1, Region: "r", Seed: -7, Round: 1, N: 8,
		SnapHash: 0xabcdef, Feedback: []strategy.Feedback{{Score: 2, Params: map[string]float64{"x": 1}}}})))
	f.Add(frame(encodeTask(taskMsg{ID: 3, Round: 1, Group: 2, Attempt: 1})))
	if b, err := encodeResults([]resultMsg{{ID: 9, Res: core.ExecResult{
		Params:  []core.ParamKV{{Name: "x", Value: 0.5}},
		Commits: []core.CommitKV{{Name: "y", Value: 1.5}, {Name: "s", Value: "z"}},
		Scored:  true, Score: 1.5, WorkMilli: 2048,
	}}}, nil); err == nil {
		f.Add(frame(b))
	}
	// A batch whose commits start the fuzzer inside the []byte and
	// [][]float64 arms of the value decoder.
	if b, err := encodeResults([]resultMsg{{ID: 10, Res: core.ExecResult{
		Commits: []core.CommitKV{{Name: "raw", Value: []byte{0xaa, 0xbb}}, {Name: "m", Value: [][]float64{{1}, {2, 3}}}},
	}}}, nil); err == nil {
		f.Add(frame(b))
	}
	f.Add(opFrame(mEndRound, 17))
	{
		e := store.NewExposed()
		e.Set("global", "k", 1.25)
		if sb, _, err := encodeSnapshot(1, e, nil); err == nil {
			f.Add(frame(sb))
			// Truncated: the frame claims more than it carries.
			f.Add(frame(sb)[:len(sb)/2])
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}) // hostile length prefix
	f.Add([]byte{0, 0, 0, 2, mResults})            // short results payload
	f.Add(frame([]byte{mRound, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		for i := 0; i < 64; i++ {
			payload, err := readFrame(r, buf)
			if err != nil {
				return
			}
			buf = payload
			if len(payload) == 0 {
				continue
			}
			body := payload[1:]
			switch payload[0] {
			case mHello:
				if m, err := decodeHello(body); err == nil {
					reDecode(t, "hello", m, func(b []byte) (helloMsg, error) { return decodeHello(b) }, encodeHello(m)[1:])
				}
			case mRound:
				if m, err := decodeRound(body); err == nil {
					reDecode(t, "round", m, decodeRound, encodeRound(m)[1:])
				}
			case mTask:
				if m, err := decodeTask(body); err == nil {
					reDecode(t, "task", m, decodeTask, encodeTask(m)[1:])
				}
			case mEndRound:
				if id, err := decodeEndRound(body); err == nil {
					b := opFrame(mEndRound, id)
					if id2, err := decodeEndRound(b[frameHeader+1:]); err != nil || id2 != id {
						t.Fatalf("endround round trip: %d -> %d, %v", id, id2, err)
					}
				}
			case mResults:
				ms, err := decodeResults(body, nil, nil)
				if err != nil {
					continue
				}
				b, err := encodeResults(ms, nil)
				if err != nil {
					t.Fatalf("re-encode of decoded results failed: %v", err)
				}
				ms2, err := decodeResults(b[1:], nil, nil)
				if err != nil || fmt.Sprintf("%#v", ms2) != fmt.Sprintf("%#v", ms) {
					t.Fatalf("results round trip diverged: %v", err)
				}
			}
		}
	})
}

// FuzzMuxDecode feeds arbitrary bytes through the chunk reassembly path
// exactly as a read loop would: frame split, then demux. Nothing may panic,
// no reassembled message may exceed the wire cap, and frame errors must
// leave the demux droppable (close releases whatever was half-assembled).
// The seed corpus in testdata covers split-boundary chunking and hostile
// max-frame-size announcements.
func FuzzMuxDecode(f *testing.F) {
	frame := func(payload []byte) []byte {
		b := make([]byte, frameHeader+len(payload))
		binary.BigEndian.PutUint32(b, uint32(len(payload)))
		copy(b[frameHeader:], payload)
		return b
	}
	// Single-chunk stream.
	f.Add(frame(chunkFrame(1, chunkFirst|chunkLast, 2, []byte("ok"))))
	// Two-chunk split plus a small passthrough frame in the gap.
	f.Add(bytes.Join([][]byte{
		frame(chunkFrame(2, chunkFirst, 6, []byte("abc"))),
		opFrame(mEndRound, 9),
		frame(chunkFrame(2, chunkLast, 0, []byte("def"))),
	}, nil))
	// Interleaved streams completing out of order.
	f.Add(bytes.Join([][]byte{
		frame(chunkFrame(3, chunkFirst, 4, []byte("aa"))),
		frame(chunkFrame(4, chunkFirst|chunkLast, 2, []byte("bb"))),
		frame(chunkFrame(3, chunkLast, 0, []byte("aa"))),
	}, nil))
	// Hostile announcements: total at the cap, just past it, and a frame
	// header claiming maxFrame with no body behind it.
	f.Add(frame(chunkFrame(5, chunkFirst, maxMessage, []byte("x"))))
	f.Add(frame(chunkFrame(5, chunkFirst, maxMessage+1, []byte("x"))))
	f.Add([]byte{0x04, 0x00, 0x00, 0x00, 1, 2, 3})
	// Stream reopen and unknown-stream chunks.
	f.Add(bytes.Join([][]byte{
		frame(chunkFrame(6, chunkFirst, 8, []byte("abc"))),
		frame(chunkFrame(6, chunkFirst, 8, []byte("abc"))),
	}, nil))
	f.Add(frame(chunkFrame(7, chunkLast, 0, []byte("zz"))))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		dmx := newDemux()
		defer dmx.close()
		var buf []byte
		for i := 0; i < 128; i++ {
			payload, err := readFrame(r, buf)
			if err != nil {
				return
			}
			buf = payload
			msg, pooled, err := dmx.feed(payload)
			if err != nil {
				return
			}
			if msg == nil {
				continue
			}
			if len(msg) > maxMessage {
				t.Fatalf("reassembled message of %d bytes exceeds the wire cap", len(msg))
			}
			if pooled {
				wire.Free(msg)
			}
		}
	})
}

// fuzzDeltaBase builds the fixed base snapshot FuzzSnapDeltaDecode patches
// against — a deterministic full ship with several value shapes, so crafted
// deltas exercise replace, insert, and delete paths.
func fuzzDeltaBase() ([]byte, uint64) {
	e := store.NewExposed()
	e.Set("global", "knob", 1.5)
	e.Set("global", "tag", "blue")
	e.Set("global", "trace", []float64{1, 2, 3})
	e.Set("aux", "ids", []int{7, 8})
	b, hash, err := encodeSnapshot(0, e, nil)
	if err != nil {
		panic(err)
	}
	return b, hash
}

// FuzzSnapDeltaDecode feeds arbitrary bytes through the snapshot path exactly
// as a worker read loop would: decode the mSnapDelta payload, then apply it to
// a worker holding the fixed base snapshot. Nothing may panic — malformed
// symbol ids, hostile counts, truncated value bytes, wrong hashes, and
// unsorted or duplicate keys must all come back as errors or as typed
// refusals that install nothing; a full ship (BaseHash 0) that misnames its
// identity must be an error, never a nack. Decoded deltas must survive a
// re-encode/re-decode round trip, the reference byte patch of the same delta
// — against the base, or the empty snapshot for BaseHash 0 — must still parse
// as a full ship, and whatever the worker does install must be exactly what
// the reference patch decodes to, under the identity the frame named. The
// seed corpus in testdata covers the valid-delta, hash-mismatch, base-missing,
// and truncation shapes the nack protocol distinguishes; the full-ship shapes
// are seeded here.
func FuzzSnapDeltaDecode(f *testing.F) {
	base, baseHash := fuzzDeltaBase()
	baseSnap, err := installFull(base, nil)
	if err != nil {
		f.Fatal(err)
	}
	empty := oracleWrite(0, nil)

	// A well-formed delta: replace one key, add one, delete one — with the
	// true identity of the result, the shape a healthy stream carries.
	f64 := &wire.Writer{}
	f64.U8(vFloat64)
	f64.F64(2.5)
	valid := &snapDelta{BaseHash: baseHash, Changed: []snapEntry{
		{scope: "global", name: "knob", val: f64.B},
		{scope: "global", name: "new", val: []byte{vNil}},
	}, Deleted: []delKey{{scope: "global", name: "tag"}}}
	if patched, err := oraclePatch(base, valid); err == nil {
		valid.NewHash, _ = oracleIdentity(patched)
	}
	vb := encodeSnapDelta(valid)
	f.Add(vb[1:])
	// Hash mismatch: the delta applies but must fail verification.
	wrongHash := *valid
	wrongHash.NewHash ^= 1
	f.Add(encodeSnapDelta(&wrongHash)[1:])
	// Base missing: refers to a snapshot nobody holds.
	noBase := *valid
	noBase.BaseHash ^= 1
	f.Add(encodeSnapDelta(&noBase)[1:])
	f.Add(vb[1 : len(vb)/2])                                                  // truncated mid-entry
	f.Add([]byte{})                                                           // empty payload
	f.Add([]byte{0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff}) // hostile symbol count
	{
		w := &wire.Writer{} // symbol id past the table
		w.Uv(9)
		w.U64(baseHash)
		w.U64(0)
		w.Uv(1)
		w.Str("global")
		w.Uv(1)
		w.Uv(7)
		w.Uv(0)
		w.U8(vNil)
		w.Uv(0)
		f.Add(w.B)
	}
	// Full ships: the base's own, and one naming the wrong identity.
	f.Add(base[1:])
	misnamed := append([]byte(nil), base...)
	misnamed[1+1+8] ^= 1 // type byte, job 0, BaseHash 0, then NewHash
	f.Add(misnamed[1:])

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decodeSnapDelta(data)
		if err != nil {
			return
		}
		// Round trip: canonical re-encode of whatever decoded must decode
		// back to the same structural delta.
		b2 := encodeSnapDelta(&d)
		d2, err := decodeSnapDelta(b2[1:])
		if err != nil || fmt.Sprintf("%#v", d2) != fmt.Sprintf("%#v", d) {
			t.Fatalf("delta round trip diverged: %v", err)
		}
		// The reference patch output must itself be a parseable full ship.
		ref := base
		if d.BaseHash == 0 {
			ref = empty
		}
		patched, err := oraclePatch(ref, &d)
		if err != nil {
			t.Fatalf("reference patch of a decodable delta failed: %v", err)
		}
		want, err := oracleIdentity(patched)
		if err != nil {
			t.Fatalf("patch produced an unparseable encoding: %v", err)
		}

		w := NewWorker(WorkerOptions{Registry: Builtins()})
		w.installSnapshot(d.Job, baseHash, baseSnap)
		cause, err := w.applyDelta(&d)
		got, held := w.snapshot(d.Job, d.NewHash)
		installed := held && got != baseSnap // a delta may name the base's own identity
		switch {
		case err != nil: // malformed or unresolvable value bytes, or a misnamed full ship
			if installed || cause != 0 {
				t.Fatalf("a delta that failed to decode installed %v, nack cause %d", installed, cause)
			}
		case d.BaseHash == 0 && want != d.NewHash:
			t.Fatalf("full ship of identity %#x named as %#x was not refused as malformed (nack cause %d)", want, d.NewHash, cause)
		case d.BaseHash != 0 && d.BaseHash != baseHash:
			if cause != nackBaseMissing || installed {
				t.Fatalf("unknown base: nack cause %d, installed %v", cause, installed)
			}
		case want != d.NewHash:
			if cause != nackHashMismatch || installed {
				t.Fatalf("identity %#x named as %#x: nack cause %d, installed %v", want, d.NewHash, cause, installed)
			}
		default:
			if cause != 0 || !held {
				t.Fatalf("verified delta refused: nack cause %d, held %v", cause, held)
			}
			ref, err := oracleDecode(patched, nil)
			if err != nil {
				t.Fatalf("worker installed what the reference cannot decode: %v", err)
			}
			if fmt.Sprintf("%#v", got.e.Entries()) != fmt.Sprintf("%#v", ref.Entries()) {
				t.Fatalf("worker installed %#v, reference patch decodes to %#v", got.e.Entries(), ref.Entries())
			}
		}
	})
}

// reDecode re-decodes an encoded message and compares printed forms, which
// treats NaN == NaN and ignores varint canonicality in the original input.
func reDecode[T any](t *testing.T, kind string, orig T, dec func([]byte) (T, error), b []byte) {
	t.Helper()
	got, err := dec(b)
	if err != nil {
		t.Fatalf("%s: re-decode of re-encoded message failed: %v", kind, err)
	}
	if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", orig) {
		t.Fatalf("%s round trip diverged:\n orig %#v\n got %#v", kind, orig, got)
	}
}
