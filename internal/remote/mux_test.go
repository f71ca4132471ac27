package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/wire"
)

// frameRecorder captures each Write as one frame, preserving the one-frame-
// per-Write invariant the wire layer promises.
type frameRecorder struct {
	frames [][]byte
}

func (f *frameRecorder) Write(p []byte) (int, error) {
	f.frames = append(f.frames, append([]byte(nil), p...))
	return len(p), nil
}

// payloads strips the length prefix from every recorded frame, verifying the
// prefix matches the payload it announces.
func (f *frameRecorder) payloads(t *testing.T) [][]byte {
	t.Helper()
	out := make([][]byte, 0, len(f.frames))
	for i, fr := range f.frames {
		if len(fr) < frameHeader {
			t.Fatalf("frame %d shorter than its header: %d bytes", i, len(fr))
		}
		n := binary.BigEndian.Uint32(fr)
		if int(n) != len(fr)-frameHeader {
			t.Fatalf("frame %d: prefix %d, payload %d", i, n, len(fr)-frameHeader)
		}
		out = append(out, fr[frameHeader:])
	}
	return out
}

func withChunkThreshold(t *testing.T, n int) {
	t.Helper()
	old := chunkThreshold
	chunkThreshold = n
	t.Cleanup(func() { chunkThreshold = old })
}

func patternMsg(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

func TestWireChunkRoundTrip(t *testing.T) {
	withChunkThreshold(t, 64)
	for _, size := range []int{0, 1, 63, 64, 65, 127, 128, 129, 1000} {
		rec := &frameRecorder{}
		w := newMuxWriter(rec)
		msg := patternMsg(size)
		if err := w.writeMsg(msg); err != nil {
			t.Fatalf("size %d: writeMsg: %v", size, err)
		}
		dmx := newDemux()
		var got []byte
		done := false
		for _, p := range rec.payloads(t) {
			m, pooled, err := dmx.feed(p)
			if err != nil {
				t.Fatalf("size %d: feed: %v", size, err)
			}
			if m != nil {
				if done {
					t.Fatalf("size %d: demux produced two messages", size)
				}
				got = append([]byte(nil), m...)
				done = true
				if pooled {
					wire.Free(m)
				}
			}
		}
		if !done || !bytes.Equal(got, msg) {
			t.Fatalf("size %d: round trip diverged (done=%v, got %d bytes)", size, done, len(got))
		}
		if size > 64 {
			if wantMin := (size + 63) / 64; len(rec.frames) < wantMin {
				t.Fatalf("size %d: %d frames, expected at least %d chunks", size, len(rec.frames), wantMin)
			}
		} else if len(rec.frames) != 1 {
			t.Fatalf("size %d: %d frames, expected a single unchunked frame", size, len(rec.frames))
		}
	}
}

func TestWriteBufChunksLargePayload(t *testing.T) {
	withChunkThreshold(t, 32)
	rec := &frameRecorder{}
	w := newMuxWriter(rec)
	wb := getFrameBuf()
	defer putFrameBuf(wb)
	msg := patternMsg(100)
	wb.B = append(wb.B, msg...)
	if err := w.writeBuf(wb); err != nil {
		t.Fatalf("writeBuf: %v", err)
	}
	if len(rec.frames) != 4 { // ceil(100/32)
		t.Fatalf("got %d frames, want 4 chunks", len(rec.frames))
	}
	dmx := newDemux()
	for i, p := range rec.payloads(t) {
		m, pooled, err := dmx.feed(p)
		if err != nil {
			t.Fatalf("feed %d: %v", i, err)
		}
		if (m != nil) != (i == 3) {
			t.Fatalf("feed %d: message completion at wrong chunk", i)
		}
		if m != nil {
			if !bytes.Equal(m, msg) {
				t.Fatal("reassembled message diverged")
			}
			if pooled {
				wire.Free(m)
			}
		}
	}
}

// TestDemuxInterleavedStreams reassembles two chunk streams whose frames
// alternate on the wire — the whole point of mux framing.
func TestDemuxInterleavedStreams(t *testing.T) {
	withChunkThreshold(t, 48)
	msgA, msgB := patternMsg(200), bytes.Repeat([]byte{0xEE}, 150)
	recA, recB := &frameRecorder{}, &frameRecorder{}
	// Two writers sharing one wire would serialize whole frames; recording
	// them separately and zipping simulates the interleaving the lock
	// release between chunks allows.
	shared := newMuxWriter(nil)
	shared.w = recA
	if err := shared.writeMsg(msgA); err != nil {
		t.Fatal(err)
	}
	shared.w = recB
	if err := shared.writeMsg(msgB); err != nil {
		t.Fatal(err)
	}
	pa, pb := recA.payloads(t), recB.payloads(t)
	var zipped [][]byte
	for i := 0; i < len(pa) || i < len(pb); i++ {
		if i < len(pa) {
			zipped = append(zipped, pa[i])
		}
		if i < len(pb) {
			zipped = append(zipped, pb[i])
		}
	}
	dmx := newDemux()
	var got [][]byte
	for _, p := range zipped {
		m, pooled, err := dmx.feed(p)
		if err != nil {
			t.Fatalf("feed: %v", err)
		}
		if m != nil {
			got = append(got, append([]byte(nil), m...))
			if pooled {
				wire.Free(m)
			}
		}
	}
	// The shorter stream completes first: it needs fewer chunks of the zip.
	if len(got) != 2 || !bytes.Equal(got[0], msgB) || !bytes.Equal(got[1], msgA) {
		t.Fatalf("interleaved reassembly diverged: %d messages", len(got))
	}
	if len(dmx.streams) != 0 {
		t.Fatalf("%d streams left open", len(dmx.streams))
	}
}

// TestWireConcurrentWriters hammers one wire from many goroutines, mixing
// chunked and small messages, and checks every message survives reassembly.
func TestWireConcurrentWriters(t *testing.T) {
	withChunkThreshold(t, 256)
	var buf bytes.Buffer
	var mu sync.Mutex
	w := newMuxWriter(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}))
	const writers = 8
	var wg sync.WaitGroup
	want := make(map[string]int)
	var wantMu sync.Mutex
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20; i++ {
				size := 1 + rng.Intn(2000)
				msg := make([]byte, size)
				rng.Read(msg)
				// Tag byte keeps the first byte away from mChunk, which a
				// passthrough frame must never start with.
				msg = append([]byte{0xF0 | byte(g)}, msg...)
				wantMu.Lock()
				want[string(msg)]++
				wantMu.Unlock()
				if err := w.writeMsg(msg); err != nil {
					t.Errorf("writeMsg: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	dmx := newDemux()
	r := bytes.NewReader(buf.Bytes())
	var fb []byte
	n := 0
	for {
		payload, err := readFrame(r, fb)
		if err != nil {
			break
		}
		fb = payload
		m, pooled, err := dmx.feed(payload)
		if err != nil {
			t.Fatalf("feed: %v", err)
		}
		if m == nil {
			continue
		}
		wantMu.Lock()
		if want[string(m)] == 0 {
			t.Fatal("reassembled a message nobody wrote")
		}
		want[string(m)]--
		if want[string(m)] == 0 {
			delete(want, string(m))
		}
		wantMu.Unlock()
		if pooled {
			wire.Free(m)
		}
		n++
	}
	if len(want) != 0 {
		t.Fatalf("%d messages lost in transit (%d arrived)", len(want), n)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// chunkFrame hand-builds a chunk frame payload for demux error cases.
func chunkFrame(sid uint64, flags byte, total int, data []byte) []byte {
	w := &wire.Writer{}
	w.U8(mChunk)
	w.Uv(sid)
	w.U8(flags)
	if flags&chunkFirst != 0 {
		w.Uv(uint64(total))
	}
	w.B = append(w.B, data...)
	return w.B
}

func TestDemuxErrors(t *testing.T) {
	feedAll := func(frames ...[]byte) error {
		dmx := newDemux()
		defer dmx.close()
		for _, f := range frames {
			if m, pooled, err := dmx.feed(f); err != nil {
				return err
			} else if m != nil && pooled {
				wire.Free(m)
			}
		}
		return nil
	}
	if err := feedAll(chunkFrame(1, 0, 0, []byte("x"))); err == nil {
		t.Error("chunk for unknown stream accepted")
	}
	if err := feedAll(
		chunkFrame(1, chunkFirst, 10, []byte("abc")),
		chunkFrame(1, chunkFirst, 10, []byte("def")),
	); err == nil {
		t.Error("stream reopen accepted")
	}
	if err := feedAll(chunkFrame(1, chunkFirst, 0, nil)); err == nil {
		t.Error("zero-length stream accepted")
	}
	if err := feedAll(chunkFrame(1, chunkFirst, maxMessage+1, nil)); err == nil {
		t.Error("oversize stream accepted")
	}
	if err := feedAll(
		chunkFrame(1, chunkFirst, 3, []byte("ab")),
		chunkFrame(1, 0, 0, []byte("cd")),
	); err == nil {
		t.Error("overflow past announced length accepted")
	}
	if err := feedAll(chunkFrame(1, chunkFirst|chunkLast, 5, []byte("ab"))); err == nil {
		t.Error("short-of-announced-length stream accepted")
	}
	if err := feedAll([]byte{mChunk}); err == nil {
		t.Error("truncated chunk header accepted")
	}
	// A full roundtrip must still work after errors elsewhere.
	ok := chunkFrame(7, chunkFirst|chunkLast, 2, []byte("ok"))
	dmx := newDemux()
	m, pooled, err := dmx.feed(ok)
	if err != nil || !bytes.Equal(m, []byte("ok")) {
		t.Fatalf("single-chunk stream: %v %q", err, m)
	}
	if pooled {
		wire.Free(m)
	}
}

func TestDemuxStreamLimit(t *testing.T) {
	dmx := newDemux()
	defer dmx.close()
	for i := 0; i < maxStreams; i++ {
		if _, _, err := dmx.feed(chunkFrame(uint64(i+1), chunkFirst, 100, []byte("x"))); err != nil {
			t.Fatalf("stream %d rejected below the limit: %v", i, err)
		}
	}
	if _, _, err := dmx.feed(chunkFrame(uint64(maxStreams+1), chunkFirst, 100, []byte("x"))); err == nil {
		t.Fatalf("stream %d accepted beyond maxStreams", maxStreams+1)
	}
}

func TestWireRejectsOversizeMessages(t *testing.T) {
	w := newMuxWriter(&frameRecorder{})
	big := make([]byte, maxMessage+1)
	if err := w.writeMsg(big); !errors.Is(err, ErrMessageTooBig) {
		t.Errorf("writeMsg oversize: %v, want ErrMessageTooBig", err)
	}
	wb := &wire.Writer{B: make([]byte, frameHeader)}
	wb.B = append(wb.B, big...)
	if err := w.writeBuf(wb); !errors.Is(err, ErrMessageTooBig) {
		t.Errorf("writeBuf oversize: %v, want ErrMessageTooBig", err)
	}
	// At the cap exactly: accepted (chunked).
	if err := w.writeMsg(big[:maxMessage]); err != nil {
		t.Errorf("writeMsg at cap: %v", err)
	}
}

func TestFrameBufPoolRetention(t *testing.T) {
	wb := getFrameBuf()
	if len(wb.B) != frameHeader {
		t.Fatalf("fresh frame buf len %d, want %d", len(wb.B), frameHeader)
	}
	wb.B = append(wb.B, make([]byte, 2*maxPooledFrameBuf)...)
	putFrameBuf(wb) // must drop, not retain a snapshot-size array
	wb2 := getFrameBuf()
	if cap(wb2.B) > maxPooledFrameBuf {
		t.Errorf("pool retained a %d-byte frame buffer", cap(wb2.B))
	}
	putFrameBuf(wb2)
}

func TestWriteChunksError(t *testing.T) {
	withChunkThreshold(t, 8)
	failAt := 2
	n := 0
	w := newMuxWriter(writerFunc(func(p []byte) (int, error) {
		n++
		if n > failAt {
			return 0, fmt.Errorf("boom")
		}
		return len(p), nil
	}))
	if err := w.writeMsg(patternMsg(64)); err == nil || err.Error() != "boom" {
		t.Fatalf("writeChunks error not propagated: %v", err)
	}
}
