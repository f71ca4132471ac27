package remote

import (
	"bytes"
	"io"
	"testing"
)

// TestSteadyStateAllocs is the CI allocation gate for the zero-copy wire
// layer: steady-state frame encode and decode paths must not allocate at
// all. Result-batch decode is pinned instead of zero — its output escapes
// into the core result machinery (boxed commit values, per-result slices),
// so those allocations are the payload's, not the codec's; the pin keeps
// them from quietly growing.
func TestSteadyStateAllocs(t *testing.T) {
	w := newMuxWriter(io.Discard)
	batch := perfBatch(16)
	taskPayload := encodeTask(perfTask)
	resultsPayload, err := encodeResults(batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	var dec decoder
	dec.init()

	check := func(name string, want float64, f func()) {
		t.Helper()
		f() // warm pools and interning before counting
		if got := testing.AllocsPerRun(200, f); got > want {
			t.Errorf("%s: %.1f allocs/op, want <= %.0f", name, got, want)
		}
	}

	check("task_encode", 0, func() {
		wb := getFrameBuf()
		appendTask(wb, perfTask)
		if err := w.writeBuf(wb); err != nil {
			t.Fatal(err)
		}
		putFrameBuf(wb)
	})
	check("task_decode", 0, func() {
		if _, err := decodeTask(taskPayload[1:]); err != nil {
			t.Fatal(err)
		}
	})
	check("results_encode", 0, func() {
		wb := getFrameBuf()
		if err := appendResults(wb, batch, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.writeBuf(wb); err != nil {
			t.Fatal(err)
		}
		putFrameBuf(wb)
	})

	var buf bytes.Buffer
	var rd bytes.Reader
	var fb []byte
	bw := newMuxWriter(&buf)
	check("frame_roundtrip", 0, func() {
		buf.Reset()
		wb := getFrameBuf()
		appendTask(wb, perfTask)
		if err := bw.writeBuf(wb); err != nil {
			t.Fatal(err)
		}
		putFrameBuf(wb)
		rd.Reset(buf.Bytes())
		payload, err := readFrame(&rd, fb)
		fb = payload
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeTask(payload[1:]); err != nil {
			t.Fatal(err)
		}
	})

	// 5 allocs per result: Params and Commits slices, boxed float and
	// string commit values, boxed param value — all escape to the caller.
	check("results_decode_pinned", float64(5*len(batch)), func() {
		if _, err := decodeResults(resultsPayload[1:], nil, &dec); err != nil {
			t.Fatal(err)
		}
	})
}
