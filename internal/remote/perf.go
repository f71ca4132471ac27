package remote

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Wire-layer performance measurement, read by benchmark/probes.go (the
// remote.wire_* layer metrics of BENCHMARK.json) and by the Benchmark*
// functions in wire_bench_test.go. The steady-state codec paths are the
// zero-copy contract: encode of tasks and result batches, and the frame
// roundtrip, must not allocate per op — alloc_test.go holds them there.

// PerfPoint is one wire-layer measurement. P99NsPerOp carries a latency
// tail (dispatch/rpc histograms) instead of a mean; points that measure
// throughput leave it zero.
type PerfPoint struct {
	Name        string
	NsPerOp     float64
	AllocsPerOp int64
	BytesPerOp  int64
	P99NsPerOp  float64
}

func point(name string, r testing.BenchmarkResult) PerfPoint {
	return PerfPoint{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// perfBatch is a representative result batch: params, mixed-type commits,
// scores — what a worker's writeLoop flushes at steady state.
func perfBatch(n int) []resultMsg {
	batch := make([]resultMsg, n)
	for i := range batch {
		batch[i] = resultMsg{ID: uint64(i + 1), Res: core.ExecResult{
			Params: []core.ParamKV{{Name: "alpha", Value: 0.25}, {Name: "beta", Value: float64(i)}},
			Commits: []core.CommitKV{
				{Name: "y", Value: float64(i) * 1.5},
				{Name: "tag", Value: "blue"},
			},
			Scored: true, Score: float64(i), WorkMilli: 125,
		}}
	}
	return batch
}

var perfTask = taskMsg{ID: 7, Round: 3, Group: 11, Attempt: 1}

func runTaskEncode(b *testing.B) {
	w := newMuxWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wb := getFrameBuf()
		appendTask(wb, perfTask)
		if err := w.writeBuf(wb); err != nil {
			b.Fatal(err)
		}
		putFrameBuf(wb)
	}
}

func runTaskDecode(b *testing.B) {
	payload := encodeTask(perfTask)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeTask(payload[1:]); err != nil {
			b.Fatal(err)
		}
	}
}

func runResultsEncode(b *testing.B) {
	batch := perfBatch(16)
	w := newMuxWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wb := getFrameBuf()
		if err := appendResults(wb, batch, nil); err != nil {
			b.Fatal(err)
		}
		if err := w.writeBuf(wb); err != nil {
			b.Fatal(err)
		}
		putFrameBuf(wb)
	}
}

func runResultsDecode(b *testing.B) {
	payload, err := encodeResults(perfBatch(16), nil)
	if err != nil {
		b.Fatal(err)
	}
	var dec decoder
	dec.init()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeResults(payload[1:], nil, &dec); err != nil {
			b.Fatal(err)
		}
	}
}

// runFrameRoundTrip writes a task frame and reads it back through the frame
// layer, the full per-sample wire cost minus the network itself.
func runFrameRoundTrip(b *testing.B) {
	var buf bytes.Buffer
	w := newMuxWriter(&buf)
	var rd bytes.Reader
	var fb []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		wb := getFrameBuf()
		appendTask(wb, perfTask)
		if err := w.writeBuf(wb); err != nil {
			b.Fatal(err)
		}
		putFrameBuf(wb)
		rd.Reset(buf.Bytes())
		payload, err := readFrame(&rd, fb)
		if err != nil {
			b.Fatal(err)
		}
		fb = payload
		if _, err := decodeTask(payload[1:]); err != nil {
			b.Fatal(err)
		}
	}
}

// runMuxRoundTrip ships a 1MiB message through chunking and reassembly.
func runMuxRoundTrip(b *testing.B) {
	msg := make([]byte, 1<<20)
	for i := range msg {
		msg[i] = byte(i)
	}
	var buf bytes.Buffer
	w := newMuxWriter(&buf)
	var rd bytes.Reader
	var fb []byte
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := w.writeMsg(msg); err != nil {
			b.Fatal(err)
		}
		rd.Reset(buf.Bytes())
		dmx := newDemux()
		for {
			payload, err := readFrame(&rd, fb)
			if err != nil {
				b.Fatal(err)
			}
			fb = payload
			m, pooled, err := dmx.feed(payload)
			if err != nil {
				b.Fatal(err)
			}
			if m != nil {
				if len(m) != len(msg) {
					b.Fatalf("reassembled %d bytes", len(m))
				}
				if pooled {
					wire.Free(m)
				}
				break
			}
		}
	}
}

// DispatchTail runs a single-slot loopback fleet through a synthetic region
// and returns the dispatch (queue wait) and rpc (wire round trip) p99s in
// nanoseconds, read from the same histograms the obs endpoint exports.
func DispatchTail(samples int) (dispatchP99, rpcP99 float64, err error) {
	oreg := obs.NewRegistry()
	ex := NewExecutor(ExecutorOptions{Registry: Builtins(), Obs: oreg})
	defer ex.Close()
	w := NewWorker(WorkerOptions{Registry: Builtins(), Slots: 1, Name: "perf"})
	defer w.Close()
	a, b := net.Pipe()
	go w.ServeConn(a)
	if err := ex.AddConn(b); err != nil {
		return 0, 0, err
	}
	spec, body := SyntheticSpec(samples)
	tuner := core.New(core.Options{MaxPool: 1, Seed: 1, Executor: ex})
	err = tuner.Run(func(p *core.P) error {
		p.Expose(SyntheticServiceKey, 0)
		res, err := p.Region(spec, body)
		if err != nil {
			return err
		}
		if res.Len("f") != samples {
			return fmt.Errorf("%d of %d samples returned", res.Len("f"), samples)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	dispatch := oreg.Histogram(MetricDispatchSeconds, obs.FineDurationBuckets(), "worker", "perf", "transport", "pipe")
	rpc := oreg.Histogram(MetricRPCSeconds, obs.DurationBuckets(), "worker", "perf", "transport", "pipe")
	return dispatch.Quantile(0.99) * 1e9, rpc.Quantile(0.99) * 1e9, nil
}

// WirePerf measures the wire-layer steady state: codec and frame throughput
// via testing.Benchmark plus the loopback dispatch/rpc latency tails.
func WirePerf() ([]PerfPoint, error) {
	out := []PerfPoint{
		point("wire_task_encode", testing.Benchmark(runTaskEncode)),
		point("wire_task_decode", testing.Benchmark(runTaskDecode)),
		point("wire_results_encode", testing.Benchmark(runResultsEncode)),
		point("wire_results_decode", testing.Benchmark(runResultsDecode)),
		point("wire_frame_roundtrip", testing.Benchmark(runFrameRoundTrip)),
		point("wire_mux_roundtrip_1mib", testing.Benchmark(runMuxRoundTrip)),
	}
	dp99, rp99, err := DispatchTail(2048)
	if err != nil {
		return nil, err
	}
	out = append(out,
		PerfPoint{Name: "remote_dispatch", P99NsPerOp: dp99},
		PerfPoint{Name: "remote_rpc", P99NsPerOp: rp99},
	)
	return out, nil
}
