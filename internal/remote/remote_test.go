package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/strategy"
)

// fleet wires n loopback workers to a fresh NetExecutor over net.Pipe and
// tears everything down at test end.
type fleet struct {
	ex      *NetExecutor
	workers []*Worker
	conns   []net.Conn // dispatcher-side pipe ends, for killing workers
}

func newFleet(t testing.TB, n, slots int, exOpts ExecutorOptions, wOpts WorkerOptions) *fleet {
	t.Helper()
	f := &fleet{ex: NewExecutor(exOpts)}
	for i := 0; i < n; i++ {
		wo := wOpts
		if wo.Name == "" {
			wo.Name = fmt.Sprintf("w%d", i)
		}
		wo.Slots = slots
		w := NewWorker(wo)
		a, b := net.Pipe()
		go w.ServeConn(a)
		if err := f.ex.AddConn(b); err != nil {
			t.Fatalf("AddConn: %v", err)
		}
		f.workers = append(f.workers, w)
		f.conns = append(f.conns, b)
	}
	t.Cleanup(func() {
		f.ex.Close()
		for _, w := range f.workers {
			w.Close()
		}
	})
	return f
}

// dumpRegion flattens a region result for cross-run comparison.
func dumpRegion(res *core.Result) string {
	s := ""
	for g := 0; g < res.N(); g++ {
		s += fmt.Sprintf("g%d params=%v", g, res.Params(g))
		for _, x := range res.Vars() {
			if v, ok := res.Value(x, g); ok {
				s += fmt.Sprintf(" %s=%v", x, v)
			}
		}
		s += fmt.Sprintf(" err=%v pruned=%v\n", res.Err(g), res.Pruned(g))
	}
	if best := res.BestIndex(); best >= 0 {
		s += fmt.Sprintf("best=%d score=%v\n", best, res.BestScore())
	}
	return s
}

// countingExec counts the samples core hands an executor.
type countingExec struct {
	core.Executor
	executed atomic.Int64
}

func (c *countingExec) Execute(ctx context.Context, h any, group, attempt int) (core.ExecResult, error) {
	c.executed.Add(1)
	return c.Executor.Execute(ctx, h, group, attempt)
}

// TestLoopbackSyncBodyRunsLocally: a body that reaches a Sync barrier cannot
// run detached. The worker reports Unsupported over the wire, the sample
// re-runs in-process with the draws the remote run would have made, and from
// then on nothing of the region is dispatched: not the next sample of the
// core worker that got the answer, not the workers started while the first
// ones wait at the barrier, not the next round.
func TestLoopbackSyncBodyRunsLocally(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	const samples = 24 // on 2 local + 4 fleet slots: the barrier needs them all co-resident
	program := func(opts core.Options) string {
		var dump string
		tuner := core.New(opts)
		err := tuner.Run(func(p *core.P) error {
			p.Expose("bias", 0.5)
			for round := 0; round < 2; round++ {
				var arrived atomic.Int64
				res, err := p.Region(core.RegionSpec{Name: "barrier", Samples: samples}, func(sp *core.SP) error {
					x := sp.Float("x", dist.Uniform(0, 1))
					sp.Sync(func(v *core.SyncView) { arrived.Store(int64(v.Count())) })
					sp.Commit("y", x+sp.Load("bias").(float64))
					return nil
				})
				if err != nil {
					return err
				}
				if arrived.Load() != samples {
					return fmt.Errorf("round %d: barrier saw %d processes, want %d", round, arrived.Load(), samples)
				}
				dump += dumpRegion(res)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return dump
	}
	local := program(core.Options{MaxPool: 2, Seed: 9})

	reg := NewRegistry()
	f := newFleet(t, 2, 2, ExecutorOptions{Registry: reg, Dynamic: true}, WorkerOptions{Registry: reg})
	ex := &countingExec{Executor: f.ex}
	if got := program(core.Options{MaxPool: 2, Seed: 9, Executor: ex}); got != local {
		t.Fatalf("run over the fleet diverged from the local run:\nlocal:\n%s\nfleet:\n%s", local, got)
	}
	// Only the first worker of each slot can have dispatched before the first
	// Unsupported came back.
	if n := ex.executed.Load(); n == 0 || n > 6 {
		t.Fatalf("%d samples dispatched for 2 rounds of %d on 6 slots, want 1..6", n, samples)
	}
}

func TestLoopbackNamedRegistrySeparateRegistries(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	spec, body := SyntheticSpec(6)
	runIt := func(opts core.Options) string {
		tuner := core.New(opts)
		var dump string
		err := tuner.Run(func(p *core.P) error {
			p.Expose(SyntheticServiceKey, 100)
			res, err := p.Region(spec, body)
			if err != nil {
				return err
			}
			dump = dumpRegion(res)
			return nil
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return dump
	}
	local := runIt(core.Options{MaxPool: 4, Seed: 5})
	// Dispatcher and workers hold *separate* Builtins registries and no
	// shared value table — the standalone wbtune-worker configuration.
	f := newFleet(t, 2, 2, ExecutorOptions{Registry: Builtins()}, WorkerOptions{Registry: Builtins()})
	remote := runIt(core.Options{MaxPool: 4, Seed: 5, Executor: f.ex})
	if remote != local {
		t.Fatalf("named-registry run diverged:\nlocal:\n%s\nremote:\n%s", local, remote)
	}
}

func TestLoopbackOpaqueValueHandles(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	type blob struct{ A, B int }
	reg := NewRegistry()
	vt := NewValueTable()
	f := newFleet(t, 1, 2,
		ExecutorOptions{Registry: reg, Dynamic: true, Values: vt},
		WorkerOptions{Registry: reg, Values: vt})
	tuner := core.New(core.Options{MaxPool: 4, Seed: 8, Executor: f.ex})
	err := tuner.Run(func(p *core.P) error {
		res, err := p.Region(core.RegionSpec{Name: "opaque", Samples: 3}, func(sp *core.SP) error {
			k := sp.Int("k", dist.IntRange(0, 9))
			sp.Commit("blob", blob{A: k, B: k * k})
			return nil
		})
		if err != nil {
			return err
		}
		for _, g := range res.Indices("blob") {
			b := res.MustValue("blob", g).(blob)
			if b.B != b.A*b.A {
				return fmt.Errorf("sample %d: %+v", g, b)
			}
		}
		if res.Len("blob") != 3 {
			return fmt.Errorf("Len=%d", res.Len("blob"))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestWorkerDeathReassignsInFlight(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	reg := NewRegistry()
	oreg := obs.NewRegistry()
	f := newFleet(t, 2, 2, ExecutorOptions{Registry: reg, Dynamic: true, Obs: oreg}, WorkerOptions{Registry: reg})

	tuner := core.New(core.Options{
		MaxPool: 4, Seed: 13, Executor: f.ex,
		Fault: core.FaultPolicy{MaxAttempts: 4, Backoff: time.Millisecond},
	})
	// Partition worker w0 once a body has signalled that it runs: a timer
	// could fire after the round had already finished.
	inFlight := make(chan struct{})
	var signal sync.Once
	killed := make(chan struct{})
	go func() {
		<-inFlight
		f.conns[0].Close()
		close(killed)
	}()
	err := tuner.Run(func(p *core.P) error {
		res, err := p.Region(core.RegionSpec{Name: "r", Samples: 16}, func(sp *core.SP) error {
			x := sp.Float("x", dist.Uniform(0, 1))
			signal.Do(func() { close(inFlight) })
			time.Sleep(5 * time.Millisecond) // keep samples in flight across the kill
			sp.Commit("v", x)
			return nil
		})
		if err != nil {
			return err
		}
		if res.Len("v") != 16 {
			return fmt.Errorf("Len=%d, want 16", res.Len("v"))
		}
		return nil
	})
	signal.Do(func() { close(inFlight) }) // no body ran: let the killer finish
	<-killed
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The dispatcher learns of the death when its read loop sees EOF, which
	// can trail the round; the failure counter is the last thing it updates.
	failures := oreg.Counter(MetricWorkerFailures, "worker", "w0")
	for deadline := time.Now().Add(10 * time.Second); failures.Value() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := f.ex.Capacity(); got != 2 {
		t.Fatalf("Capacity=%d after one worker died, want 2", got)
	}
	if n := failures.Value(); n != 1 {
		t.Fatalf("worker failure counter = %d, want 1", n)
	}
}

func TestSnapshotShippedOncePerWorker(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	reg := NewRegistry()
	oreg := obs.NewRegistry()
	f := newFleet(t, 1, 2, ExecutorOptions{Registry: reg, Dynamic: true, Obs: oreg}, WorkerOptions{Registry: reg})
	tuner := core.New(core.Options{MaxPool: 4, Seed: 2, Executor: f.ex})
	err := tuner.Run(func(p *core.P) error {
		p.Expose("c", 3.5)
		for i := 0; i < 3; i++ {
			_, err := p.Region(core.RegionSpec{Name: fmt.Sprintf("r%d", i), Samples: 4},
				func(sp *core.SP) error {
					sp.Commit("v", sp.Float("x", dist.Uniform(0, 1))+sp.Load("c").(float64))
					return nil
				})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	misses := oreg.Counter(MetricSnapshotMisses, "worker", "w0").Value()
	hits := oreg.Counter(MetricSnapshotHits, "worker", "w0").Value()
	if misses != 1 {
		t.Fatalf("snapshot misses = %d, want 1 (one ship per content hash)", misses)
	}
	if hits < 2 {
		t.Fatalf("snapshot hits = %d, want >= 2", hits)
	}
	if n := oreg.Counter(MetricBytes, "worker", "w0", "dir", "out").Value(); n == 0 {
		t.Fatal("no outbound bytes counted")
	}
	if n := oreg.Counter(MetricBytes, "worker", "w0", "dir", "in").Value(); n == 0 {
		t.Fatal("no inbound bytes counted")
	}
}

func TestDrainDeregistersAndFinishesInFlight(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	reg := NewRegistry()
	f := newFleet(t, 1, 2, ExecutorOptions{Registry: reg, Dynamic: true}, WorkerOptions{Registry: reg})
	tuner := core.New(core.Options{MaxPool: 4, Seed: 4, Executor: f.ex})
	err := tuner.Run(func(p *core.P) error {
		res, err := p.Region(core.RegionSpec{Name: "pre", Samples: 4}, func(sp *core.SP) error {
			sp.Commit("v", sp.Float("x", dist.Uniform(0, 1)))
			return nil
		})
		if err != nil {
			return err
		}
		if res.Len("v") != 4 {
			return fmt.Errorf("Len=%d", res.Len("v"))
		}

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := f.workers[0].Drain(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		// The drain announcement deregisters the worker at the dispatcher.
		deadline := time.Now().Add(2 * time.Second)
		for f.ex.Capacity() != 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("capacity still %d after drain", f.ex.Capacity())
			}
			time.Sleep(time.Millisecond)
		}

		// With the fleet gone, the next region falls back to in-process.
		res, err = p.Region(core.RegionSpec{Name: "post", Samples: 4}, func(sp *core.SP) error {
			sp.Commit("v", sp.Float("x", dist.Uniform(0, 1)))
			return nil
		})
		if err != nil {
			return err
		}
		if res.Len("v") != 4 {
			return fmt.Errorf("post-drain Len=%d", res.Len("v"))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestDrainWaitsForInFlightSamples(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	reg := NewRegistry()
	reg.Register("slow", core.RegionSpec{Name: "slow", Samples: 2}, func(sp *core.SP) error {
		time.Sleep(50 * time.Millisecond)
		sp.Commit("v", sp.Float("x", dist.Uniform(0, 1)))
		return nil
	})
	f := newFleet(t, 1, 2, ExecutorOptions{Registry: reg}, WorkerOptions{Registry: reg})

	tuner := core.New(core.Options{MaxPool: 4, Seed: 6, Executor: f.ex,
		Fault: core.FaultPolicy{MaxAttempts: 3}})
	spec, _ := reg.Named("slow")
	done := make(chan error, 1)
	go func() {
		done <- tuner.Run(func(p *core.P) error {
			res, err := p.Region(spec.Spec, spec.Body)
			if err != nil {
				return err
			}
			if res.Len("v") != 2 {
				return fmt.Errorf("Len=%d", res.Len("v"))
			}
			return nil
		})
	}()
	time.Sleep(20 * time.Millisecond) // let samples land on the worker
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.workers[0].Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestExecutorNoWorkersUnsupported(t *testing.T) {
	ex := NewExecutor(ExecutorOptions{Registry: NewRegistry(), Dynamic: true})
	defer ex.Close()
	_, err := ex.BeginRound(core.RoundTask{Region: "r", N: 1})
	if !errors.Is(err, core.ErrExecUnsupported) {
		t.Fatalf("BeginRound with no workers: %v, want ErrExecUnsupported", err)
	}
	if c := ex.Capacity(); c != 0 {
		t.Fatalf("Capacity=%d, want 0", c)
	}
}

func TestServeOverTCP(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	w := NewWorker(WorkerOptions{Registry: Builtins(), Slots: 2, Name: "tcp-w"})
	serveDone := make(chan error, 1)
	go func() { serveDone <- w.Serve(ln) }()

	ex := NewExecutor(ExecutorOptions{Registry: Builtins()})
	if err := ex.Dial(ln.Addr().String()); err != nil {
		t.Fatalf("Dial: %v", err)
	}
	spec, body := SyntheticSpec(4)
	tuner := core.New(core.Options{MaxPool: 4, Seed: 3, Executor: ex})
	err = tuner.Run(func(p *core.P) error {
		p.Expose(SyntheticServiceKey, 0)
		res, err := p.Region(spec, body)
		if err != nil {
			return err
		}
		if res.Len("f") != 4 {
			return fmt.Errorf("Len=%d", res.Len("f"))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	ex.Close()
}

func TestCodecRoundTrips(t *testing.T) {
	hello := helloMsg{Version: protocolVersion, Name: "w", Slots: 3}
	hb := encodeHello(hello)
	if hb[0] != mHello {
		t.Fatalf("hello type byte %d", hb[0])
	}
	gotH, err := decodeHello(hb[1:])
	if err != nil || gotH != hello {
		t.Fatalf("hello round trip: %+v, %v", gotH, err)
	}

	rm := roundMsg{
		ID: 7, Region: "reg", Dyn: 9, Seed: -12345, Round: 2, N: 64, SnapHash: 0xdeadbeef,
		Feedback: []strategy.Feedback{{Score: 1.5, Params: map[string]float64{"a": 1, "b": 2}}},
	}
	rb := encodeRound(rm)
	gotR, err := decodeRound(rb[1:])
	if err != nil || !reflect.DeepEqual(gotR, rm) {
		t.Fatalf("round trip: %+v, %v", gotR, err)
	}

	tm := taskMsg{ID: 11, Round: 7, Group: 5, Attempt: 2}
	tb := encodeTask(tm)
	gotT, err := decodeTask(tb[1:])
	if err != nil || gotT != tm {
		t.Fatalf("task round trip: %+v, %v", gotT, err)
	}

	batch := []resultMsg{
		{ID: 1, Res: core.ExecResult{
			Params:  []core.ParamKV{{Name: "x", Value: 0.5}},
			Commits: []core.CommitKV{{Name: "y", Value: 1.25}, {Name: "s", Value: "hi"}, {Name: "vec", Value: []float64{1, 2}}, {Name: "n", Value: nil}, {Name: "m", Value: [][]float64{{1}, {2, 3}}}, {Name: "i", Value: 42}, {Name: "is", Value: []int{-1, 7}}, {Name: "bs", Value: []byte{9}}, {Name: "b", Value: true}},
			Scored:  true, Score: 3.5, WorkMilli: 1024,
		}},
		{ID: 2, Res: core.ExecResult{Pruned: true}},
		{ID: 3, Res: core.ExecResult{Err: "boom", Retryable: true}},
		{ID: 4, Res: core.ExecResult{Unsupported: true}},
		{ID: 5, Res: core.ExecResult{Panicked: true, Err: "panic: x"}},
	}
	bb, err := encodeResults(batch, nil)
	if err != nil {
		t.Fatalf("encodeResults: %v", err)
	}
	got, err := decodeResults(bb[1:], nil, nil)
	if err != nil || !reflect.DeepEqual(got, batch) {
		t.Fatalf("results round trip:\n got %+v\nwant %+v\nerr %v", got, batch, err)
	}
}

func TestCodecOpaqueValueNeedsTable(t *testing.T) {
	type opaque struct{ X int }
	_, err := encodeResults([]resultMsg{{ID: 1, Res: core.ExecResult{
		Commits: []core.CommitKV{{Name: "o", Value: opaque{1}}},
	}}}, nil)
	if !errors.Is(err, errNoValueTable) {
		t.Fatalf("err=%v, want errNoValueTable", err)
	}
	vt := NewValueTable()
	b, err := encodeResults([]resultMsg{{ID: 1, Res: core.ExecResult{
		Commits: []core.CommitKV{{Name: "o", Value: opaque{7}}},
	}}}, vt)
	if err != nil {
		t.Fatalf("encode with table: %v", err)
	}
	got, err := decodeResults(b[1:], vt, nil)
	if err != nil {
		t.Fatalf("decode with table: %v", err)
	}
	if v := got[0].Res.Commits[0].Value.(opaque); v.X != 7 {
		t.Fatalf("opaque value: %+v", v)
	}
}

// TestCodecBytesLengthPastPayload: a []byte value whose length is one past
// the bytes the payload carries is a malformed message, not a slice out of
// range on the dispatcher's (results) or a worker's (snapshot) read loop.
func TestCodecBytesLengthPastPayload(t *testing.T) {
	rb, err := encodeResults([]resultMsg{{ID: 1, Res: core.ExecResult{
		Commits: []core.CommitKV{{Name: "b", Value: []byte{0xaa, 0xbb}}},
	}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb[len(rb)-3]++ // the value is last: tag, length 2 -> 3, 0xaa, 0xbb
	if _, err := decodeResults(rb[1:], nil, nil); !errors.Is(err, errCodec) {
		t.Fatalf("results with overlong []byte: %v, want errCodec", err)
	}

	e := store.NewExposed()
	e.Set("global", "b", []byte{0xaa, 0xbb})
	sb, _, err := encodeSnapshot(1, e, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb[len(sb)-4]++ // the entry is last: tag, length 2 -> 3, 0xaa, 0xbb, then no deletions
	w := NewWorker(WorkerOptions{Registry: Builtins()})
	if cause, err := applyFrame(w, sb); !errors.Is(err, errCodec) || cause != 0 {
		t.Fatalf("snapshot with overlong []byte: nack cause %d, err %v, want errCodec", cause, err)
	}

	// An entry's length prefix framing more or less than one value is
	// malformed, even in a frame that names the identity of the bytes framed.
	for _, val := range [][]byte{{vBytes, 2, 0xaa, 0xbb, 0}, {vBytes, 2, 0xaa}} {
		en := snapEntry{scope: "global", name: "b", val: val}
		frame := encodeSnapDelta(&snapDelta{
			Job: 1, NewHash: snapIdentity(entryHash(en.scope, en.name, val)), Changed: []snapEntry{en},
		})
		if cause, err := applyFrame(w, frame); !errors.Is(err, errCodec) || cause != 0 {
			t.Errorf("value % x under its length prefix: nack cause %d, err %v, want errCodec", val, cause, err)
		}
	}
}

func TestSnapshotRoundTripAndHash(t *testing.T) {
	e := store.NewExposed()
	e.Set("global", "a", 1.5)
	e.Set("global", "b", "str")
	e.Set("scope2", "a", []float64{1, 2, 3})
	b1, h1, err := encodeSnapshot(1, e, nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Same content, different insertion order: same bytes, same hash.
	e2 := store.NewExposed()
	e2.Set("scope2", "a", []float64{1, 2, 3})
	e2.Set("global", "b", "str")
	e2.Set("global", "a", 1.5)
	b2, h2, err := encodeSnapshot(1, e2, nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if h1 != h2 || string(b1) != string(b2) {
		t.Fatalf("snapshot encoding not canonical: %x vs %x", h1, h2)
	}
	e2.Set("global", "a", 2.5)
	_, h3, err := encodeSnapshot(1, e2, nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if h3 == h1 {
		t.Fatal("hash unchanged after content change")
	}
	dec, err := installFull(b1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapIdentity(dec.sum); got != h1 {
		t.Fatalf("decode recomputed identity %#x, want %#x", got, h1)
	}
	if got := dec.e.MustGet("global", "a").(float64); got != 1.5 {
		t.Fatalf("a=%v", got)
	}
	if got := dec.e.MustGet("scope2", "a").([]float64); !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Fatalf("scope2/a=%v", got)
	}
}

func TestFrameLimitsAndTruncation(t *testing.T) {
	if err := writeFrame(discard{}, make([]byte, maxFrame+1)); !errors.Is(err, errFrameTooBig) {
		t.Fatalf("oversized write: %v", err)
	}
	// Hostile length prefix.
	var hdr [4]byte
	hdr[0] = 0xff
	if _, err := readFrame(bytes.NewReader(append(hdr[:], 1, 2, 3)), nil); !errors.Is(err, errFrameTooBig) {
		t.Fatalf("hostile length: %v", err)
	}
	// Truncated payload.
	b := []byte{0, 0, 0, 10, 1, 2, 3}
	if _, err := readFrame(bytes.NewReader(b), nil); err == nil {
		t.Fatal("truncated frame decoded")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
