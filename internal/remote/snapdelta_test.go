package remote

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/strategy"
	"repro/internal/wire"
)

// encodeSnapshot returns the full ship of e's contents as job's snapshot —
// its from-empty frame — and identity through the dispatcher's own path:
// entries encoded once, then materialised.
func encodeSnapshot(job uint64, e *store.Exposed, vt *ValueTable) ([]byte, uint64, error) {
	v, err := newSnapVersion(job, e, vt)
	if err != nil {
		return nil, 0, err
	}
	return v.encoded(), v.hash, nil
}

// applyFrame runs one encoded snapshot frame through w's install path, as
// its read loop does.
func applyFrame(w *Worker, frame []byte) (nackCause byte, err error) {
	if len(frame) == 0 || frame[0] != mSnapDelta {
		return 0, errCodec
	}
	d, err := decodeSnapDelta(frame[1:])
	if err != nil {
		return 0, err
	}
	return w.applyDelta(&d)
}

// installFull runs a full ship through a fresh worker's install path and
// returns the snapshot it installed.
func installFull(frame []byte, vt *ValueTable) (*cachedSnap, error) {
	w := NewWorker(WorkerOptions{Registry: Builtins(), Values: vt})
	if cause, err := applyFrame(w, frame); err != nil || cause != 0 {
		return nil, fmt.Errorf("full ship refused: nack cause %d, err %v", cause, err)
	}
	d, _ := decodeSnapDelta(frame[1:])
	s, _ := w.snapshot(d.Job, d.NewHash)
	return s, nil
}

// buildDelta constructs a delta from base's store version to e's current
// contents the way the dispatcher does, for codec-level tests.
func buildDelta(t *testing.T, e *store.Exposed, sinceVer, baseHash uint64, vt *ValueTable) *snapDelta {
	t.Helper()
	changed, deleted := e.ChangedSince(sinceVer)
	var scratch wire.Writer
	d := &snapDelta{Job: 7, BaseHash: baseHash}
	for _, c := range changed {
		en, err := encodeEntry(&scratch, c.Scope, c.Name, c.V, vt)
		if err != nil {
			t.Fatalf("encodeEntry: %v", err)
		}
		d.Changed = append(d.Changed, en)
	}
	for _, dk := range deleted {
		d.Deleted = append(d.Deleted, delKey{scope: dk.Scope, name: dk.Name})
	}
	return d
}

// TestSnapDeltaPatchRoundtrip drives the full codec cycle: encode a base
// snapshot, mutate the store (set, overwrite, delete), build and serialize a
// delta, decode it, and apply it both ways — the reference byte patch and the
// worker's entry splice — demanding exactly the mutated store's contents from
// each, under the identity a fresh encode of the mutated store has.
func TestSnapDeltaPatchRoundtrip(t *testing.T) {
	e := store.NewExposed()
	e.Set("g", "alpha", 1.5)
	e.Set("g", "beta", "blue")
	e.Set("g", "gone", []float64{1, 2, 3})
	baseData, baseHash, err := encodeSnapshot(7, e, nil)
	if err != nil {
		t.Fatalf("encodeSnapshot: %v", err)
	}
	baseVer := e.Version()

	e.Set("g", "alpha", 2.5)         // overwrite
	e.Set("a", "new", []int{4, 5})   // new key in a scope sorting first
	e.Delete("g", "gone")            // delete
	e.Set("z", "tail", []byte{9, 8}) // new key sorting last
	d := buildDelta(t, e, baseVer, baseHash, nil)
	wantData, wantHash, err := encodeSnapshot(7, e, nil)
	if err != nil {
		t.Fatalf("encodeSnapshot(mutated): %v", err)
	}
	d.NewHash = wantHash

	frame := encodeSnapDelta(d)
	if frame[0] != mSnapDelta {
		t.Fatalf("frame type = %d, want mSnapDelta", frame[0])
	}
	dec, err := decodeSnapDelta(frame[1:])
	if err != nil {
		t.Fatalf("decodeSnapDelta: %v", err)
	}
	if dec.Job != d.Job || dec.BaseHash != baseHash {
		t.Fatalf("decoded header = %+v", dec)
	}
	patched, err := oraclePatch(baseData, &dec)
	if err != nil {
		t.Fatalf("oraclePatch: %v", err)
	}
	if !bytes.Equal(patched, wantData) {
		t.Fatal("patched base is not the mutated store's encoding")
	}

	w := NewWorker(WorkerOptions{Registry: Builtins()})
	if cause, err := applyFrame(w, baseData); err != nil || cause != 0 {
		t.Fatalf("full ship of base: nack cause %d, err %v", cause, err)
	}
	if cause, err := w.applyDelta(&dec); err != nil || cause != 0 {
		t.Fatalf("applyDelta: nack cause %d, err %v", cause, err)
	}
	got, ok := w.snapshot(d.Job, wantHash)
	if !ok {
		t.Fatal("applied delta was not installed under the new identity")
	}
	if want, have := e.Entries(), got.e.Entries(); !reflect.DeepEqual(want, have) {
		t.Fatalf("spliced entries = %v, want %v", have, want)
	}
}

// TestSnapshotForDeltaCache exercises the dispatcher cache: version
// transitions splice rather than re-encode, retained bases get deltas
// targeting the current version, and patching a base's full ship with its
// cached delta reproduces the current version's full ship byte-for-byte.
func TestSnapshotForDeltaCache(t *testing.T) {
	ex := NewExecutor(ExecutorOptions{Registry: Builtins()})
	defer ex.Close()
	e := store.NewExposed()
	e.Set("g", "blob", make([]float64, 4096))
	e.Set("g", "knob", 1.0)

	v1, err := ex.snapshotFor(3, e)
	if err != nil {
		t.Fatalf("snapshotFor(1): %v", err)
	}
	e.Set("g", "knob", 2.0)
	v2, err := ex.snapshotFor(3, e)
	if err != nil {
		t.Fatalf("snapshotFor(2): %v", err)
	}
	if v1.hash == v2.hash {
		t.Fatal("version transition did not change the identity")
	}
	if &v1.ents[0].val[0] != &v2.ents[0].val[0] {
		t.Fatal("successive versions do not share the unchanged blob's encoded bytes")
	}
	s := ex.snaps[3]
	if s.cur != v2 || len(s.bases) != 1 || s.bases[0].hash != v1.hash {
		t.Fatalf("cache state: cur=%x, %d bases", s.cur.hash, len(s.bases))
	}
	base := s.bases[0]
	if base.delta == nil {
		t.Fatal("retained base has no cached delta")
	}
	if len(base.delta)*2 > len(v2.encoded()) {
		t.Fatalf("one-knob delta is %d bytes vs %d full — not under the ratio bound", len(base.delta), len(v2.encoded()))
	}
	dec, err := decodeSnapDelta(base.delta[1:])
	if err != nil {
		t.Fatalf("decode cached delta: %v", err)
	}
	patched, err := oraclePatch(v1.encoded(), &dec)
	if err != nil {
		t.Fatalf("apply cached delta: %v", err)
	}
	if !bytes.Equal(patched, v2.encoded()) {
		t.Fatal("cached delta does not patch base to the current encoding")
	}
	if dec.NewHash != v2.hash {
		t.Fatal("cached delta names a different identity than the current version's")
	}

	// Rewriting most of the store pushes the delta past the ratio bound:
	// the base is retained but marked ratio-failed.
	e.Set("g", "blob", make([]float64, 4100))
	v3, err := ex.snapshotFor(3, e)
	if err != nil {
		t.Fatalf("snapshotFor(3): %v", err)
	}
	if v3.hash == v2.hash || len(s.bases) != 2 || s.bases[1].hash != v2.hash {
		t.Fatal("expected a new version with v2 retained")
	}
	if b2 := s.bases[1]; !b2.ratioFail || b2.delta != nil {
		t.Fatalf("blob rewrite delta should ratio-fail, got delta=%d bytes ratioFail=%v", len(b2.delta), b2.ratioFail)
	}
}

// incrementalProgram is the reference incremental-store workload: one large
// exposed blob that never changes plus a small per-round knob that always
// does — the shape where delta shipping pays. rounds sampling rounds at a
// fixed seed; the dump is byte-comparable across executors.
func incrementalProgram(t *testing.T, opts core.Options, rounds int, between func(round int)) string {
	t.Helper()
	blob := make([]float64, 8192)
	for i := range blob {
		blob[i] = float64(i) * 0.001
	}
	tuner := core.New(opts)
	var dump string
	err := tuner.Run(func(p *core.P) error {
		p.Expose("blob", blob)
		spec := core.RegionSpec{
			Name:     "incremental",
			Samples:  8,
			Strategy: strategy.MCMC(strategy.MCMCOptions{}),
			Score:    func(sp *core.SP) float64 { return sp.MustGet("y").(float64) },
		}
		body := func(sp *core.SP) error {
			x := sp.Float("x", dist.Uniform(0, 1))
			sp.Work(0.125)
			b := sp.Load("blob").([]float64)
			k := sp.Load("knob").(float64)
			sp.Commit("y", x*k+b[int(x*1000)%len(b)])
			return nil
		}
		for round := 0; round < rounds; round++ {
			p.Expose("knob", 1.0+float64(round))
			res, err := p.Region(spec, body)
			if err != nil {
				return err
			}
			dump += fmt.Sprintf("round %d:\n%s", round, dumpRegion(res))
			if between != nil {
				between(round)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return dump
}

// TestSnapDeltaShipParity runs the incremental workload over loopback
// workers and demands (a) byte-identical results to the local run and (b)
// that each worker is shipped the full store once and deltas ever after:
// full-ship bytes within one full encoding per worker, no fallback of any
// cause, and delta bytes at least 5x below what re-shipping the store every
// version would cost.
func TestSnapDeltaShipParity(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	const rounds, workers = 16, 2
	local := incrementalProgram(t, core.Options{MaxPool: 4, Seed: 42}, rounds, nil)

	reg := NewRegistry()
	oreg := obs.NewRegistry()
	f := newFleet(t, workers, 2, ExecutorOptions{Registry: reg, Dynamic: true, Obs: oreg}, WorkerOptions{Registry: reg})
	remote := incrementalProgram(t, core.Options{MaxPool: 4, Seed: 42, Executor: f.ex}, rounds, nil)
	if remote != local {
		t.Fatalf("delta-shipped run diverged from local run:\nlocal:\n%s\nremote:\n%s", local, remote)
	}
	e := store.NewExposed()
	e.Set("global", "blob", make([]float64, 8192))
	e.Set("global", "knob", 1.0)
	one, _, err := encodeSnapshot(^uint64(0), e, nil) // the widest job id's header
	if err != nil {
		t.Fatalf("encodeSnapshot: %v", err)
	}
	fm := f.ex.fm
	fullB, deltaB := fm.snapBytesFull.Value(), fm.snapBytesDelta.Value()
	if deltaB == 0 {
		t.Fatal("no delta bytes shipped on an incremental workload")
	}
	if limit := int64(workers * len(one)); fullB == 0 || fullB > limit {
		t.Fatalf("full-ship bytes %d, want at most one %d-byte full ship per worker (%d)", fullB, len(one), limit)
	}
	// Re-shipping full at every version costs each worker rounds encodings;
	// the floor is a 5x cut in total snapshot bytes.
	if reship := int64(rounds * workers * len(one)); (fullB+deltaB)*5 > reship {
		t.Fatalf("shipped %d full + %d delta bytes, not 5x under the %d of a full re-ship per version", fullB, deltaB, reship)
	}
	noFallbacks(t, fm)
	if n := len(reg.dyn); n != 0 {
		t.Fatalf("%d dynamic registrations leaked", n)
	}
}

// TestSnapDeltaNackBaseMissing wipes a worker's snapshot cache mid-run: the
// next delta refers to a base the worker no longer holds, the worker
// refuses with nackBaseMissing, the dispatcher answers with the version's
// from-empty frame, and the run stays byte-identical.
func TestSnapDeltaNackBaseMissing(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	local := incrementalProgram(t, core.Options{MaxPool: 4, Seed: 42}, 3, nil)

	reg := NewRegistry()
	oreg := obs.NewRegistry()
	f := newFleet(t, 1, 2, ExecutorOptions{Registry: reg, Dynamic: true, Obs: oreg}, WorkerOptions{Registry: reg})
	w := f.workers[0]
	var fullAtWipe int64
	remote := incrementalProgram(t, core.Options{MaxPool: 4, Seed: 42, Executor: f.ex}, 3,
		func(round int) {
			if round != 0 {
				return
			}
			fullAtWipe = f.ex.fm.snapBytesFull.Value()
			// Simulate a worker restart's cold cache without dropping the
			// connection: forget every cached snapshot.
			w.mu.Lock()
			w.snaps = make(map[snapKey]*cachedSnap)
			w.snapOrder = make(map[uint64][]uint64)
			w.mu.Unlock()
		})
	if remote != local {
		t.Fatalf("nack-healed run diverged from local run:\nlocal:\n%s\nremote:\n%s", local, remote)
	}
	if nacks := f.ex.fm.fallbackNack.Value(); nacks == 0 {
		t.Fatal("expected at least one base-missing nack")
	}
	if full := f.ex.fm.snapBytesFull.Value(); full <= fullAtWipe {
		t.Fatalf("full-ship bytes stayed at %d after the wipe: the nack was not answered with a from-empty frame", full)
	}
}

// TestSnapDeltaNackHashMismatch corrupts the worker's cached base (a valid
// snapshot, wrong contents): the delta splices structurally but the identity
// it arrives at must expose the divergence, nack, and heal via full re-ship —
// never silently install wrong @load state.
func TestSnapDeltaNackHashMismatch(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	local := incrementalProgram(t, core.Options{MaxPool: 4, Seed: 42}, 3, nil)

	bogusStore := store.NewExposed()
	bogusStore.Set("g", "blob", []float64{666})
	bogusData, _, err := encodeSnapshot(1, bogusStore, nil)
	if err != nil {
		t.Fatalf("encodeSnapshot: %v", err)
	}
	bogus, err := installFull(bogusData, nil)
	if err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	oreg := obs.NewRegistry()
	f := newFleet(t, 1, 2, ExecutorOptions{Registry: reg, Dynamic: true, Obs: oreg}, WorkerOptions{Registry: reg})
	w := f.workers[0]
	remote := incrementalProgram(t, core.Options{MaxPool: 4, Seed: 42, Executor: f.ex}, 3,
		func(round int) {
			if round != 0 {
				return
			}
			w.mu.Lock()
			for k := range w.snaps {
				w.snaps[k] = bogus // every delta base rots
			}
			w.mu.Unlock()
		})
	if remote != local {
		t.Fatalf("hash-mismatch-healed run diverged from local run:\nlocal:\n%s\nremote:\n%s", local, remote)
	}
	if nacks := f.ex.fm.fallbackNack.Value(); nacks == 0 {
		t.Fatal("expected at least one hash-mismatch nack")
	}
}

// TestFullShipMismatchDropsConn sends a worker a full ship whose entries do
// not sum to the identity it names. Answering with a nack would bring back
// the same frame, so the worker must refuse it as malformed: it drops the
// connection, sends no mSnapNack, and installs nothing.
func TestFullShipMismatchDropsConn(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	e := store.NewExposed()
	e.Set("g", "knob", 1.5)
	v, err := newSnapVersion(3, e, nil)
	if err != nil {
		t.Fatalf("newSnapVersion: %v", err)
	}
	v.hash ^= 1
	frame := v.encoded()

	w := NewWorker(WorkerOptions{Registry: Builtins()})
	defer w.Close()
	a, b := net.Pipe()
	defer b.Close()
	served := make(chan struct{})
	go func() { w.ServeConn(a); close(served) }()
	b.SetDeadline(time.Now().Add(10 * time.Second))
	if hello, err := readFrame(b, nil); err != nil || hello[0] != mHello {
		t.Fatalf("no hello from the worker: %v", err)
	}
	if err := newMuxWriter(b).writeMsg(frame); err != nil {
		t.Fatalf("sending the full ship: %v", err)
	}
	for {
		payload, err := readFrame(b, nil)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("the worker kept the connection after a misnamed full ship")
			}
			break // dropped
		}
		if payload[0] == mSnapNack {
			t.Fatal("the worker nacked a full ship")
		}
	}
	<-served
	if _, ok := w.snapshot(3, v.hash); ok {
		t.Fatal("a misnamed full ship was installed")
	}
}

// TestSnapshotVersionNegotiation checks the handshake: a hello with the one
// protocol version joins, any other is refused with the mismatch error, and
// the refused worker's ServeConn returns once the dispatcher hangs up.
func TestSnapshotVersionNegotiation(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	for _, tc := range []struct {
		version uint64
		ok      bool
	}{{5, false}, {6, true}, {7, false}} {
		ex := NewExecutor(ExecutorOptions{Registry: Builtins()})
		w := NewWorker(WorkerOptions{Registry: Builtins()})
		// A real worker behind a relay that restates its hello's version.
		wa, wb := net.Pipe()
		a, b := net.Pipe()
		served := make(chan struct{})
		go func() { w.ServeConn(wa); close(served) }()
		go func() {
			defer wb.Close()
			payload, err := readFrame(wb, nil)
			if err != nil || len(payload) == 0 || payload[0] != mHello {
				t.Errorf("relay: no hello from the worker: %v", err)
				a.Close()
				return
			}
			hello, _ := decodeHello(payload[1:])
			hello.Version = tc.version
			newMuxWriter(a).writeMsg(encodeHello(hello))
			readFrame(a, nil) // until the dispatcher hangs up
		}()
		err := ex.AddConn(b)
		if tc.ok && err != nil {
			t.Errorf("version %d rejected: %v", tc.version, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "protocol version mismatch")) {
			t.Errorf("version %d: AddConn = %v, want the version-mismatch refusal", tc.version, err)
		}
		ex.Close()
		b.Close()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatalf("version %d: worker's ServeConn still running after the dispatcher hung up", tc.version)
		}
		w.Close()
		a.Close()
	}
}

// sentCounts reports, per worker of ex, how many snapshot versions the
// dispatcher's sent index holds.
func sentCounts(ex *NetExecutor) (sent []int) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	for _, w := range ex.workers {
		n := 0
		for _, vs := range w.sent {
			n += len(vs)
		}
		sent = append(sent, n)
	}
	return sent
}

// TestSnapCacheEviction runs more versions than the dispatcher retains: old
// bases must be evicted (counted by the eviction metric), parity holds
// throughout, and the per-worker sent index — which used to gain a key per
// version until EndJob, with every ship ranging over all of them — stays
// within the worker's cache size however many rounds the job runs.
func TestSnapCacheEviction(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	const rounds = 200
	local := incrementalProgram(t, core.Options{MaxPool: 4, Seed: 42}, rounds, nil)

	reg := NewRegistry()
	oreg := obs.NewRegistry()
	f := newFleet(t, 2, 2, ExecutorOptions{Registry: reg, Dynamic: true, Obs: oreg}, WorkerOptions{Registry: reg})
	remote := incrementalProgram(t, core.Options{MaxPool: 4, Seed: 42, Executor: f.ex}, rounds,
		func(round int) {
			if round != rounds-1 {
				return // the job is still open: EndJob has not cleared anything
			}
			for i, sent := range sentCounts(f.ex) {
				if sent > snapCacheCap {
					t.Errorf("worker %d: %d sent versions indexed after %d versions, want <= %d",
						i, sent, rounds, snapCacheCap)
				}
			}
		})
	if remote != local {
		t.Fatalf("evicting run diverged from local run:\nlocal:\n%s\nremote:\n%s", local, remote)
	}
	if ev := f.ex.fm.snapEvictions.Value(); ev != rounds-1-maxSnapVersions {
		t.Fatalf("%d versions produced %d evictions, want %d", rounds, ev, rounds-1-maxSnapVersions)
	}
}

// TestSnapEvictedBaseFallback starves a worker of a job's versions until the
// only one it was ever sent has left the dispatcher cache: the next ship
// finds no delta to send, counts a base fallback (the worker is stale, not
// cold) and heals with a full ship.
func TestSnapEvictedBaseFallback(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	reg := NewRegistry()
	oreg := obs.NewRegistry()
	f := newFleet(t, 1, 1, ExecutorOptions{Registry: reg, Dynamic: true, Obs: oreg}, WorkerOptions{Registry: reg})
	const job = 5
	e := store.NewExposed()
	e.Set("g", "blob", make([]float64, 1024))
	e.Set("g", "knob", 0.0)
	if err := f.ex.PrimeSnapshot(job, e); err != nil {
		t.Fatalf("PrimeSnapshot(cold): %v", err)
	}
	for i := 1; i <= maxSnapVersions+1; i++ {
		e.Set("g", "knob", float64(i))
		if _, err := f.ex.snapshotFor(job, e); err != nil {
			t.Fatalf("snapshotFor(%d): %v", i, err)
		}
	}
	f.ex.mu.Lock()
	holder := f.ex.workers[0].holds(&roundState{job: job, snap: f.ex.snaps[job].cur})
	f.ex.mu.Unlock()
	if holder {
		t.Fatal("a worker whose only version left the dispatcher cache still counts as a holder")
	}
	if err := f.ex.PrimeSnapshot(job, e); err != nil {
		t.Fatalf("PrimeSnapshot(stale): %v", err)
	}
	cur := f.ex.snaps[job].cur
	got, ok := f.workers[0].awaitSnapshot(&wconn{closed: make(chan struct{})}, job, cur.hash)
	if !ok {
		t.Fatal("full re-ship never landed on the worker")
	}
	// The connection's writer decides a ship, and counts it, before it sends it.
	if n := f.ex.fm.fallbackBase.Value(); n != 1 {
		t.Fatalf("base fallbacks = %d, want 1", n)
	}
	if d := f.ex.fm.snapBytesDelta.Value(); d != 0 {
		t.Fatalf("%d delta bytes shipped with no base to patch", d)
	}
	if want, have := e.Entries(), got.Entries(); !reflect.DeepEqual(want, have) {
		t.Fatalf("healed worker holds %v, want %v", have, want)
	}
	f.ex.EndJob(job)
}

// TestSnapshotMetricsExposition checks the delta-shipping metric families reach the
// Prometheus exposition with their expected names and labels after real
// delta traffic.
func TestSnapshotMetricsExposition(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	reg := NewRegistry()
	oreg := obs.NewRegistry()
	f := newFleet(t, 1, 2, ExecutorOptions{Registry: reg, Dynamic: true, Obs: oreg}, WorkerOptions{Registry: reg})
	incrementalProgram(t, core.Options{MaxPool: 4, Seed: 42, Executor: f.ex}, 3, nil)

	var buf bytes.Buffer
	if err := oreg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		MetricSnapshotBytes + `{mode="delta"}`,
		MetricSnapshotBytes + `{mode="full"}`,
		MetricSnapDeltaFallback + `{cause="base"}`,
		MetricSnapDeltaFallback + `{cause="ratio"}`,
		MetricSnapDeltaFallback + `{cause="nack"}`,
		MetricSnapCacheEvictions,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("exposition is missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, MetricSnapDeltaFallback+"{"); n != 3 {
		t.Errorf("%d fallback causes exposed, want exactly base, ratio, nack:\n%s", n, out)
	}
}
