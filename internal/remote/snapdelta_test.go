package remote

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/strategy"
	"repro/internal/wire"
)

// buildDelta constructs a delta from base's store version to e's current
// contents the way the dispatcher does, for codec-level tests.
func buildDelta(t *testing.T, e *store.Exposed, sinceVer, baseHash uint64, vt *ValueTable) *snapDelta {
	t.Helper()
	changed, deleted := e.ChangedSince(sinceVer)
	vw := &wire.Writer{}
	d := &snapDelta{Job: 7, BaseHash: baseHash}
	for _, c := range changed {
		start := len(vw.B)
		if err := appendValue(vw, c.V, vt); err != nil {
			t.Fatalf("appendValue: %v", err)
		}
		d.Changed = append(d.Changed, encEntry{scope: c.Scope, name: c.Name, val: vw.B[start:]})
	}
	for _, dk := range deleted {
		d.Deleted = append(d.Deleted, delKey{scope: dk.Scope, name: dk.Name})
	}
	return d
}

// TestSnapDeltaPatchRoundtrip drives the full codec cycle: encode a base
// snapshot, mutate the store (set, overwrite, delete), build and serialize a
// delta, decode it, patch the base, and demand the patched bytes decode to
// exactly the mutated store's contents with a matching content hash.
func TestSnapDeltaPatchRoundtrip(t *testing.T) {
	e := store.NewExposed()
	e.Set("g", "alpha", 1.5)
	e.Set("g", "beta", "blue")
	e.Set("g", "gone", []float64{1, 2, 3})
	baseData, baseHash, err := encodeSnapshot(e, nil)
	if err != nil {
		t.Fatalf("encodeSnapshot: %v", err)
	}
	baseVer := e.Version()

	e.Set("g", "alpha", 2.5)         // overwrite
	e.Set("a", "new", []int{4, 5})   // new key in a scope sorting first
	e.Delete("g", "gone")            // delete
	e.Set("z", "tail", []byte{9, 8}) // new key sorting last
	d := buildDelta(t, e, baseVer, baseHash, nil)

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
	patched, err := applySnapDelta(baseData, &dec)
	if err != nil {
		t.Fatalf("applySnapDelta: %v", err)
	}
	got, err := decodeSnapshot(patched, nil)
	if err != nil {
		t.Fatalf("decodeSnapshot(patched): %v", err)
	}
	if want, have := e.Entries(), got.Entries(); !reflect.DeepEqual(want, have) {
		t.Fatalf("patched entries = %v, want %v", have, want)
	}
	// The patch must agree with what the dispatcher computes: patching the
	// same base with the same delta twice is byte-identical.
	patched2, err := applySnapDelta(baseData, &dec)
	if err != nil {
		t.Fatalf("applySnapDelta(2): %v", err)
	}
	if !bytes.Equal(patched, patched2) {
		t.Fatal("applySnapDelta is not deterministic")
	}
	if wire.FNV1a(patched) != wire.FNV1a(patched2) {
		t.Fatal("hash mismatch between identical patches")
	}
}

// TestSnapshotForDeltaCache exercises the dispatcher cache: version
// transitions patch rather than re-encode, retained bases get deltas
// targeting the current version, and applying a cached delta to its base
// reproduces the current encoding byte-for-byte.
func TestSnapshotForDeltaCache(t *testing.T) {
	ex := NewExecutor(ExecutorOptions{Registry: Builtins()})
	defer ex.Close()
	e := store.NewExposed()
	e.Set("g", "blob", make([]float64, 4096))
	e.Set("g", "knob", 1.0)

	d1, h1, err := ex.snapshotFor(3, e)
	if err != nil {
		t.Fatalf("snapshotFor(1): %v", err)
	}
	e.Set("g", "knob", 2.0)
	d2, h2, err := ex.snapshotFor(3, e)
	if err != nil {
		t.Fatalf("snapshotFor(2): %v", err)
	}
	if h1 == h2 {
		t.Fatal("version transition did not change the content hash")
	}
	ex.snapMu.Lock()
	s := ex.snaps[3]
	base := s.byHash[h1]
	ex.snapMu.Unlock()
	if s.cur.hash != h2 || base == nil {
		t.Fatalf("cache state: cur=%x retained h1=%v", s.cur.hash, base != nil)
	}
	if base.delta == nil {
		t.Fatal("retained base has no cached delta")
	}
	if len(base.delta)*2 > len(d2) {
		t.Fatalf("one-knob delta is %d bytes vs %d full — not under the ratio bound", len(base.delta), len(d2))
	}
	dec, err := decodeSnapDelta(base.delta[1:])
	if err != nil {
		t.Fatalf("decode cached delta: %v", err)
	}
	patched, err := applySnapDelta(d1, &dec)
	if err != nil {
		t.Fatalf("apply cached delta: %v", err)
	}
	if !bytes.Equal(patched, d2) {
		t.Fatal("cached delta does not patch base to the current encoding")
	}
	if wire.FNV1a(patched) != h2 {
		t.Fatal("patched hash diverges from current hash")
	}

	// Rewriting most of the store pushes the delta past the ratio bound:
	// the base is retained but marked ratio-failed.
	e.Set("g", "blob", make([]float64, 4100))
	_, h3, err := ex.snapshotFor(3, e)
	if err != nil {
		t.Fatalf("snapshotFor(3): %v", err)
	}
	ex.snapMu.Lock()
	b2 := ex.snaps[3].byHash[h2]
	ex.snapMu.Unlock()
	if h3 == h2 || b2 == nil {
		t.Fatal("expected a new version with h2 retained")
	}
	if !b2.ratioFail || b2.delta != nil {
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
// that rounds after the first actually shipped deltas, cutting snapshot
// bytes well below full re-ships.
func TestSnapDeltaShipParity(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	local := incrementalProgram(t, core.Options{MaxPool: 4, Seed: 42}, 4, nil)

	reg := NewRegistry()
	oreg := obs.NewRegistry()
	f := newFleet(t, 2, 2, ExecutorOptions{Registry: reg, Dynamic: true, Obs: oreg}, WorkerOptions{Registry: reg})
	remote := incrementalProgram(t, core.Options{MaxPool: 4, Seed: 42, Executor: f.ex}, 4, nil)
	if remote != local {
		t.Fatalf("delta-shipped run diverged from local run:\nlocal:\n%s\nremote:\n%s", local, remote)
	}
	fullB := f.ex.fm.snapBytesFull.Value()
	deltaB := f.ex.fm.snapBytesDelta.Value()
	if deltaB == 0 {
		t.Fatal("no delta bytes shipped on an incremental workload")
	}
	// 2 workers x 1 initial full ship, then deltas; each delta is tiny next
	// to the 8k-float blob, so delta bytes must be a small fraction of full.
	if deltaB*5 > fullB {
		t.Fatalf("delta bytes %d not well under full bytes %d", deltaB, fullB)
	}
	if nacks := f.ex.fm.fallbackNack.Value(); nacks != 0 {
		t.Fatalf("healthy run produced %d nacks", nacks)
	}
}

// TestSnapDeltaNackBaseMissing wipes a worker's snapshot cache mid-run: the
// next delta refers to a base the worker no longer holds, the worker
// refuses with nackBaseMissing, the dispatcher re-ships full, and the run
// stays byte-identical.
func TestSnapDeltaNackBaseMissing(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	local := incrementalProgram(t, core.Options{MaxPool: 4, Seed: 42}, 3, nil)

	reg := NewRegistry()
	oreg := obs.NewRegistry()
	f := newFleet(t, 1, 2, ExecutorOptions{Registry: reg, Dynamic: true, Obs: oreg}, WorkerOptions{Registry: reg})
	w := f.workers[0]
	remote := incrementalProgram(t, core.Options{MaxPool: 4, Seed: 42, Executor: f.ex}, 3,
		func(round int) {
			if round != 0 {
				return
			}
			// Simulate a worker restart's cold cache without dropping the
			// connection: forget every decoded snapshot and patch base.
			w.mu.Lock()
			w.snaps = make(map[snapKey]*store.Exposed)
			w.snapData = make(map[snapKey][]byte)
			w.snapOrder = make(map[uint64][]uint64)
			w.mu.Unlock()
		})
	if remote != local {
		t.Fatalf("nack-healed run diverged from local run:\nlocal:\n%s\nremote:\n%s", local, remote)
	}
	if nacks := f.ex.fm.fallbackNack.Value(); nacks == 0 {
		t.Fatal("expected at least one base-missing nack")
	}
}

// TestSnapDeltaNackHashMismatch corrupts the worker's cached base (valid
// encoding, wrong contents): the patch applies structurally but the
// post-patch hash must catch the divergence, nack, and heal via full
// re-ship — never silently install wrong @load state.
func TestSnapDeltaNackHashMismatch(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	local := incrementalProgram(t, core.Options{MaxPool: 4, Seed: 42}, 3, nil)

	bogus := store.NewExposed()
	bogus.Set("g", "blob", []float64{666})
	bogusData, _, err := encodeSnapshot(bogus, nil)
	if err != nil {
		t.Fatalf("encodeSnapshot: %v", err)
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
			for k := range w.snapData {
				w.snapData[k] = bogusData // decoded snaps stay; only patch bases rot
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

// TestSnapDeltaV3Fallback pins a worker to protocol v3: it must join, run
// byte-identically, and never be sent a delta — every post-change ship falls
// back to full with cause=version.
func TestSnapDeltaV3Fallback(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	local := incrementalProgram(t, core.Options{MaxPool: 4, Seed: 42}, 3, nil)

	reg := NewRegistry()
	oreg := obs.NewRegistry()
	f := newFleet(t, 1, 2, ExecutorOptions{Registry: reg, Dynamic: true, Obs: oreg},
		WorkerOptions{Registry: reg, Protocol: 3})
	remote := incrementalProgram(t, core.Options{MaxPool: 4, Seed: 42, Executor: f.ex}, 3, nil)
	if remote != local {
		t.Fatalf("v3 run diverged from local run:\nlocal:\n%s\nremote:\n%s", local, remote)
	}
	if d := f.ex.fm.snapBytesDelta.Value(); d != 0 {
		t.Fatalf("v3 worker was shipped %d delta bytes", d)
	}
	if v := f.ex.fm.fallbackVer.Value(); v == 0 {
		t.Fatal("expected version-cause fallbacks for the v3 worker")
	}
}

// TestSnapshotVersionNegotiation checks the handshake range: v3 and v4
// workers join, anything outside is rejected.
func TestSnapshotVersionNegotiation(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	for _, tc := range []struct {
		version uint64
		ok      bool
	}{{2, false}, {3, true}, {4, true}, {5, false}} {
		ex := NewExecutor(ExecutorOptions{Registry: Builtins()})
		a, b := net.Pipe()
		go func() {
			wr := newMuxWriter(a)
			wr.writeMsg(encodeHello(helloMsg{Version: tc.version, Name: "nego", Slots: 1}))
			// Keep the pipe open long enough for addConn to finish.
			readFrame(a, nil)
		}()
		err := ex.AddConn(b)
		if tc.ok && err != nil {
			t.Errorf("version %d rejected: %v", tc.version, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("version %d accepted", tc.version)
		}
		ex.Close()
		a.Close()
		b.Close()
	}
}

// TestSnapCacheEviction bounds the dispatcher cache tightly enough that
// retaining every version is impossible: old bases must be evicted (counted
// by the eviction metric), later ships fall back gracefully, and parity
// holds throughout.
func TestSnapCacheEviction(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	const rounds = 5
	local := incrementalProgram(t, core.Options{MaxPool: 4, Seed: 42}, rounds, nil)

	reg := NewRegistry()
	oreg := obs.NewRegistry()
	// The blob encodes to ~64KiB; a 100KiB cap holds the current version and
	// at most one base.
	f := newFleet(t, 2, 2, ExecutorOptions{Registry: reg, Dynamic: true, Obs: oreg, SnapCacheBytes: 100 << 10},
		WorkerOptions{Registry: reg})
	remote := incrementalProgram(t, core.Options{MaxPool: 4, Seed: 42, Executor: f.ex}, rounds, nil)
	if remote != local {
		t.Fatalf("evicting run diverged from local run:\nlocal:\n%s\nremote:\n%s", local, remote)
	}
	if ev := f.ex.fm.snapEvictions.Value(); ev == 0 {
		t.Fatal("tight byte cap produced no evictions")
	}
}

// TestSnapshotMetricsExposition checks the v4 metric families reach the
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
		MetricSnapDeltaFallback + `{cause="version"}`,
		MetricSnapDeltaFallback + `{cause="base"}`,
		MetricSnapDeltaFallback + `{cause="ratio"}`,
		MetricSnapDeltaFallback + `{cause="nack"}`,
		MetricSnapCacheEvictions,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("exposition is missing %q:\n%s", want, out)
		}
	}
}
