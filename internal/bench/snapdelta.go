package bench

import (
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/strategy"
)

// Incremental-store snapshot benchmark: a tuning program exposes one large
// blob once and re-exposes one small knob every round — the shape where
// delta snapshot shipping pays. The same workload runs twice: against current
// workers (full ship once per worker, key-level deltas after) and against
// workers pinned to protocol v3 (full re-ship every version). Both runs, and
// an in-process reference run, must produce byte-identical dumps; the gate is
// the ratio of v3 snapshot bytes to current-protocol snapshot bytes.

// Incremental workload defaults, also recorded in BENCH_<pr>.json.
const (
	snapDeltaBlobLen = 16384 // float64s in the static blob (~128 KiB encoded)
	snapDeltaRounds  = 16    // versions of the store, one knob change each
	snapDeltaSamples = 8     // per round
	snapDeltaWorkers = 2
	snapDeltaRuns    = 3 // best-of for the elapsed time; bytes are exact
)

// SnapDeltaMinRatio is the acceptance floor on full/delta snapshot bytes for
// the incremental workload; cmd/experiments fails the perf gate below it.
const SnapDeltaMinRatio = 5.0

// snapDeltaRun is one measured fleet run of the incremental workload.
type snapDeltaRun struct {
	dump      string
	elapsed   time.Duration
	snapBytes int64 // full + delta snapshot bytes shipped
	fullBytes int64
}

// snapDeltaProgram drives the incremental workload through rt and returns
// the per-round dump, which is byte-comparable across executors and modes.
func snapDeltaProgram(exec core.Executor) (string, error) {
	blob := make([]float64, snapDeltaBlobLen)
	for i := range blob {
		blob[i] = float64(i) * 0.001
	}
	tuner := core.New(core.Options{MaxPool: 4, Seed: 17, Executor: exec})
	var dump string
	err := tuner.Run(func(p *core.P) error {
		p.Expose("blob", blob)
		spec := core.RegionSpec{
			Name:     "snapdelta",
			Samples:  snapDeltaSamples,
			Strategy: strategy.MCMC(strategy.MCMCOptions{}),
			Score:    func(sp *core.SP) float64 { return sp.MustGet("y").(float64) },
		}
		body := func(sp *core.SP) error {
			x := sp.Float("x", dist.Uniform(0, 1))
			b := sp.Load("blob").([]float64)
			k := sp.Load("knob").(float64)
			sp.Commit("y", x*k+b[int(x*1000)%len(b)])
			return nil
		}
		for round := 0; round < snapDeltaRounds; round++ {
			p.Expose("knob", 1.0+float64(round))
			res, err := p.Region(spec, body)
			if err != nil {
				return err
			}
			dump += fmt.Sprintf("round %d: best %.6f\n", round, res.BestScore())
		}
		return nil
	})
	return dump, err
}

// snapDeltaFleet runs the workload on a fresh loopback fleet whose workers
// speak the given protocol version, and reads the shipped-byte counters.
func snapDeltaFleet(proto int) (snapDeltaRun, error) {
	var run snapDeltaRun
	reg := remote.NewRegistry()
	oreg := obs.NewRegistry()
	ex := remote.NewExecutor(remote.ExecutorOptions{Registry: reg, Dynamic: true, Obs: oreg})
	workers := make([]*remote.Worker, 0, snapDeltaWorkers)
	defer func() {
		ex.Close()
		for _, w := range workers {
			w.Close()
		}
	}()
	for i := 0; i < snapDeltaWorkers; i++ {
		w := remote.NewWorker(remote.WorkerOptions{
			Name: fmt.Sprintf("snap-w%d", i), Slots: 2, Registry: reg, Protocol: proto,
		})
		a, b := net.Pipe()
		go w.ServeConn(a)
		if err := ex.AddConn(b); err != nil {
			return run, err
		}
		workers = append(workers, w)
	}
	start := time.Now()
	dump, err := snapDeltaProgram(ex)
	if err != nil {
		return run, err
	}
	run.elapsed = time.Since(start)
	run.dump = dump
	run.fullBytes = oreg.Counter(remote.MetricSnapshotBytes, "mode", "full").Value()
	run.snapBytes = run.fullBytes + oreg.Counter(remote.MetricSnapshotBytes, "mode", "delta").Value()
	return run, nil
}

// SnapshotDeltaPerf measures the incremental workload in both ship modes
// (best elapsed of snapDeltaRuns; the worst-case byte count is kept, since
// shipped bytes jitter slightly with which workers a round's tasks reach),
// verifies byte-identical results against the in-process run, and returns
// the measurements plus the full/delta byte ratio the perf gate enforces.
func SnapshotDeltaPerf() ([]PerfResult, float64, error) {
	local, err := snapDeltaProgram(nil)
	if err != nil {
		return nil, 0, fmt.Errorf("local run: %w", err)
	}
	measure := func(proto int) (snapDeltaRun, error) {
		var best snapDeltaRun
		for i := 0; i < snapDeltaRuns; i++ {
			run, err := snapDeltaFleet(proto)
			if err != nil {
				return best, err
			}
			if run.dump != local {
				return best, fmt.Errorf("proto %d run diverged from in-process run:\nlocal:\n%s\nremote:\n%s",
					proto, local, run.dump)
			}
			bytes, fullB := run.snapBytes, run.fullBytes
			if i == 0 || run.elapsed < best.elapsed {
				best = run
			}
			if bytes > best.snapBytes { // keep the worst-case byte count
				best.snapBytes, best.fullBytes = bytes, fullB
			}
		}
		return best, nil
	}
	delta, err := measure(0) // 0 = current protocol: delta shipping on
	if err != nil {
		return nil, 0, err
	}
	full, err := measure(3) // pinned v3: every version is a full re-ship
	if err != nil {
		return nil, 0, err
	}
	if delta.snapBytes == 0 || full.snapBytes == 0 {
		return nil, 0, fmt.Errorf("no snapshot traffic measured (delta %d, full %d)", delta.snapBytes, full.snapBytes)
	}
	ratio := float64(full.snapBytes) / float64(delta.snapBytes)
	results := []PerfResult{
		{Name: "snapshot_ship_delta", NsPerOp: float64(delta.elapsed.Nanoseconds()) / snapDeltaRounds,
			BytesPerOp: delta.snapBytes / snapDeltaRounds},
		{Name: "snapshot_ship_full", NsPerOp: float64(full.elapsed.Nanoseconds()) / snapDeltaRounds,
			BytesPerOp: full.snapBytes / snapDeltaRounds},
	}
	return results, ratio, nil
}
