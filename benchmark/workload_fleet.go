package main

import (
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/remote"
	"repro/internal/remote/transport"
	"repro/internal/strategy"
)

const (
	fleetBlobLen = 16384 // float64s; 128 KiB on the wire
	fleetRounds  = 16
	fleetSamples = 32
	fleetPerJob  = fleetRounds * fleetSamples
)

// fleetDelta dispatches sequential jobs to nproc in-process workers behind
// real unix sockets. Each job exposes a large blob once and one knob per
// round, the shape protocol v4's delta shipping is for.
type fleetDelta struct {
	e       env
	ex      *remote.NetExecutor
	traced  *tracedExecutor // nil untraced
	workers []*remote.Worker
	serving sync.WaitGroup
	rt      *core.Runtime
	blob    []float64
	blobSum float64
	seeds   [16]int64
	ref     [16]string
	next    int
	nextOp  uint64

	addConnUS, setupUS []float64
	exposes            int
}

func fleetBlob(seed int64) []float64 {
	r := dist.NewRand(seed, 7)
	blob := make([]float64, fleetBlobLen)
	for i := range blob {
		blob[i] = r.Float64()
	}
	return blob
}

func newFleetDelta(e env) (instance, error) {
	w := &fleetDelta{e: e, blob: fleetBlob(e.seed), seeds: jobSeeds(e.seed)}
	for _, v := range w.blob {
		w.blobSum += v
	}
	// The reference: the same jobs with no executor. A dispatched job must
	// reproduce its dump byte for byte.
	local := core.NewRuntime(core.RuntimeOptions{MaxPool: 1})
	for i, s := range w.seeds {
		dump, _, err := w.job(local, nil, s, 0)
		if err != nil {
			return nil, fmt.Errorf("reference job %d: %w", i, err)
		}
		w.ref[i] = dump
	}

	reg := remote.NewRegistry()
	w.ex = remote.NewExecutor(remote.ExecutorOptions{Registry: reg, Dynamic: true, Obs: e.obs})
	unix := transport.Unix()
	for i := 0; i < e.procs; i++ {
		wk := remote.NewWorker(remote.WorkerOptions{Name: fmt.Sprintf("w%d", i), Slots: 1, Registry: reg})
		w.workers = append(w.workers, wk)
		path := filepath.Join(e.tmp, fmt.Sprintf("w%d.sock", i))
		ln, err := unix.Listen(path)
		if err != nil {
			w.close()
			return nil, err
		}
		w.serving.Add(1)
		go func(ln net.Listener) {
			defer w.serving.Done()
			_ = wk.Serve(ln) // returns once close() closes the worker
		}(ln)
		t0 := time.Now()
		if err := w.ex.DialTransport(unix, path); err != nil {
			w.close()
			return nil, err
		}
		w.addConnUS = append(w.addConnUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	var exec core.Executor = w.ex
	if e.rec != nil {
		w.traced = newTracedExecutor(w.ex, e.rec, fleetSamples)
		exec = w.traced
	}
	w.rt = core.NewRuntime(core.RuntimeOptions{MaxPool: 1, Executor: exec, Obs: e.obs})
	// Set-up ends with one job dispatched cold: every worker has taken a
	// full snapshot ship.
	n := 0
	if t := w.jobs(func() bool { n++; return n <= 1 }); t.failed+t.mismatch > 0 {
		w.close()
		return nil, fmt.Errorf("priming job: failed %d, wrong %d", t.failed, t.mismatch)
	}
	return w, nil
}

func fleetSpec() core.RegionSpec {
	return core.RegionSpec{
		Name:     "fleet",
		Samples:  fleetSamples,
		Strategy: strategy.MCMC(strategy.MCMCOptions{}),
		Score:    func(sp *core.SP) float64 { return sp.MustGet("y").(float64) },
	}
}

// fleetBody sums the shipped blob (about 10 µs of arithmetic) and commits
// the sum as a checksum of what the worker actually received.
func fleetBody(sp *core.SP) error {
	x := sp.Float("x", unit)
	blob := sp.Load("blob").([]float64)
	k := sp.Load("knob").(float64)
	sum := 0.0
	for _, v := range blob {
		sum += v
	}
	sp.Commit("sum", sum)
	sp.Commit("y", x*k+blob[int(x*float64(len(blob)-1))])
	return nil
}

// job runs one tuning job on rt and returns its per-round dump. tr is the
// traced executor of a traced run, nil otherwise.
func (w *fleetDelta) job(rt *core.Runtime, tr *tracedExecutor, seed int64, op uint64) (dump string, samples int64, err error) {
	rec := w.e.rec
	if tr == nil {
		rec = nil // the reference jobs of set-up are not part of the trace
	}
	root := rec.start("op.job", op, 0)
	first := firstBody{since: time.Now()}
	sNew := rec.start("core.new", op, root.ID)
	t := rt.NewJob(core.JobOptions{Seed: seed})
	rec.finish(sNew)

	body := fleetBody
	if tr != nil {
		tr.op.Store(op)
		tr.root.Store(root.ID)
		body = func(sp *core.SP) error {
			first.mark()
			s := rec.start("body.sample", op, tr.exec[sp.Index()].Load())
			err := fleetBody(sp)
			rec.finish(s)
			return err
		}
	}

	var out strings.Builder
	sRun := rec.start("core.run", op, root.ID)
	err = t.Run(func(p *core.P) error {
		sExp := rec.start("store.expose", op, sRun.ID)
		p.Expose("blob", w.blob)
		rec.finish(sExp)
		exposes := 1
		for r := 0; r < fleetRounds; r++ {
			sExp := rec.start("store.expose", op, sRun.ID)
			p.Expose("knob", 1+float64(r))
			rec.finish(sExp)
			sReg := rec.start("core.region", op, sRun.ID)
			if tr != nil {
				tr.parent.Store(sReg.ID)
			}
			res, err := p.Region(fleetSpec(), body)
			rec.finish(sReg)
			if err != nil {
				return err
			}
			exposes++
			best := res.BestIndex()
			fmt.Fprintf(&out, "round %d: best %.6f sum %.6f\n", r, res.BestScore(), res.MustValue("sum", best))
		}
		if tr != nil {
			w.exposes += exposes
		}
		return nil
	})
	rec.finish(sRun)
	if tr != nil {
		w.setupUS = append(w.setupUS, float64(first.ns.Load())/1e3)
	}
	samples = t.Metrics().Samples
	t.Close() // ends the job fleet-wide (end-job frame per worker)
	rec.finish(root)
	return out.String(), samples, err
}

func (w *fleetDelta) run(deadline time.Time) tally {
	return w.jobs(func() bool { return time.Now().Before(deadline) })
}

func (w *fleetDelta) jobs(more func() bool) tally {
	var t tally
	for more() {
		i := w.next % len(w.seeds)
		w.next++
		w.nextOp++
		t.ops++
		t0 := time.Now()
		dump, samples, err := w.job(w.rt, w.traced, w.seeds[i], w.nextOp)
		if err != nil {
			t.failed++
			continue
		}
		t.opMs = append(t.opMs, float64(time.Since(t0).Nanoseconds())/1e6)
		t.samples += samples
		t.mismatch += checkFleet(dump, w.ref[i], w.blobSum, samples)
	}
	return t
}

// checkFleet applies the output checks to one dispatched job: the dump is
// byte-identical to the in-process reference, the checksum the workers
// computed is the blob's, and no sample was lost.
func checkFleet(dump, ref string, blobSum float64, samples int64) int {
	bad := 0
	if dump != ref {
		bad++
	}
	if want := fmt.Sprintf("sum %.6f\n", blobSum); strings.Count(dump, want) != fleetRounds {
		bad++
	}
	if samples != fleetPerJob {
		bad++
	}
	return bad
}

func (w *fleetDelta) layers(m metrics, tv traceView) {
	regionLayers(m, tv)
	m["core.run_setup_us"] = median(w.setupUS)
	m["store.version_bumps"] = float64(w.exposes)
	m["strategy.feedback_len_max"] = fleetPerJob
	m["remote.add_conn_us"] = median(w.addConnUS)
	m["remote.begin_round_us"] = median(tv.durationsUS("remote.begin_round"))
	exec := tv.durationsUS("remote.execute")
	m["remote.execute_p50_us"] = median(exec)
	m["remote.execute_p99_us"] = percentile(exec, 0.99)
	m["remote.end_round_us"] = median(tv.durationsUS("remote.end_round"))
	m["remote.end_job_us"] = median(tv.durationsUS("remote.end_job"))

	v := view(w.e.obs)
	m["remote.dispatch_p50_us"] = v.hist(remote.MetricDispatchSeconds).quantile(0.5) * 1e6
	m["remote.rpc_p50_us"] = v.hist(remote.MetricRPCSeconds).quantile(0.5) * 1e6
	m["remote.snapshot_bytes_full"] = v.sum(remote.MetricSnapshotBytes, "mode", "full")
	m["remote.snapshot_bytes_delta"] = v.sum(remote.MetricSnapshotBytes, "mode", "delta")
	m["remote.delta_fallbacks"] = v.sum(remote.MetricSnapDeltaFallback)
	hits, misses := v.sum(remote.MetricAffinityHits), v.sum(remote.MetricAffinityMisses)
	if hits+misses > 0 {
		m["remote.affinity_hit_ratio"] = hits / (hits + misses)
	}
	m["remote.worker_failures"] = v.sum(remote.MetricWorkerFailures)
	coreCounters(m, v)
	if n := m["core.samples"]; n > 0 {
		m["remote.wire_bytes_per_sample"] = v.sum(remote.MetricBytes) / n
	}
}

func (w *fleetDelta) close() {
	if w.ex != nil {
		w.ex.Close()
	}
	for _, wk := range w.workers {
		wk.Close()
	}
	w.serving.Wait()
}
