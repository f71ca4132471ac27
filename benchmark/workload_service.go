package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/jobs"
)

const (
	svcBatch   = 4
	svcRounds  = 8
	svcSamples = 16
	svcPerJob  = svcRounds * svcSamples
	svcProgram = "synthetic"
	svcPrime   = 16 // batches run during set-up
)

// svcClasses are the priority classes of one batch, in submission order.
var svcClasses = [svcBatch]core.PriorityClass{
	core.PriorityHigh, core.PriorityNormal, core.PriorityNormal, core.PriorityLow,
}

// serviceJobs is wbtuned's control plane under load: a jobs.Manager with a
// directory store behind jobs.NewServer on a loopback listener, driven by
// nproc keep-alive HTTP clients.
type serviceJobs struct {
	e       env
	traced  *tracedStore // nil untraced
	rt      *core.Runtime
	mgr     *jobs.Manager
	hs      *http.Server
	serving sync.WaitGroup
	base    string
	seeds   [16]int64
	ref     [16]string
	clients []*http.Client
	nextOp  atomic.Uint64

	// Traced-run state: the open spans of each live job, and the client-side
	// timings that are per-layer metrics.
	ops      sync.Map // op -> *svcOp
	mu       sync.Mutex
	getMs    []float64
	firstMs  []float64
	bytes    int64
	refused  int
	depthMax int
}

// svcOp is the trace context of one job: the decorators find their parent
// spans here.
type svcOp struct {
	root, submit, run uint64
	savedAt, runEnd   int64
}

func svcName(op uint64) string { return "j" + strconv.FormatUint(op, 10) }

func svcOpOf(name string) uint64 {
	op, _ := strconv.ParseUint(strings.TrimPrefix(name, "j"), 10, 64)
	return op
}

// svcSpec is the job the clients submit: small, checkpointed every second
// round, so the control plane is most of its life.
func svcSpec(op uint64, seed int64, class core.PriorityClass) core.JobSpec {
	return core.JobSpec{
		Name:       svcName(op),
		Program:    svcProgram,
		Class:      class,
		Seed:       seed,
		Args:       map[string]string{"rounds": strconv.Itoa(svcRounds), "samples": strconv.Itoa(svcSamples)},
		Checkpoint: &core.CheckpointSpec{Every: 2},
	}
}

func newServiceJobs(e env) (instance, error) {
	w := &serviceJobs{e: e, seeds: jobSeeds(e.seed)}
	programs := jobs.NewRegistry()
	programs.Register(svcProgram, w.program)

	// The reference: every spec run directly, with no control plane.
	direct := core.NewRuntime(core.RuntimeOptions{MaxPool: 2 * e.procs})
	for i, s := range w.seeds {
		res, _, err := jobs.RunDirect(context.Background(), direct, programs, svcSpec(0, s, core.PriorityNormal))
		if err != nil {
			return nil, fmt.Errorf("reference job %d: %w", i, err)
		}
		w.ref[i] = res
	}

	dir, err := checkpoint.NewDirStore(filepath.Join(e.tmp, "store"))
	if err != nil {
		return nil, err
	}
	var store durableStore = dir
	if e.rec != nil {
		w.traced = &tracedStore{inner: dir, rec: e.rec, saved: w.saved, deleted: w.deleted}
		store = w.traced
	}
	w.rt = core.NewRuntime(core.RuntimeOptions{MaxPool: 2 * e.procs, Obs: e.obs})
	w.mgr = jobs.NewManager(jobs.Options{
		Runtime: w.rt, Programs: programs, Store: store, MaxRunning: e.procs, Obs: e.obs,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.mgr.Close()
		return nil, err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: jobs.NewServer(w.mgr, e.obs)}
	w.serving.Add(1)
	go func() {
		defer w.serving.Done()
		_ = w.hs.Serve(ln) // returns ErrServerClosed from close()
	}()
	for i := 0; i < e.procs; i++ {
		w.clients = append(w.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
		}})
	}
	// Set-up ends with the first batches through the cold server.
	var t tally
	for i := 0; i < svcPrime; i++ {
		w.batch(w.clients[0], &t)
	}
	if t.failed+t.mismatch > 0 {
		w.close()
		return nil, fmt.Errorf("priming batch: failed %d, wrong %d of %d jobs", t.failed, t.mismatch, t.ops)
	}
	return w, nil
}

// program is the tuning program the jobs run. It does what the synthetic
// program internal/bench registers for wbtuned does — rounds of one scored
// region with its optimum at x=1 — and is written here because a
// jobs.Registry offers no way to wrap a registered factory, and the traced
// run needs to see when a job's program starts and ends.
func (w *serviceJobs) program(spec core.JobSpec) (jobs.RunFunc, error) {
	rounds, err := strconv.Atoi(spec.Args["rounds"])
	if err != nil || rounds < 1 {
		return nil, fmt.Errorf("%w: rounds %q", core.ErrSpecInvalid, spec.Args["rounds"])
	}
	samples, err := strconv.Atoi(spec.Args["samples"])
	if err != nil || samples < 1 {
		return nil, fmt.Errorf("%w: samples %q", core.ErrSpecInvalid, spec.Args["samples"])
	}
	return func(ctx context.Context, t *core.Tuner, emit func(jobs.Round)) (string, error) {
		rec, op := w.e.rec, svcOpOf(spec.Name)
		var run span
		if o := w.op(op); o != nil {
			// Queued: from the spec being durable to the program starting.
			rec.add("jobs.queued", op, o.root, o.savedAt, rec.now())
			run = rec.start("core.run", op, o.root)
			o.run = run.ID
			defer func() {
				rec.finish(run)
				o.runEnd = rec.now()
			}()
		}
		region := core.RegionSpec{
			Name:    "synthetic",
			Samples: samples,
			Score:   func(sp *core.SP) float64 { return sp.MustGet("y").(float64) },
		}
		var out strings.Builder
		err := t.RunContext(ctx, func(p *core.P) error {
			for r := 0; r < rounds; r++ {
				res, err := tracedRegion(rec, op, run.ID, w.e.procs, p, region, func(sp *core.SP) error {
					x := sp.Float("x", unit)
					sp.Work(0.0625)
					sp.Commit("y", x*(2-x))
					return nil
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(&out, "r%d best=%.6f\n", r, res.BestScore())
				emit(jobs.Round{Region: "synthetic", Score: res.BestScore()})
			}
			return nil
		})
		return out.String(), err
	}, nil
}

// op returns the trace context of a live job; nil untraced or for the
// reference jobs of set-up.
func (w *serviceJobs) op(op uint64) *svcOp {
	if v, ok := w.ops.Load(op); ok {
		return v.(*svcOp)
	}
	return nil
}

// saved is the store decorator's callback: a spec save belongs to the
// submit, a checkpoint save to the running program.
func (w *serviceJobs) saved(label string, start, end int64) {
	kind, name := labelJob(label)
	op := svcOpOf(name)
	o := w.op(op)
	if o == nil {
		return
	}
	if kind == "spec" {
		o.savedAt = end
		w.e.rec.add("checkpoint.save_spec", op, o.submit, start, end)
		return
	}
	w.e.rec.add("checkpoint.save", op, o.run, start, end)
}

// deleted: the manager drops a finished job's checkpoint last, so that
// delete marks the end of its finishing work.
func (w *serviceJobs) deleted(label string, at int64) {
	kind, name := labelJob(label)
	op := svcOpOf(name)
	if o := w.op(op); o != nil && kind == "ckpt" && o.runEnd > 0 {
		w.e.rec.add("jobs.finish", op, o.root, o.runEnd, at)
	}
}

func (w *serviceJobs) run(deadline time.Time) tally {
	tallies := make([]tally, len(w.clients))
	var wg sync.WaitGroup
	for i, c := range w.clients {
		wg.Add(1)
		go func(i int, c *http.Client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				w.batch(c, &tallies[i])
			}
		}(i, c)
	}
	wg.Wait()
	var t tally
	for _, c := range tallies {
		t.merge(c)
	}
	return t
}

// posted is one submitted job the client still has to follow.
type posted struct {
	op    uint64
	seed  int
	start time.Time
	root  span
}

// batch is one client turn: submit four jobs, then follow each one's event
// stream to its end.
func (w *serviceJobs) batch(c *http.Client, t *tally) {
	rec := w.e.rec
	var live []posted
	for _, class := range svcClasses {
		op := w.nextOp.Add(1)
		seed := int(op % uint64(len(w.seeds)))
		t.ops++
		p := posted{op: op, seed: seed, start: time.Now(), root: rec.start("http.job", op, 0)}
		sub := rec.start("http.submit", op, p.root.ID)
		if rec != nil {
			w.ops.Store(op, &svcOp{root: p.root.ID, submit: sub.ID, savedAt: sub.Start})
		}
		body, _ := json.Marshal(svcSpec(op, w.seeds[seed], class)) // a JobSpec of plain fields always marshals
		resp, err := c.Post(w.base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.failed++
			continue
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rec.finish(sub)
		if rec != nil {
			w.mu.Lock()
			w.bytes += int64(len(body)) + n
			if d := w.rt.Load().JobsQueued; d > w.depthMax {
				w.depthMax = d
			}
			if resp.StatusCode != http.StatusAccepted {
				w.refused++
			}
			w.mu.Unlock()
		}
		if resp.StatusCode != http.StatusAccepted {
			t.failed++
			continue
		}
		live = append(live, p)
	}
	for i, p := range live {
		st, first, n, err := w.follow(c, p)
		done := time.Now()
		rec.finish(p.root)
		w.ops.Delete(p.op)
		if err != nil {
			t.failed++
			continue
		}
		t.opMs = append(t.opMs, float64(done.Sub(p.start).Nanoseconds())/1e6)
		t.samples += int64(st.Rounds) * svcSamples
		t.mismatch += checkService(st, w.ref[p.seed])
		if rec != nil {
			w.mu.Lock()
			w.firstMs = append(w.firstMs, float64(first.Sub(p.start).Nanoseconds())/1e6)
			w.bytes += n
			w.mu.Unlock()
			if i == 0 {
				w.get(c, p.op)
			}
		}
	}
}

// checkService applies the output checks to one finished job: it completed,
// ran every round, and its result is byte-equal to the direct run's.
func checkService(st jobs.Status, ref string) int {
	if st.State != jobs.StateCompleted || st.Rounds != svcRounds || st.Result != ref {
		return 1
	}
	return 0
}

// follow reads a job's server-sent events until the done event and returns
// the final status, when the first round event arrived, and the bytes read.
func (w *serviceJobs) follow(c *http.Client, p posted) (st jobs.Status, first time.Time, n int64, err error) {
	open := w.e.rec.start("http.sse_open", p.op, p.root.ID)
	resp, err := c.Get(w.base + "/v1/jobs/" + svcName(p.op) + "/rounds")
	w.e.rec.finish(open)
	if err != nil {
		return st, first, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, first, 0, fmt.Errorf("rounds stream: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	event, done := "", false
	for sc.Scan() {
		line := sc.Text()
		n += int64(len(line)) + 1
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
			if event == "round" && first.IsZero() {
				first = time.Now()
			}
		case strings.HasPrefix(line, "data: ") && event == "done":
			if err := json.Unmarshal([]byte(line[len("data: "):]), &st); err != nil {
				return st, first, n, err
			}
			done = true
		}
	}
	if err := sc.Err(); err != nil {
		return st, first, n, err
	}
	if !done || first.IsZero() {
		return st, first, n, fmt.Errorf("stream of %s ended without a round and a done event", svcName(p.op))
	}
	return st, first, n, nil
}

// get times one status request (traced run only).
func (w *serviceJobs) get(c *http.Client, op uint64) {
	t0 := time.Now()
	resp, err := c.Get(w.base + "/v1/jobs/" + svcName(op))
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	w.mu.Lock()
	w.getMs = append(w.getMs, float64(time.Since(t0).Nanoseconds())/1e6)
	w.mu.Unlock()
}

func (w *serviceJobs) layers(m metrics, tv traceView) {
	ms := func(name string, p float64) float64 { return percentile(tv.durationsUS(name), p) / 1e3 }
	m["http.submit_p50_ms"] = ms("http.submit", 0.5)
	m["http.get_p50_ms"] = median(w.getMs)
	m["http.sse_open_ms"] = ms("http.sse_open", 0.5)
	m["http.job_p50_ms"] = ms("http.job", 0.5)
	m["http.job_p99_ms"] = ms("http.job", 0.99)
	m["http.first_round_p50_ms"] = median(w.firstMs)
	m["http.first_round_p99_ms"] = percentile(w.firstMs, 0.99)
	m["jobs.queue_wait_p50_ms"] = ms("jobs.queued", 0.5)
	m["jobs.queue_wait_p99_ms"] = ms("jobs.queued", 0.99)
	m["jobs.refused"] = float64(w.refused)
	m["jobs.queue_depth_max"] = float64(w.depthMax)
	// The clients never pause, so the jobs' spans tile the traced stretch.
	var lo, hi int64
	for _, s := range tv.spans {
		if s.Name == "http.job" {
			if lo == 0 || s.Start < lo {
				lo = s.Start
			}
			hi = max(hi, s.End)
		}
	}
	if n := tv.count["http.job"]; n > 0 {
		m["http.body_bytes_per_job"] = float64(w.bytes) / float64(n)
		m["jobs.jobs_per_s"] = float64(n) / (float64(hi-lo) / 1e9)
	}
	saves := append(tv.durationsUS("checkpoint.save"), tv.durationsUS("checkpoint.save_spec")...)
	m["checkpoint.save_p50_us"] = median(saves)
	m["checkpoint.save_p99_us"] = percentile(saves, 0.99)
	m["checkpoint.saves"] = float64(len(saves))
	m["checkpoint.errors"] = float64(w.traced.errors.Load())
	m["strategy.feedback_len_max"] = svcPerJob
	regionLayers(m, tv)
	coreCounters(m, view(w.e.obs))
}

func (w *serviceJobs) close() {
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	if w.hs != nil {
		w.hs.Close()
		w.serving.Wait()
	}
	w.mgr.Close()
}
