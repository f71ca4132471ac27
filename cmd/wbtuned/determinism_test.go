package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/jobs"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/remote/transport"
	"repro/internal/strategy"
)

// The determinism contract (DESIGN §10): a run's results are a function of
// its program and seed alone. Every cell of the matrix runs one program and
// must produce the digest of the program's reference cell: the local
// executor, the direct lifecycle, unrecorded, at GOMAXPROCS N. A cell that
// holds the Tuner digests the outcome bits (Table I) or the dump (the
// in-file programs) plus the deterministic counters; a cell that only sees
// the service digests the job's Result, against jobs.RunDirect's.

const (
	matrixSeed = 1
	matrixPool = 4
)

// The axes. A "mem" fleet is two 2-slot workers over the in-process
// transport; wbtuned's own -fleet-min 2 -fleet-max 2 fleet, which serves the
// daemon's mem cells, is two 1-slot workers over in-process pipes. The
// "elastic" fleet starts with one worker and changes mid-run (elasticFleet).
var (
	matrixExecutors  = []string{"local", "mem", "tcp", "unix", "tls", "elastic"}
	matrixLifecycles = []string{"direct", "recorded", "resumed", "migrated", "cotenant", "http", "restarted", "killed"}
)

// matrixPrograms lists every program wbtuned serves (Table I and synthetic)
// and two in-file ones for what Table I does not exercise: churn
// re-Exposes between rounds so fleets ship deltas, split runs MCMC feedback
// on two paths.
func matrixPrograms() []string {
	var names []string
	for _, b := range bench.All() {
		names = append(names, bench.ServiceName(b))
	}
	return append(names, "synthetic", "churn", "split")
}

// cell is one row of the matrix.
type cell struct {
	prog, partner string // partner: the co-tenant's program (cotenant, migrated)
	exec, life    string
	procs         int    // GOMAXPROCS; 0 is N
	site          string // killed: the crash point
	na            string // why the row cannot be built without new product code
}

func (c cell) name() string {
	s := c.prog + "-" + c.exec + "-" + c.life
	if c.partner != "" {
		s += "+" + c.partner
	}
	if c.site != "" {
		s += "-" + c.site
	}
	if c.procs == 1 {
		s += "-p1"
	}
	return s
}

func (c cell) reference() bool { return c.exec == "local" && c.life == "direct" && c.procs == 0 }

// matrixCells builds the table under the coverage rule that
// TestDeterminismMatrixCoverage asserts: every program on the local executor
// and a mem fleet, direct and recorded, at N; the other fleets direct and
// recorded at GOMAXPROCS 1; and every program in each other lifecycle, its
// executor rotating with program and lifecycle so each program meets every
// executor, at GOMAXPROCS 1 and N in turn.
func matrixCells() []cell {
	progs := matrixPrograms()
	var cells []cell
	for _, p := range progs {
		for _, e := range matrixExecutors[:2] {
			cells = append(cells, cell{prog: p, exec: e, life: "direct"}, cell{prog: p, exec: e, life: "recorded"})
		}
	}
	for i, e := range matrixExecutors[2:] {
		cells = append(cells, cell{prog: progs[3*i], exec: e, life: "direct", procs: 1},
			cell{prog: progs[3*i+1], exec: e, life: "recorded", procs: 1})
	}
	for li, l := range matrixLifecycles[2:] {
		for i, p := range progs {
			c := cell{prog: p, exec: matrixExecutors[(i+li)%len(matrixExecutors)], life: l, procs: 1 - i%2}
			switch l {
			case "cotenant", "migrated":
				c.partner = progs[(i+1)%len(progs)]
			case "killed":
				c.site = []string{"ckpt-pre-write", "ckpt-post-write"}[i/2%2]
			}
			cells = append(cells, c)
		}
	}
	for i, c := range cells {
		if c.prog == "synthetic" && (c.life == "recorded" || c.life == "resumed" || c.life == "migrated" || c.life == "killed") {
			cells[i].na = "synthetic is registered only as a jobs program: no exported API runs it on a Tuner the test holds"
		}
	}
	return cells
}

// TestDeterminismMatrixCoverage asserts the coverage rule over the table, so
// a row dropped from matrixCells cannot thin the contract.
func TestDeterminismMatrixCoverage(t *testing.T) {
	have := make(map[string]bool)
	for _, c := range matrixCells() {
		if have[c.name()] {
			t.Errorf("two cells named %s", c.name())
		}
		have[c.name()], have[c.exec+" "+c.life] = true, true
		if c.procs == 0 {
			have[c.prog+" "+c.exec+" "+c.life+" N"] = true
		}
		for _, p := range []string{c.prog, c.partner} {
			have[p+" "+c.life] = true // a not-applicable row names its pair
			have[p+" "+c.exec] = have[p+" "+c.exec] || c.na == ""
		}
		if c.na == "" {
			have[fmt.Sprint(c.exec, " procs ", c.procs)], have[fmt.Sprint(c.life, " procs ", c.procs)], have[c.site] = true, true, true
		}
	}
	want := []string{"ckpt-pre-write", "ckpt-post-write"}
	for _, p := range matrixPrograms() {
		for _, a := range append(slices.Clone(matrixLifecycles), matrixExecutors...) {
			want = append(want, p+" "+a)
		}
		for _, el := range []string{"local direct", "local recorded", "mem direct", "mem recorded"} {
			want = append(want, p+" "+el+" N")
		}
	}
	for _, e := range matrixExecutors {
		for _, l := range matrixLifecycles {
			want = append(want, e+" "+l)
		}
	}
	for _, a := range append(slices.Clone(matrixExecutors), matrixLifecycles...) {
		want = append(want, a+" procs 0", a+" procs 1")
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("no cell covers %q", w)
		}
	}
}

// matrix holds the programs and the reference digests.
type matrix struct {
	progs   *jobs.Registry
	names   []string                                                      // every program registered in progs
	runs    map[string]func(context.Context, *core.Tuner) (string, error) // nil for synthetic
	want    map[string]string                                             // Tuner digest (synthetic: Result)
	wantRes map[string]string                                             // jobs.RunDirect result
	table   map[string]bench.Benchmark                                    // Table I programs
}

func newMatrix() *matrix {
	m := &matrix{progs: jobs.NewRegistry(), want: map[string]string{}, wantRes: map[string]string{},
		runs: map[string]func(context.Context, *core.Tuner) (string, error){}, table: map[string]bench.Benchmark{}}
	reg := &namedRegistry{Registry: m.progs}
	bench.RegisterPrograms(reg)
	for _, b := range bench.All() {
		m.table[bench.ServiceName(b)] = b
		m.runs[bench.ServiceName(b)] = func(ctx context.Context, tu *core.Tuner) (string, error) {
			out, err := b.Tune(ctx, tu, matrixSeed)
			return outcomeBits(out), err
		}
	}
	for name, run := range map[string]jobs.RunFunc{"churn": churnProgram, "split": splitProgram} {
		reg.Register(name, func(core.JobSpec) (jobs.RunFunc, error) { return run, nil })
		m.runs[name] = func(ctx context.Context, tu *core.Tuner) (string, error) { return run(ctx, tu, func(jobs.Round) {}) }
	}
	m.names = reg.names
	return m
}

// namedRegistry records the names registered through it.
type namedRegistry struct {
	*jobs.Registry
	names []string
}

func (r *namedRegistry) Register(name string, f jobs.Factory) {
	r.names = append(r.names, name)
	r.Registry.Register(name, f)
}

// outcomeBits renders an Outcome so that two renderings are equal exactly
// when the outcomes are bit-equal.
func outcomeBits(o bench.Outcome) string {
	return fmt.Sprintf("%x %x %x %x %x %d\n", math.Float64bits(o.Score), math.Float64bits(o.Internal),
		math.Float64bits(o.Work), math.Float64bits(o.WorkSerial), math.Float64bits(o.WorkParallel), o.Samples)
}

// dump writes one round's complete observable outcome.
func dump(w *strings.Builder, res *core.Result) {
	for g := 0; g < res.N(); g++ {
		fmt.Fprintln(w, g, res.Params(g), res.Err(g))
	}
	for _, x := range res.Vars() {
		fmt.Fprintln(w, x, res.Values(x))
	}
	fmt.Fprintln(w, "best", res.BestIndex(), res.BestScore())
}

func mcmcRegion(name string, samples int) core.RegionSpec {
	return core.RegionSpec{Name: name, Samples: samples, Strategy: strategy.MCMC(strategy.MCMCOptions{}),
		Score: func(sp *core.SP) float64 { return sp.MustGet("y").(float64) }}
}

// churnProgram exposes a large blob once and a knob that changes every
// round; its bodies Load both and a tag and commit a float, a slice and a
// string. On a fleet every round after a worker's first ships it a delta.
func churnProgram(ctx context.Context, t *core.Tuner, emit func(jobs.Round)) (string, error) {
	blob := make([]float64, 8192)
	for i := range blob {
		blob[i] = float64(i) * 0.001
	}
	var out strings.Builder
	err := t.RunContext(ctx, func(p *core.P) error {
		p.Expose("blob", blob)
		p.Expose("tag", "blue")
		for r := 0; r < 4; r++ {
			p.Expose("knob", 1+float64(r))
			res, err := p.Region(mcmcRegion("churn", 8), func(sp *core.SP) error {
				x, k := sp.Float("x", dist.Uniform(0, 1)), sp.Int("k", dist.IntRange(1, 4))
				sp.Work(0.125)
				b := sp.Load("blob").([]float64)
				sp.Commit("y", x*float64(k)*sp.Load("knob").(float64)+b[int(x*1000)%len(b)])
				sp.Commit("trace", []float64{x, float64(k)})
				sp.Commit("tag", sp.Load("tag").(string))
				return nil
			})
			if err != nil {
				return err
			}
			dump(&out, res)
			emit(jobs.Round{Region: "churn", Score: res.BestScore()})
		}
		return nil
	})
	return out.String(), err
}

// splitProgram splits a child path off the root, and both run three rounds
// of a region whose MCMC feedback drives the next round's draws.
func splitProgram(ctx context.Context, t *core.Tuner, emit func(jobs.Round)) (string, error) {
	var root, child strings.Builder
	rounds := func(p *core.P, w *strings.Builder, name string) error {
		for r := 0; r < 3; r++ {
			p.Work(1)
			res, err := p.Region(mcmcRegion(name, 4), func(sp *core.SP) error {
				sp.Work(0.25)
				sp.Commit("y", sp.Float("x", dist.Uniform(0, 1))*sp.Load("bias").(float64))
				return nil
			})
			if err != nil {
				return err
			}
			dump(w, res)
		}
		return nil
	}
	err := t.RunContext(ctx, func(p *core.P) error {
		p.Expose("bias", 0.5)
		p.Split(func(c *core.P) error { return rounds(c, &child, "child") })
		return errors.Join(rounds(p, &root, "root"), p.Wait())
	})
	return root.String() + child.String(), err
}

// elasticFleet counts dispatches: the second joins two workers, and the
// fourth retires the first once they have joined (a fleet left with no live
// worker declines the region for the rest of the job).
type elasticFleet struct {
	*remote.NetExecutor
	t        testing.TB
	n        atomic.Int64
	join     func()
	joined   chan struct{}
	retiring sync.WaitGroup
}

func (e *elasticFleet) Execute(ctx context.Context, h any, group, attempt int) (core.ExecResult, error) {
	switch e.n.Add(1) {
	case 2:
		e.join()
		close(e.joined)
	case 4:
		e.retiring.Add(1)
		go func() {
			defer e.retiring.Done()
			<-e.joined
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := e.RemoveConn(ctx, "e0"); err != nil {
				e.t.Errorf("RemoveConn(e0): %v", err)
			}
		}()
	}
	return e.NetExecutor.Execute(ctx, h, group, attempt)
}

// executor builds a cell's executor (nil for local) and the registry its
// fleet metrics go to. The workers share the dispatcher's registry and value
// table: the in-file programs' bodies are closures, shipped dynamically.
func (m *matrix) executor(t testing.TB, kind string) (core.Executor, *obs.Registry) {
	t.Helper()
	var tr transport.Transport
	var err error
	switch kind {
	case "local":
		return nil, nil
	case "mem", "elastic":
		tr = transport.NewMem()
	case "tcp":
		tr = transport.TCP()
	case "unix":
		tr = transport.Unix()
	case "tls":
		tr, err = transport.SelfSigned()
	}
	dir, derr := os.MkdirTemp("", "wbm") // a unix socket path must fit in 108 bytes
	if err != nil || derr != nil {
		t.Fatal(err, derr)
	}
	reg, vals, oreg := remote.NewRegistry(), remote.NewValueTable(), obs.NewRegistry()
	ex := remote.NewExecutor(remote.ExecutorOptions{Registry: reg, Dynamic: true, Values: vals, Obs: oreg})
	var workers []*remote.Worker // the elastic join appends inside a run
	add := func(name string) {
		addr := map[string]string{"unix": filepath.Join(dir, name), "mem": name, "elastic": name}[kind]
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		ln, err := tr.Listen(addr)
		if err != nil {
			t.Errorf("listen %s: %v", addr, err)
			return
		}
		w := remote.NewWorker(remote.WorkerOptions{Name: name, Slots: 2, Registry: reg, Values: vals})
		go w.Serve(ln)
		workers = append(workers, w)
		if err := ex.DialTransport(tr, ln.Addr().String()); err != nil {
			t.Errorf("dial %s: %v", name, err)
		}
	}
	t.Cleanup(func() {
		ex.Close()
		for _, w := range workers {
			w.Close()
		}
		os.RemoveAll(dir)
	})
	if kind != "elastic" {
		add("w0")
		add("w1")
		return ex, oreg
	}
	e := &elasticFleet{NetExecutor: ex, t: t, join: func() { add("e1"); add("e2") }, joined: make(chan struct{})}
	t.Cleanup(e.retiring.Wait) // before the executor closes
	add("e0")
	return e, oreg
}

// checkDeltas asserts a churn run on a fleet shipped deltas, none refused.
func checkDeltas(t *testing.T, c cell, oreg *obs.Registry) {
	if oreg == nil || (c.prog != "churn" && c.partner != "churn") {
		return
	}
	if oreg.Counter(remote.MetricSnapshotBytes, "mode", "delta").Value() == 0 {
		t.Errorf("%s: no delta bytes shipped", c.name())
	}
	if n := oreg.Counter(remote.MetricSnapDeltaFallback, "cause", "nack").Value(); n != 0 {
		t.Errorf("%s: %d deltas refused", c.name(), n)
	}
}

func (m *matrix) runtime(ex core.Executor) *core.Runtime {
	return core.NewRuntime(core.RuntimeOptions{MaxPool: matrixPool, Executor: ex})
}

// runJob runs prog as a job on rt, resumed from st when st is non-nil, and
// returns its digest, which ends with the run's error; synthetic runs
// through jobs.RunDirect. It does not touch the test, so a co-tenant's
// goroutine may call it.
func (m *matrix) runJob(rt *core.Runtime, jo core.JobOptions, st *checkpoint.State, prog string) string {
	ctx := context.Background()
	if m.runs[prog] == nil {
		res, _, err := jobs.RunDirect(ctx, rt, m.progs, core.JobSpec{Name: jo.Name, Program: prog, Seed: jo.Seed})
		return fmt.Sprintf("%s err=%v", res, err)
	}
	tu, err := (*core.Tuner)(nil), error(nil)
	if st == nil {
		tu = rt.NewJob(jo)
	} else if tu, err = rt.ResumeJob(jo, st); err != nil {
		return fmt.Sprintf("err=%v", err)
	}
	defer tu.Close()
	out, err := m.runs[prog](ctx, tu)
	mt := tu.Metrics() // the deterministic counters: all but the scheduler's
	return out + fmt.Sprintf("regions=%d rounds=%d samples=%d splits=%d work=%v ser=%v par=%v err=%v",
		mt.Regions, mt.Rounds, mt.Samples, mt.Splits, mt.WorkUnits, mt.WorkSerial, mt.WorkParallel, errors.Join(err, tu.SaveErr()))
}

// captureStore keeps every checkpoint saved through it and calls onSave,
// when set, after the first.
type captureStore struct {
	checkpoint.MemStore
	onSave func()
	mu     sync.Mutex
	saves  [][]byte
}

func (c *captureStore) Save(label string, data []byte) error {
	c.mu.Lock()
	c.saves = append(c.saves, slices.Clone(data))
	first := len(c.saves) == 1
	c.mu.Unlock()
	err := c.MemStore.Save(label, data)
	if first && c.onSave != nil {
		c.onSave()
	}
	return err
}

func (m *matrix) check(t *testing.T, c cell, prog, got string) {
	t.Helper()
	if want := m.want[prog]; got != want {
		t.Errorf("%s: %s diverged from its reference cell\n--- reference ---\n%s\n--- cell ---\n%s", c.name(), prog, want, got)
	}
}

// runReference runs a program's reference cell and its jobs.RunDirect
// result, the reference of the service cells.
func (m *matrix) runReference(t *testing.T, c cell) {
	ctx, rt := context.Background(), m.runtime(nil)
	spec := core.JobSpec{Name: c.name(), Program: c.prog, Seed: matrixSeed}
	res, _, err := jobs.RunDirect(ctx, rt, m.progs, spec)
	if err != nil {
		t.Fatalf("%s: RunDirect: %v", c.prog, err)
	}
	m.wantRes[c.prog], m.want[c.prog] = res, m.runJob(rt, spec.Options(), nil, c.prog)
	if !strings.HasSuffix(m.want[c.prog], " err=<nil>") {
		t.Fatalf("%s: reference run failed: %s", c.prog, m.want[c.prog])
	}
	b := m.table[c.prog]
	if b == nil {
		return
	}
	// The standard Table I tuner (WBTune, a pool of 8) agrees with a job,
	// and a job's result prints its outcome (Canny's streams its pipeline).
	out := b.WBTune(matrixSeed, 0)
	if wb := outcomeBits(out); !strings.HasPrefix(m.want[c.prog], wb) {
		t.Errorf("%s: WBTune outcome %q, reference %q", c.prog, wb, m.want[c.prog])
	}
	if c.prog == "canny" {
		return
	}
	if want := fmt.Sprintf("%s seed=%d score=%.6f work=%.4f samples=%d\n", c.prog, matrixSeed, out.Score, out.Work, out.Samples); res != want {
		t.Errorf("%s: job result %q does not report the reference outcome %q", c.prog, res, want)
	}
	// Only Canny takes args; the others refuse any rather than ignore it.
	spec.Args = map[string]string{"stage1": "4"}
	if _, _, err := jobs.RunDirect(ctx, rt, m.progs, spec); !errors.Is(err, core.ErrSpecInvalid) {
		t.Errorf("%s with an arg: %v, want ErrSpecInvalid", c.prog, err)
	}
}

// TestDeterminismMatrix runs every cell of matrixCells against its
// program's reference cell. Cells run one at a time, since GOMAXPROCS is
// per process; each lifecycle is one leak-checked group.
func TestDeterminismMatrix(t *testing.T) {
	if os.Getenv(childEnv) != "" {
		runChild(t)
		return
	}
	if testing.Short() {
		t.Skip("every program across executors, lifecycles and GOMAXPROCS; skipped in -short")
	}
	m, progs := newMatrix(), matrixPrograms()
	names := slices.Clone(m.names)
	slices.Sort(names)
	if slices.Sort(progs); !slices.Equal(names, progs) {
		t.Fatalf("registered programs %v, matrix programs %v", names, progs)
	}
	// References run outside any subtest, so a -run filter still has them.
	t.Cleanup(leakcheck.Check(t))
	cells := matrixCells()
	for _, c := range cells {
		if c.reference() {
			m.runReference(t, c)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	for _, life := range matrixLifecycles {
		t.Run(life, func(t *testing.T) {
			t.Cleanup(leakcheck.Check(t))
			for _, c := range cells {
				if c.life != life || c.reference() {
					continue
				}
				t.Run(c.name(), func(t *testing.T) {
					if c.na != "" {
						t.Skip("not applicable: " + c.na)
					}
					if c.procs != 0 && c.life != "killed" { // a killed cell's child gets it
						prev := runtime.GOMAXPROCS(c.procs)
						t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
					}
					m.run(t, c)
				})
			}
		})
	}
}

// run runs one cell.
func (m *matrix) run(t *testing.T, c cell) {
	ex, oreg := core.Executor(nil), (*obs.Registry)(nil)
	if c.life != "killed" && !daemonServes(c) {
		ex, oreg = m.executor(t, c.exec)
	}
	defer checkDeltas(t, c, oreg)
	rt, cs := m.runtime(ex), &captureStore{}
	jo := core.JobOptions{Name: c.name(), Seed: matrixSeed, Checkpoint: &core.CheckpointPolicy{Store: cs, Every: 1}}
	switch c.life {
	case "direct", "recorded", "resumed":
		if c.life == "direct" {
			jo.Checkpoint = nil
		}
		m.check(t, c, c.prog, m.runJob(rt, jo, nil, c.prog))
		if c.life != "resumed" {
			break
		}
		for i, data := range cs.saves {
			// Every capture but the last, which is complete, resumes.
			st, err := checkpoint.DecodeBytes(data)
			if err != nil || st.Complete != (i == len(cs.saves)-1) {
				t.Fatalf("%s: capture %d of %d: %v (complete %v)", c.name(), i+1, len(cs.saves), err, st != nil && st.Complete)
			}
			if !st.Complete {
				m.check(t, c, c.prog, m.runJob(rt, core.JobOptions{Name: fmt.Sprintf("%s-r%d", c.name(), i)}, st, c.prog))
			}
		}
	case "cotenant", "migrated":
		var partner string
		done := make(chan struct{})
		go func() {
			defer close(done)
			partner = m.runJob(rt, core.JobOptions{Name: c.name() + "-partner", Seed: matrixSeed}, nil, c.partner)
		}()
		if c.life == "cotenant" {
			jo.Checkpoint = nil
			m.check(t, c, c.prog, m.runJob(rt, jo, nil, c.prog))
		} else {
			m.migrate(t, c, ex, rt, jo, cs)
		}
		<-done
		m.check(t, c, c.partner, partner)
	case "http":
		base, stop := m.serve(t, c, ex, "", 0)
		defer stop()
		st, _ := followJob(t, base, postJob(t, base, core.JobSpec{Name: c.name(), Program: c.prog, Seed: matrixSeed}))
		m.checkResult(t, c, st)
	case "restarted":
		m.restart(t, c, ex)
	case "killed":
		m.kill(t, c)
	}
}

// migrate runs job jo on rt beside the cell's co-tenant and, at its first
// auto-save (on a round-exit thread, outside any round), checkpoints it with
// Tuner.Checkpoint and stops it; then it Closes the job and resumes the
// bytes on a second Runtime over the same executor.
func (m *matrix) migrate(t *testing.T, c cell, ex core.Executor, rt *core.Runtime, jo core.JobOptions, cs *captureStore) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var src *core.Tuner
	var buf bytes.Buffer
	var err error
	cs.onSave = func() {
		err = src.Checkpoint(&buf)
		cancel()
	}
	src = rt.NewJob(jo)
	m.runs[c.prog](ctx, src) // stopped at the checkpoint: its outcome is discarded
	src.Close()
	st, derr := checkpoint.DecodeBytes(buf.Bytes())
	if err != nil || derr != nil {
		t.Fatalf("%s: Checkpoint: %v; decode: %v", c.name(), err, derr)
	}
	m.check(t, c, c.prog, m.runJob(m.runtime(ex), core.JobOptions{Name: c.name()}, st, c.prog))
}

// daemonServes reports whether wbtuned itself (newDaemon) serves service
// cell c: its own programs on the local executor or its loopback fleet.
func daemonServes(c cell) bool {
	return (c.life == "http" || c.life == "restarted") && (c.exec == "local" || c.exec == "mem") &&
		c.prog != "churn" && c.prog != "split"
}

// serve starts a service cell's control plane and returns its URL and stop:
// newDaemon when daemonServes(c), otherwise a jobs.Manager on ex (nil:
// local) behind jobs.NewServer, which is what newDaemon wires around an
// executor it cannot build. dir, when set, is the -store directory.
func (m *matrix) serve(t *testing.T, c cell, ex core.Executor, dir string, maxRunning int) (string, func()) {
	t.Helper()
	if daemonServes(c) {
		cfg := config{httpAddr: "127.0.0.1:0", storeDir: dir, pool: matrixPool, maxRunning: maxRunning}
		if c.exec == "mem" {
			cfg.fleetMin, cfg.fleetMax = 2, 2
		}
		d, err := newDaemon(cfg)
		if err != nil {
			t.Fatalf("newDaemon: %v", err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- d.serve() }()
		return "http://" + d.addr(), func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			d.shutdown(ctx)
			if err := <-serveErr; err != nil {
				t.Errorf("serve: %v", err)
			}
		}
	}
	opts := jobs.Options{Runtime: m.runtime(ex), Programs: m.progs, MaxRunning: maxRunning}
	var ds *checkpoint.DirStore
	if dir != "" {
		var err error
		if ds, err = checkpoint.NewDirStore(dir); err != nil {
			t.Fatal(err)
		}
		opts.Store = ds
	}
	mg := jobs.NewManager(opts)
	if _, _, err := mg.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	srv := httptest.NewServer(jobs.NewServer(mg, nil))
	return srv.URL, func() {
		srv.Close()
		mg.Close()
		if ds != nil {
			ds.Close()
		}
	}
}

func (m *matrix) checkResult(t *testing.T, c cell, st jobs.Status) {
	t.Helper()
	if st.State != jobs.StateCompleted {
		t.Fatalf("%s: state %q (error %q)", c.name(), st.State, st.Error)
	}
	if want := m.wantRes[c.prog]; st.Result != want {
		t.Errorf("%s: service result %q, RunDirect %q", c.name(), st.Result, want)
	}
}

// restart shuts a service down mid-job and starts a new one on its store. A
// blocker job holds the one running slot and is shut down mid-run after its
// first checkpoint, with the cell's job queued behind it. The new service
// recovers both: the blocker resumes, runs on and is cancelled, and every
// round it finished must equal a direct run's; then the cell's job runs.
func (m *matrix) restart(t *testing.T, c cell, ex core.Executor) {
	dir := t.TempDir()
	blocker := core.JobSpec{Name: "0-blocker", Program: "synthetic", Seed: matrixSeed, Checkpoint: &core.CheckpointSpec{Every: 4},
		Args: map[string]string{"rounds": "1000000", "samples": "64"}}
	spec := core.JobSpec{Name: c.name(), Program: c.prog, Seed: matrixSeed, Checkpoint: &core.CheckpointSpec{Every: 1}}
	base, stop := m.serve(t, c, ex, dir, 1)
	postJob(t, base, blocker)
	postJob(t, base, spec)
	waitStatus(t, base, blocker.Name, func(st jobs.Status) bool { return st.Checkpoints > 0 })
	if st := call(t, "GET", base+"/v1/jobs/"+spec.Name, nil, http.StatusOK); st.State != jobs.StateQueued {
		t.Fatalf("%s: state %q before the restart, want queued", spec.Name, st.State)
	}
	ran := call(t, "GET", base+"/v1/jobs/"+blocker.Name, nil, http.StatusOK).Rounds
	stop()

	base, stop = m.serve(t, c, ex, dir, 1) // on the same executor
	defer stop()
	waitStatus(t, base, blocker.Name, func(st jobs.Status) bool { return st.Resumed && st.Rounds > ran+4 })
	call(t, "DELETE", base+"/v1/jobs/"+blocker.Name, nil, http.StatusAccepted)
	_, rounds := followJob(t, base, blocker.Name)
	rounds = rounds[:len(rounds)-1] // the cancellation may cut the last one short
	blocker.Args["rounds"] = strconv.Itoa(len(rounds))
	if _, want, err := jobs.RunDirect(context.Background(), m.runtime(nil), m.progs, blocker); err != nil || fmt.Sprint(rounds) != fmt.Sprint(want) {
		t.Errorf("%s: the restarted blocker's rounds diverged (%v)\n got %v\nwant %v", c.name(), err, rounds, want)
	}
	st, _ := followJob(t, base, spec.Name)
	m.checkResult(t, c, st)
	if st.Checkpoints == 0 {
		t.Errorf("%s: no checkpoint written to the store", c.name())
	}
}

// A killed cell re-execs this test binary as a child that runs one program
// recorded every round to a store, so a crash point can SIGKILL it.
const (
	childEnv    = "WBTUNED_MATRIX_CHILD" // "<program> <executor>"
	childDirEnv = "WBTUNED_MATRIX_DIR"
	childLabel  = "matrix"
)

// runChild is the child's side: it runs the program, resumed from the
// store's checkpoint if it holds one, and writes its digest beside the store.
func runChild(t *testing.T) {
	prog, kind, _ := strings.Cut(os.Getenv(childEnv), " ")
	dir := os.Getenv(childDirEnv)
	m := newMatrix()
	ex, _ := m.executor(t, kind)
	ds, err := checkpoint.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	jo := core.JobOptions{Name: prog, Seed: matrixSeed, Checkpoint: &core.CheckpointPolicy{Store: ds, Every: 1, Label: childLabel}}
	st, err := checkpoint.LoadFrom(ds, childLabel)
	if err != nil {
		t.Fatal(err)
	}
	d := m.runJob(m.runtime(ex), jo, st, prog)
	if err := os.WriteFile(filepath.Join(dir, "digest"), []byte(d), 0o644); err != nil {
		t.Fatal(err)
	}
}

// child runs one child process for cell c over dir.
func child(t *testing.T, c cell, dir, crash string) error {
	procs := c.procs
	if procs == 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestDeterminismMatrix$", "-test.count=1")
	cmd.Env = append(os.Environ(), childEnv+"="+c.prog+" "+c.exec, childDirEnv+"="+dir, "WBTUNE_CRASH="+crash,
		"GOMAXPROCS="+strconv.Itoa(procs),
		// A race-enabled child otherwise sleeps a second at exit.
		"GORACE="+strings.TrimSpace(os.Getenv("GORACE")+" atexit_sleep_ms=0"))
	out, err := cmd.CombinedOutput()
	if err != nil && crash == "" {
		t.Fatalf("%s: resume child failed: %v\n%s", c.name(), err, out)
	}
	return err
}

// kill SIGKILLs a recorded run at the cell's crash point and resumes what
// it left in a second child. The first save is the first round's and a
// second always follows, so a kill before the second write or after the
// first leaves a checkpoint that is not complete.
func (m *matrix) kill(t *testing.T, c cell) {
	dir, crash := t.TempDir(), c.site+":1"
	if c.site == "ckpt-pre-write" {
		crash = c.site + ":2"
	}
	var ee *exec.ExitError
	if err := child(t, c, dir, crash); !errors.As(err, &ee) || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("%s: crash child ended with %v, want SIGKILL", c.name(), err)
	}
	digest := filepath.Join(dir, "digest")
	ds, err := checkpoint.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.LoadFrom(ds, childLabel)
	ds.Close() // the resume child is the directory's next writer
	if err != nil || st == nil || st.Complete {
		t.Fatalf("%s: the kill left no resumable checkpoint (state %v, error %v)", c.name(), st != nil, err)
	}
	child(t, c, dir, "")
	got, err := os.ReadFile(digest)
	if err != nil {
		t.Fatalf("%s: resume child: %v", c.name(), err)
	}
	m.check(t, c, c.prog, string(got))
}

// waitStatus polls a job's status until cond holds.
func waitStatus(t *testing.T, base, name string, cond func(jobs.Status) bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if st := call(t, "GET", base+"/v1/jobs/"+name, nil, http.StatusOK); cond(st) {
			return
		} else if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("%s: status %+v", name, st)
		}
	}
}
