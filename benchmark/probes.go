package main

import (
	"context"
	"flag"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/jobs"
	"repro/internal/opentuner"
	"repro/internal/remote"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/strategy"
)

// The probes time calls into each layer's public functions. They run after
// the traced window, in the same process, and are the same for every
// workload: a layer number that moves here and nowhere in the end-to-end
// metrics is a layer the workloads do not load.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// perOp runs f(n) three times and returns the median nanoseconds per
// operation.
func perOp(n int, f func(n int)) float64 {
	var runs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		f(n)
		runs = append(runs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(runs)
}

// probes fills the layer metrics that do not depend on the workload.
// feedbackLen is the feedback history the workload reaches, the size
// SortBestFirst is timed at.
func probes(m metrics, seed int64, procs, feedbackLen int) error {
	probeDistStrategy(m, seed, feedbackLen)
	probeStore(m)
	probeAgg(m)
	probeSched(m, procs)
	if err := probeCore(m); err != nil {
		return err
	}
	if err := probeWire(m); err != nil {
		return err
	}
	if err := probeCheckpoint(m, seed); err != nil {
		return err
	}
	if err := probeJobs(m, seed, procs); err != nil {
		return err
	}
	probeOpenTuner(m, seed)
	if p50 := m["http.job_p50_ms"]; p50 > 0 {
		// What the control plane adds to a job: everything beyond running
		// the same spec directly.
		m["jobs.control_plane_share"] = 1 - m["jobs.run_direct_ms"]/p50
	}
	return nil
}

func probeDistStrategy(m metrics, seed int64, feedbackLen int) {
	r := dist.NewRand(seed, 0)
	m["dist.uniform_draw_ns"] = perOp(2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			sink += unit.Draw(r)
		}
	})
	st := strategy.Rand()
	m["strategy.draw_ns"] = perOp(500_000, func(n int) {
		for i := 0; i < n; i++ {
			s := st.Sampler(seed, i&255, 256, nil)
			sink += s.Draw("x", unit)
			if rc, ok := s.(strategy.Recycler); ok {
				rc.Recycle()
			}
		}
	})
	if feedbackLen == 0 {
		return
	}
	// The runtime sorts a copy of the whole visible history, in arrival
	// order, at the start of every scored round.
	params := map[string]float64{"x": 0.5}
	history := make([]strategy.Feedback, feedbackLen)
	for i := range history {
		history[i] = strategy.Feedback{Params: params, Score: r.Float64()}
	}
	scratch := make([]strategy.Feedback, feedbackLen)
	m["strategy.sort_feedback_us"] = 1e-3 * perOp(5, func(n int) {
		for i := 0; i < n; i++ {
			copy(scratch, history)
			strategy.SortBestFirst(scratch, false)
		}
	})
}

func probeStore(m metrics) {
	e := store.NewExposed()
	for i := 0; i < 64; i++ {
		e.Set("global", fmt.Sprintf("k%d", i), float64(i))
	}
	m["store.get_ns"] = perOp(2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			v, _ := e.Get("global", "k17")
			sink += v.(float64)
		}
	})
	var knob any = 1.5
	m["store.set_ns"] = perOp(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			e.Set("global", "knob", knob)
		}
	})
	// One key changed out of 65: the scan a per-round delta ship makes.
	since := e.Version()
	e.Set("global", "knob", knob)
	m["store.changed_since_us"] = 1e-3 * perOp(20_000, func(n int) {
		for i := 0; i < n; i++ {
			ch, _ := e.ChangedSince(since)
			sink += float64(len(ch))
		}
	})
	syms := store.NewSymbols()
	for _, name := range []string{"alpha", "beta", "input", "y", "x", "k", "sum", "knob"} {
		syms.Intern(name)
	}
	m["store.intern_ns"] = perOp(5_000_000, func(n int) {
		for i := 0; i < n; i++ {
			sink += float64(syms.Intern("input"))
		}
	})
}

func probeAgg(m metrics) {
	const batches, size = 200_000, 4
	items := []any{1.0, 2.0, 3.0, 4.0}
	var put, drain []float64
	for rep := 0; rep < 3; rep++ {
		ring := agg.NewRing(batches * size) // roomy, so PutBatch never waits
		t0 := time.Now()
		for i := 0; i < batches; i++ {
			ring.PutBatch(items)
		}
		put = append(put, float64(time.Since(t0))/batches)
		t0 = time.Now()
		sink += float64(len(ring.Drain()))
		drain = append(drain, float64(time.Since(t0))/(batches*size))
	}
	m["agg.ring_putbatch_ns"] = median(put)
	m["agg.ring_drain_ns"] = median(drain)
	m["agg.keyof_ns"] = perOp(2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			sink += float64(len(agg.KeyOf(1.5)))
		}
	})
}

func probeSched(m metrics, procs int) {
	s := sched.New(4, false)
	m["sched.acquire_release_ns"] = perOp(2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			s.Acquire(sched.SpawnS, 1)
			s.Release()
		}
	})
	// procs goroutines sharing one slot: every admission but one queues.
	one := sched.New(1, false)
	m["sched.acquire_contended_ns"] = perOp(200_000, func(n int) {
		var wg sync.WaitGroup
		for g := 0; g < procs; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n/procs; i++ {
					one.Acquire(sched.SpawnS, 1)
					one.Release()
				}
			}()
		}
		wg.Wait()
	})
}

// probeCore times the steady-state primitives inside one sampling process,
// as internal/bench's float/load/commit_steady_state rows do, and the job
// spec codec.
func probeCore(m metrics) error {
	steady := func(fn func(sp *core.SP, n int)) (float64, error) {
		var d float64
		t := core.New(core.Options{MaxPool: 1, Seed: 1})
		err := t.Run(func(p *core.P) error {
			p.Expose("input", 1.25)
			_, err := p.Region(core.RegionSpec{Name: "probe", Samples: 1}, func(sp *core.SP) error {
				d = perOp(2_000_000, func(n int) { fn(sp, n) })
				return nil
			})
			return err
		})
		return d, err
	}
	for name, fn := range map[string]func(sp *core.SP, n int){
		"core.float_ns": func(sp *core.SP, n int) {
			for i := 0; i < n; i++ {
				sink += sp.Float("x", unit)
			}
		},
		"core.load_ns": func(sp *core.SP, n int) {
			for i := 0; i < n; i++ {
				sink += sp.Load("input").(float64)
			}
		},
		"core.commit_ns": func(sp *core.SP, n int) {
			var v any = 2.0
			for i := 0; i < n; i++ {
				sp.Commit("y", v)
			}
		},
	} {
		d, err := steady(fn)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m[name] = d
	}

	spec := svcSpec(1, 42, core.PriorityHigh)
	data, err := core.EncodeSpec(&spec)
	if err != nil {
		return err
	}
	m["core.spec_encode_ns"] = perOp(200_000, func(n int) {
		for i := 0; i < n; i++ {
			b, _ := core.EncodeSpec(&spec) // encoded once above without error
			sink += float64(len(b))
		}
	})
	m["core.spec_decode_ns"] = perOp(200_000, func(n int) {
		for i := 0; i < n; i++ {
			s, _ := core.DecodeSpec(data) // data is EncodeSpec's own output
			sink += float64(s.Seed)
		}
	})
	return nil
}

// probeWire reads the wire codec's own benchmark, remote.WirePerf, with the
// benchmark time cut from 1 s to 100 ms per row.
func probeWire(m metrics) error {
	if flag.Lookup("test.benchtime") == nil {
		testing.Init()
	}
	if err := flag.Set("test.benchtime", "100ms"); err != nil {
		return err
	}
	pts, err := remote.WirePerf()
	if err != nil {
		return err
	}
	for _, p := range pts {
		switch p.Name {
		case "wire_task_encode", "wire_task_decode", "wire_results_encode", "wire_results_decode", "wire_frame_roundtrip":
			m["remote."+p.Name+"_ns"] = p.NsPerOp
		case "wire_mux_roundtrip_1mib":
			m["remote.wire_mux_roundtrip_1mib_us"] = p.NsPerOp / 1e3
		}
	}
	return nil
}

// captureStore keeps every checkpoint written through it.
type captureStore struct {
	checkpoint.MemStore
	mu    sync.Mutex
	saves [][]byte
}

func (c *captureStore) Save(label string, data []byte) error {
	c.mu.Lock()
	c.saves = append(c.saves, append([]byte(nil), data...))
	c.mu.Unlock()
	return c.MemStore.Save(label, data)
}

// probeCheckpoint records a five-round job, takes the checkpoint written
// after its fourth round, and times the codec on it and a resume from it
// (ResumeJob plus the replay of the four journaled rounds and one live one).
func probeCheckpoint(m metrics, seed int64) error {
	program := func(t *core.Tuner) error {
		return t.Run(func(p *core.P) error {
			spec := roundsSpec()
			p.Expose("knob", 1.0)
			for r := 0; r < 5; r++ {
				if _, err := p.Region(spec, roundsBody("knob")); err != nil {
					return err
				}
			}
			return nil
		})
	}
	cs := &captureStore{}
	rt := core.NewRuntime(core.RuntimeOptions{MaxPool: 2})
	if err := program(rt.NewJob(core.JobOptions{Seed: seed, Checkpoint: &core.CheckpointPolicy{Store: cs, Every: 1}})); err != nil {
		return fmt.Errorf("recorded job: %w", err)
	}
	if len(cs.saves) < 4 {
		return fmt.Errorf("recorded job wrote %d checkpoints, want at least 4", len(cs.saves))
	}
	data := cs.saves[3]
	st, err := checkpoint.DecodeBytes(data)
	if err != nil {
		return err
	}
	m["checkpoint.state_bytes"] = float64(len(data))
	m["checkpoint.encode_us"] = 1e-3 * perOp(2_000, func(n int) {
		for i := 0; i < n; i++ {
			b, _ := checkpoint.EncodeBytes(st) // st decoded from a valid checkpoint
			sink += float64(len(b))
		}
	})
	m["checkpoint.decode_us"] = 1e-3 * perOp(2_000, func(n int) {
		for i := 0; i < n; i++ {
			s, _ := checkpoint.DecodeBytes(data)
			sink += float64(len(s.Exposed))
		}
	})
	var resumes []float64
	for i := 0; i < 20; i++ {
		// A capture resumes once per process, so each run decodes afresh and
		// takes a new identity.
		st, err := checkpoint.DecodeBytes(data)
		if err != nil {
			return err
		}
		st.ID[0], st.ID[1] = byte(i), 0xbe
		t0 := time.Now()
		job, err := rt.ResumeJob(core.JobOptions{}, st)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		if err := program(job); err != nil {
			return fmt.Errorf("resumed job: %w", err)
		}
		resumes = append(resumes, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m["checkpoint.resume_us"] = median(resumes)
	return nil
}

// probeJobs times Manager.Submit with no HTTP in front, and the service
// workload's job run directly with no control plane at all.
func probeJobs(m metrics, seed int64, procs int) error {
	svc := &serviceJobs{e: env{procs: procs}}
	programs := jobs.NewRegistry()
	programs.Register(svcProgram, svc.program)
	rt := core.NewRuntime(core.RuntimeOptions{MaxPool: 2 * procs})

	var direct []float64
	for i := 0; i < 30; i++ {
		t0 := time.Now()
		if _, _, err := jobs.RunDirect(context.Background(), rt, programs, svcSpec(0, seed+int64(i), core.PriorityNormal)); err != nil {
			return fmt.Errorf("direct run: %w", err)
		}
		direct = append(direct, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	m["jobs.run_direct_ms"] = median(direct)

	mgr := jobs.NewManager(jobs.Options{
		Runtime: rt, Programs: programs, Store: &checkpoint.MemStore{}, MaxRunning: procs, MaxQueued: 1 << 20,
	})
	defer mgr.Close()
	var submits []float64
	for i := 0; i < 200; i++ {
		spec := svcSpec(uint64(i+1), seed, core.PriorityNormal)
		t0 := time.Now()
		if _, err := mgr.Submit(spec); err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		submits = append(submits, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m["jobs.submit_us"] = median(submits)
	for i := 0; i < 200; i++ {
		if _, err := mgr.Wait(context.Background(), svcName(uint64(i+1))); err != nil {
			return err
		}
	}
	return nil
}

// probeOpenTuner times the black-box baseline's own search loop on a free
// objective: evaluations per second of tuner overhead.
func probeOpenTuner(m metrics, seed int64) {
	space := opentuner.Space{{Name: "a", D: unit}, {Name: "b", D: unit}, {Name: "c", D: unit}, {Name: "d", D: unit}}
	const evals = 2000
	obj := func(cfg map[string]float64) (float64, any) {
		return -(cfg["a"]-0.3)*(cfg["a"]-0.3) - (cfg["b"]-0.7)*(cfg["b"]-0.7), nil
	}
	d := perOp(1, func(int) {
		best := opentuner.New(space, obj, opentuner.Options{Seed: seed, MaxEvals: evals}).Run()
		sink += best.Score
	})
	m["opentuner.evals_per_s"] = evals / (d / 1e9)
}
