// Command wbtune runs one benchmark program under a chosen tuning mode and
// prints the outcome — the quick way to try the library on a single
// workload:
//
//	wbtune -bench Canny -mode wb
//	wbtune -bench SVM -mode ot -budget 200
//	wbtune -bench Canny -mode wb -metrics /dev/stdout
//	wbtune -bench Canny -mode wb -trace trace.jsonl
//	wbtune -bench Canny -mode wb -http :8080
//	wbtune -bench Canny -mode wb -fleet-max 8
//	wbtune -list
//	wbtune -server http://localhost:8437 -program canny -arg stage1=8
//
// -server switches wbtune into client mode: instead of running locally, it
// submits a JobSpec to a wbtuned control plane, streams the job's rounds,
// and prints the final result (see cmd/wbtuned). In client mode -program,
// -job-name, -tenant, -class and repeatable -arg key=value flags shape the
// spec; -seed and -budget carry over.
//
// -metrics writes the run's metrics in Prometheus text format after the
// run ("-" for stdout); -trace writes the runtime trace as JSONL; -http
// serves /metrics (Prometheus), /metrics.json (JSON snapshot) and
// /debug/trace (JSONL) and keeps serving after the run until interrupted.
// Metrics and traces only cover white-box (wb) runs — the native and
// black-box paths do not go through the instrumented runtime.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/bench"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/remote"
)

// config is what main's flags decide about a local tuning run — kept
// separate so tests can check it without going through the flag parser.
type config struct {
	seed      int64
	budget    float64
	ckptDir   string
	ckptEvery int
	resume    bool
	fleetMin  int
	fleetMax  int
}

// check refuses the flags main cannot honour: a negative, NaN or infinite
// -budget, -fleet-min without -fleet-max (fleetMin is 1 unless the flag is
// given) or above it, and -resume without -checkpoint-dir.
func (c config) check() error {
	if c.budget < 0 || math.IsNaN(c.budget) || math.IsInf(c.budget, 0) {
		return fmt.Errorf("-budget %v: want a finite non-negative number", c.budget)
	}
	if c.fleetMax == 0 && c.fleetMin != 1 {
		return errors.New("-fleet-min requires -fleet-max")
	}
	if c.fleetMax > 0 && c.fleetMin > c.fleetMax {
		return errors.New("-fleet-min exceeds -fleet-max")
	}
	if c.resume && c.ckptDir == "" {
		return errors.New("-resume requires -checkpoint-dir")
	}
	return nil
}

// wb runs b's white-box program under budget on the tuner the flags
// describe: one job (metric label job=<benchmark>) on a pool of 8,
// in-process or on an elastic loopback fleet (-fleet-max), reporting to reg
// and trace, and with -checkpoint-dir recording under the label run001 or,
// with -resume, continuing a partial checkpoint found there. A resume that
// diverged from its journal exits 1; any other run error already excluded
// its samples from the outcome.
func (c config) wb(b bench.Benchmark, budget float64, reg *obs.Registry, trace *core.Trace) bench.Outcome {
	ropts := core.RuntimeOptions{MaxPool: 8, Obs: reg}
	var rt *core.Runtime
	if c.fleetMax == 0 {
		rt = core.NewRuntime(ropts)
	} else {
		frt, stop, err := remote.StartLoopbackFleet(c.fleetMin, c.fleetMax, ropts)
		exitOn("-fleet-max", err)
		defer stop()
		rt = frt
	}
	jo := core.JobOptions{Name: b.Name(), Seed: c.seed, Budget: budget, Trace: trace}
	if c.ckptDir != "" {
		store, err := checkpoint.NewDirStore(c.ckptDir)
		exitOn("-checkpoint-dir", err)
		defer store.Close()
		jo.Checkpoint = &core.CheckpointPolicy{Store: store, Every: c.ckptEvery, Label: "run001"}
		if c.resume {
			st, err := checkpoint.LoadFrom(store, "run001")
			exitOn("-resume", err)
			if st != nil && !st.Complete { // a finished run starts fresh
				jo.Resume = st
			}
		}
	}
	t := rt.NewJob(jo)
	defer t.Close()
	out, err := b.Tune(t, c.seed)
	if errors.Is(err, core.ErrCheckpointDiverged) {
		exitOn("-resume", err)
	}
	return out
}

// exitOn exits 1 with a message naming what failed when err is non-nil.
func exitOn(what string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "wbtune: %s: %v\n", what, err)
		os.Exit(1)
	}
}

func main() {
	var cfg config
	name := flag.String("bench", "Canny", "benchmark name (see -list)")
	mode := flag.String("mode", "wb", "native | wb | ot")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.budget, "budget", 0, "work-unit budget (0 = benchmark default)")
	list := flag.Bool("list", false, "list benchmark names and exit")
	metricsPath := flag.String("metrics", "", `write Prometheus text-format metrics to this file after the run ("-" = stdout)`)
	tracePath := flag.String("trace", "", `write the runtime trace as JSONL to this file ("-" = stdout)`)
	httpAddr := flag.String("http", "", "serve /metrics, /metrics.json and /debug/trace on this address (e.g. :8080) and block after the run")
	flag.StringVar(&cfg.ckptDir, "checkpoint-dir", "", "write periodic job checkpoints to this directory (wb mode only)")
	flag.IntVar(&cfg.ckptEvery, "checkpoint-every", 8, "rounds between auto-checkpoints (with -checkpoint-dir)")
	flag.BoolVar(&cfg.resume, "resume", false, "resume from the checkpoint in -checkpoint-dir if one exists")
	flag.IntVar(&cfg.fleetMax, "fleet-max", 0, "autoscale an elastic loopback sampling fleet up to this many workers (wb mode only; 0 = in-process sampling)")
	flag.IntVar(&cfg.fleetMin, "fleet-min", 1, "minimum elastic fleet size (with -fleet-max)")
	server := flag.String("server", "", "submit to this wbtuned control plane instead of running locally (e.g. http://localhost:8437)")
	program := flag.String("program", "synthetic", "service program name (with -server)")
	jobName := flag.String("job-name", "", "job name on the server (with -server; default cli-<program>-<seed>)")
	tenant := flag.String("tenant", "", "tenant the job is accounted to (with -server)")
	class := flag.String("class", "", "priority class: low, normal or high (with -server)")
	args := argsFlag{}
	flag.Var(args, "arg", "program argument key=value, repeatable (with -server)")
	flag.Parse()
	if err := cfg.check(); err != nil {
		fmt.Fprintf(os.Stderr, "wbtune: %v\n", err)
		os.Exit(2)
	}

	if *server != "" {
		cls, err := core.ParsePriorityClass(*class)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wbtune: -class: %v\n", err)
			os.Exit(2)
		}
		name := *jobName
		if name == "" {
			name = fmt.Sprintf("cli-%s-%d", *program, cfg.seed)
		}
		os.Exit(runServerMode(*server, core.JobSpec{
			Name:    name,
			Tenant:  *tenant,
			Class:   cls,
			Program: *program,
			Args:    args,
			Seed:    cfg.seed,
			Budget:  cfg.budget,
		}))
	}

	if *list {
		for _, b := range bench.All() {
			dir := "higher"
			if !b.HigherIsBetter() {
				dir = "lower"
			}
			fmt.Printf("%-12s %2d params, %s sampling, %s aggregation (%s is better)\n",
				b.Name(), b.ParamCount(), b.SamplingName(), b.AggName(), dir)
		}
		return
	}

	b := bench.ByName(*name)
	if b == nil {
		fmt.Fprintf(os.Stderr, "wbtune: unknown benchmark %q (try -list)\n", *name)
		os.Exit(2)
	}

	// Observability: one registry and trace for the run's white-box tuner.
	var (
		reg   *obs.Registry
		trace *core.Trace
	)
	if *metricsPath != "" || *tracePath != "" || *httpAddr != "" {
		reg = obs.NewRegistry()
		trace = core.NewTrace()
	}
	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = reg.WritePrometheus(w)
		})
		mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = reg.WriteJSON(w)
		})
		mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = trace.WriteJSONL(w)
		})
		srv := &http.Server{Addr: *httpAddr, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "wbtune: -http: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	var out bench.Outcome
	switch *mode {
	case "native":
		out = b.Native(cfg.seed)
	case "wb":
		out = cfg.wb(b, cfg.budget, reg, trace)
	case "ot":
		bud := cfg.budget
		if bud == 0 {
			bud = cfg.wb(b, 0, reg, trace).Work // same budget WBTuner converged with
		}
		out = b.OTTune(cfg.seed, bud)
	default:
		fmt.Fprintf(os.Stderr, "wbtune: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	fmt.Printf("benchmark:  %s (%s)\n", b.Name(), *mode)
	fmt.Printf("score:      %.4f\n", out.Score)
	fmt.Printf("work:       %.1f units (serial %.1f, parallel %.1f)\n",
		out.Work, out.WorkSerial, out.WorkParallel)
	fmt.Printf("samples:    %d configurations\n", out.Samples)

	if *metricsPath != "" {
		exitOn("-metrics", writeTo(*metricsPath, reg.WritePrometheus))
	}
	if *tracePath != "" {
		exitOn("-trace", writeTo(*tracePath, trace.WriteJSONL))
	}
	if *httpAddr != "" {
		fmt.Printf("serving metrics on %s (/metrics, /metrics.json, /debug/trace); Ctrl-C to exit\n", *httpAddr)
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
}

// writeTo streams write(w) to path, treating "-" and /dev/stdout as
// standard output (opening /dev/stdout with truncation is not portable).
func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" || path == "/dev/stdout" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
