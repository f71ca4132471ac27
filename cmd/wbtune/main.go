// Command wbtune runs one benchmark program under a chosen tuning mode and
// prints the outcome — the quick way to try the library on a single
// workload:
//
//	wbtune -bench Canny -mode wb
//	wbtune -bench SVM -mode ot -budget 200
//	wbtune -bench Canny -mode wb -metrics /dev/stdout
//	wbtune -bench Canny -mode wb -trace trace.jsonl
//	wbtune -bench Canny -mode wb -http :8080
//	wbtune -list
//	wbtune -server http://localhost:8437 -program canny -arg stage1=8
//	wbtune -server http://localhost:8437 -program fasta -checkpoint-every 1
//
// -server switches wbtune into client mode: instead of running locally, it
// submits a JobSpec to a wbtuned control plane, streams the job's rounds,
// and prints the final result (see cmd/wbtuned). Every benchmark is a
// wbtuned program under the service name -list prints. In client mode
// -program, -job-name, -tenant, -class, -checkpoint-every and repeatable
// -arg key=value flags shape the spec (a local run refuses them); -seed and
// -budget carry over. Checkpoints, resume after a restart and sampling
// fleets are the daemon's: wbtuned -store and -fleet-max.
//
// -metrics writes the run's metrics in Prometheus text format after the
// run ("-" for stdout); -trace writes the runtime trace as JSONL; -http
// serves /metrics (Prometheus), /metrics.json (JSON snapshot) and
// /debug/trace (JSONL) and keeps serving after the run until interrupted.
// Metrics and traces only cover white-box (wb) runs — the native and
// black-box paths do not go through the instrumented runtime.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
)

// config is what main's flags decide about a run — kept separate so tests
// can check it without going through the flag parser.
type config struct {
	seed      int64
	budget    float64
	ckptEvery int
	server    string
	// client lists the client-mode flags given on the command line.
	client []string
}

// clientFlags are the flags that only shape a job submitted with -server.
var clientFlags = map[string]bool{
	"program": true, "arg": true, "tenant": true, "class": true,
	"job-name": true, "checkpoint-every": true,
}

// check refuses the flags main cannot honour: a negative, NaN or infinite
// -budget, a negative -checkpoint-every, and a client-mode flag without
// -server (a local run would silently ignore it).
func (c config) check() error {
	if c.budget < 0 || math.IsNaN(c.budget) || math.IsInf(c.budget, 0) {
		return fmt.Errorf("-budget %v: want a finite non-negative number", c.budget)
	}
	if c.ckptEvery < 0 {
		return fmt.Errorf("-checkpoint-every %d: want a non-negative integer", c.ckptEvery)
	}
	if c.server == "" && len(c.client) > 0 {
		return fmt.Errorf("-%s requires -server", c.client[0])
	}
	return nil
}

// wb runs b's white-box program under budget as one in-process job (metric
// label job=<benchmark>) on a pool of 8, reporting to reg and trace. A run
// error already excluded its samples from the outcome.
func (c config) wb(b bench.Benchmark, budget float64, reg *obs.Registry, trace *core.Trace) bench.Outcome {
	rt := core.NewRuntime(core.RuntimeOptions{MaxPool: 8, Obs: reg})
	t := rt.NewJob(core.JobOptions{Name: b.Name(), Seed: c.seed, Budget: budget, Trace: trace})
	defer t.Close()
	out, _ := b.Tune(context.Background(), t, c.seed)
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
	flag.StringVar(&cfg.server, "server", "", "submit to this wbtuned control plane instead of running locally (e.g. http://localhost:8437)")
	program := flag.String("program", "synthetic", "service program name (with -server)")
	jobName := flag.String("job-name", "", "job name on the server (with -server; default cli-<program>-<seed>)")
	tenant := flag.String("tenant", "", "tenant the job is accounted to (with -server)")
	class := flag.String("class", "", "priority class: low, normal or high (with -server)")
	flag.IntVar(&cfg.ckptEvery, "checkpoint-every", 0, "ask the server to checkpoint the job every N rounds (with -server; 0 = no checkpoints)")
	args := argsFlag{}
	flag.Var(args, "arg", "program argument key=value, repeatable (with -server)")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if clientFlags[f.Name] {
			cfg.client = append(cfg.client, f.Name)
		}
	})
	if err := cfg.check(); err != nil {
		fmt.Fprintf(os.Stderr, "wbtune: %v\n", err)
		os.Exit(2)
	}

	if cfg.server != "" {
		cls, err := core.ParsePriorityClass(*class)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wbtune: -class: %v\n", err)
			os.Exit(2)
		}
		name := *jobName
		if name == "" {
			name = fmt.Sprintf("cli-%s-%d", *program, cfg.seed)
		}
		spec := core.JobSpec{
			Name:    name,
			Tenant:  *tenant,
			Class:   cls,
			Program: *program,
			Args:    args,
			Seed:    cfg.seed,
			Budget:  cfg.budget,
		}
		if cfg.ckptEvery > 0 {
			spec.Checkpoint = &core.CheckpointSpec{Every: cfg.ckptEvery}
		}
		os.Exit(runServerMode(os.Stdout, cfg.server, spec))
	}

	if *list {
		for _, b := range bench.All() {
			dir := "higher"
			if !b.HigherIsBetter() {
				dir = "lower"
			}
			fmt.Printf("%-12s %-10s %2d params, %s sampling, %s aggregation (%s is better)\n",
				b.Name(), bench.ServiceName(b), b.ParamCount(), b.SamplingName(), b.AggName(), dir)
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
