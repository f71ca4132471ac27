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
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
)

func main() {
	name := flag.String("bench", "Canny", "benchmark name (see -list)")
	mode := flag.String("mode", "wb", "native | wb | ot")
	seed := flag.Int64("seed", 1, "workload seed")
	budget := flag.Float64("budget", 0, "work-unit budget (0 = benchmark default)")
	list := flag.Bool("list", false, "list benchmark names and exit")
	metricsPath := flag.String("metrics", "", `write Prometheus text-format metrics to this file after the run ("-" = stdout)`)
	tracePath := flag.String("trace", "", `write the runtime trace as JSONL to this file ("-" = stdout)`)
	httpAddr := flag.String("http", "", "serve /metrics, /metrics.json and /debug/trace on this address (e.g. :8080) and block after the run")
	ckptDir := flag.String("checkpoint-dir", "", "write periodic job checkpoints to this directory (wb mode only)")
	ckptEvery := flag.Int("checkpoint-every", 8, "rounds between auto-checkpoints (with -checkpoint-dir)")
	resume := flag.Bool("resume", false, "resume from the checkpoint in -checkpoint-dir if one exists")
	fleetMax := flag.Int("fleet-max", 0, "autoscale an elastic loopback sampling fleet up to this many workers (wb mode only; 0 = in-process sampling)")
	fleetMin := flag.Int("fleet-min", 1, "minimum elastic fleet size (with -fleet-max)")
	server := flag.String("server", "", "submit to this wbtuned control plane instead of running locally (e.g. http://localhost:8437)")
	program := flag.String("program", "synthetic", "service program name (with -server)")
	jobName := flag.String("job-name", "", "job name on the server (with -server; default cli-<program>-<seed>)")
	tenant := flag.String("tenant", "", "tenant the job is accounted to (with -server)")
	class := flag.String("class", "", "priority class: low, normal or high (with -server)")
	args := argsFlag{}
	flag.Var(args, "arg", "program argument key=value, repeatable (with -server)")
	flag.Parse()

	if *server != "" {
		cls, err := core.ParsePriorityClass(*class)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wbtune: -class: %v\n", err)
			os.Exit(2)
		}
		name := *jobName
		if name == "" {
			name = fmt.Sprintf("cli-%s-%d", *program, *seed)
		}
		os.Exit(runServerMode(*server, core.JobSpec{
			Name:    name,
			Tenant:  *tenant,
			Class:   cls,
			Program: *program,
			Args:    args,
			Seed:    *seed,
			Budget:  *budget,
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

	// Observability: one registry and trace for the whole run, installed
	// into every white-box tuner the bench harness creates.
	observing := *metricsPath != "" || *tracePath != "" || *httpAddr != ""
	var (
		reg   *obs.Registry
		trace *core.Trace
	)
	if observing {
		reg = obs.NewRegistry()
		trace = core.NewTrace()
		restore := bench.Observe(reg, trace)
		defer restore()
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

	if *fleetMax > 0 {
		restore, err := bench.EnableElasticFleet(*fleetMin, *fleetMax, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wbtune: -fleet-max: %v\n", err)
			os.Exit(1)
		}
		defer restore()
	} else if *fleetMin != 1 {
		fmt.Fprintln(os.Stderr, "wbtune: -fleet-min requires -fleet-max")
		os.Exit(2)
	}

	if *ckptDir != "" {
		restore, err := bench.EnableCheckpointing(*ckptDir, *ckptEvery, *resume)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wbtune: -checkpoint-dir: %v\n", err)
			os.Exit(1)
		}
		defer restore()
	} else if *resume {
		fmt.Fprintln(os.Stderr, "wbtune: -resume requires -checkpoint-dir")
		os.Exit(2)
	}

	var out bench.Outcome
	switch *mode {
	case "native":
		out = b.Native(*seed)
	case "wb":
		out = b.WBTune(*seed, *budget)
	case "ot":
		bud := *budget
		if bud == 0 {
			bud = b.WBTune(*seed, 0).Work // same budget WBTuner converged with
		}
		out = b.OTTune(*seed, bud)
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
		if err := writeTo(*metricsPath, reg.WritePrometheus); err != nil {
			fmt.Fprintf(os.Stderr, "wbtune: -metrics: %v\n", err)
			os.Exit(1)
		}
	}
	if *tracePath != "" {
		if err := writeTo(*tracePath, trace.WriteJSONL); err != nil {
			fmt.Fprintf(os.Stderr, "wbtune: -trace: %v\n", err)
			os.Exit(1)
		}
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
