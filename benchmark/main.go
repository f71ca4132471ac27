// Command benchmark is the repository's one end-to-end and per-layer
// benchmark. One invocation runs one workload:
//
//	go run ./benchmark --workload region_wide --seed 1 --seconds 15 --trace 0
//
// and prints, as the last line of standard output, one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). Two
// more commands work on whole sets of runs:
//
//	go run ./benchmark repeat -n 2          # same code twice, must agree
//	go run ./benchmark compare A.json B.json
//
// See README.md in this directory for the catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// procs is the parallelism everything runs at: the machine's, capped at 4 so
// numbers from a large box stay comparable with the 2-core reference.
func procs() int {
	return min(runtime.NumCPU(), 4)
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "repeat":
			os.Exit(repeatMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: table1, region_wide, region_rounds, fleet_delta or service_jobs")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 15, "length of the measured window, after a 2 s warm-up")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*workload)
	if w == nil || fs.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "benchmark: need --workload, one of:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.Name)
		}
		fmt.Fprintln(os.Stderr)
		return 2
	}
	n := procs()
	runtime.GOMAXPROCS(n)
	d := time.Duration(*seconds * float64(time.Second))
	run := runEndToEnd
	if *trace != 0 {
		run = runTraced
	}
	res, err := run(w, *seed, n, d)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
