package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runSet is every workload run a few times on one build: what repeat writes
// and compare reads.
type runSet struct {
	Procs     int                     `json:"procs"`
	Seconds   float64                 `json:"seconds"`
	Workloads map[string]*workloadSet `json:"workloads"`
}

// workloadSet is one workload's runs: each end-to-end metric's value per
// run, and the correctness counters summed.
type workloadSet struct {
	Runs      int                  `json:"runs"`
	Incorrect int                  `json:"incorrect"` // runs whose output checks failed
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string][]float64 `json:"metrics"`
}

func (w *workloadSet) add(r result) {
	w.Runs++
	if !r.Correct {
		w.Incorrect++
	}
	w.Attempted += r.Attempted
	w.Failed += r.Failed
	if w.Metrics == nil {
		w.Metrics = make(map[string][]float64)
	}
	for name, v := range r.Metrics {
		w.Metrics[name] = append(w.Metrics[name], v.Value)
	}
}

// verdict of one workload x metric pairing.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge applies a metric's bound to a baseline and a candidate sample. The
// pairing is unresolved when the baseline's own run-to-run spread is wider
// than the bound: a difference that small cannot be told from noise.
func judge(d metricDef, base, cand []float64) (verdict string, baseMed, candMed, baseSpread float64) {
	baseMed, candMed, baseSpread = median(base), median(cand), spread(base)
	if baseMed == 0 {
		return unresolved, baseMed, candMed, baseSpread
	}
	worseBy := (candMed - baseMed) / baseMed
	if d.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case baseSpread > d.Bound:
		return unresolved, baseMed, candMed, baseSpread
	case worseBy > d.Bound:
		return worse, baseMed, candMed, baseSpread
	case worseBy < -d.Bound:
		return better, baseMed, candMed, baseSpread
	}
	return same, baseMed, candMed, baseSpread
}

// compareSets prints one row per workload x end-to-end metric and returns
// whether the candidate regressed: a metric worse than its bound, an output
// check failed, or more operations failed than in the baseline.
func compareSets(out io.Writer, a, b *runSet) (regressed bool) {
	fmt.Fprintf(out, "%-14s %-19s %-10s %12s %12s %7s %7s %6s\n",
		"workload", "metric", "verdict", "base", "candidate", "ratio", "spread", "bound")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(out, "%-14s missing from one set\n", w.Name)
			regressed = true
			continue
		}
		for _, d := range endToEnd {
			v, base, cand, sp := judge(d, wa.Metrics[d.Name], wb.Metrics[d.Name])
			ratio := 0.0
			if base != 0 {
				ratio = cand / base
			}
			fmt.Fprintf(out, "%-14s %-19s %-10s %12.4f %12.4f %7.3f %6.1f%% %5.0f%%\n",
				w.Name, d.Name, v, base, cand, ratio, 100*sp, 100*d.Bound)
			if v == worse {
				regressed = true
			}
		}
		shareA := float64(wa.Failed) / float64(max(wa.Attempted, 1))
		shareB := float64(wb.Failed) / float64(max(wb.Attempted, 1))
		if wb.Incorrect > 0 || shareB > shareA {
			fmt.Fprintf(out, "%-14s %d of %d runs failed an output check; failed operations %d of %d (base %d of %d)\n",
				w.Name, wb.Incorrect, wb.Runs, wb.Failed, wb.Attempted, wa.Failed, wa.Attempted)
			regressed = true
		}
	}
	return regressed
}

func readSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare BASE.json CANDIDATE.json")
		return 2
	}
	var sets [2]*runSet
	for i, path := range args {
		var err error
		if sets[i], err = readSet(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			return 2
		}
	}
	if compareSets(os.Stdout, sets[0], sets[1]) {
		return 1
	}
	return 0
}

// runChild runs one workload in a process of its own, as the driver does,
// so no run inherits another's heap, and parses the result line.
func runChild(self, workload string, seed int64, seconds float64) (result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return result{}, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return r, nil
}

// repeatMain runs the full set of workloads n times on this build, writes
// each set, and fails unless every later set agrees with the first within
// the metrics' own bounds — the benchmark's repeatability check.
func repeatMain(args []string) int {
	fs := flag.NewFlagSet("benchmark repeat", flag.ContinueOnError)
	n := fs.Int("n", 2, "how many full sets to run")
	runs := fs.Int("runs", 3, "runs per workload in a set, each with its own seed")
	seconds := fs.Float64("seconds", 15, "measured window of each run")
	seed := fs.Int64("seed", 1, "seed of a workload's first run; later runs count up")
	out := fs.String("out", filepath.Join(outDir, "set"), "sets are written to <out>-<i>.json")
	if err := fs.Parse(args); err != nil || *n < 1 || *runs < 1 {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark repeat:", err)
		return 2
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark repeat:", err)
		return 2
	}
	var sets []*runSet
	for i := 1; i <= *n; i++ {
		set := &runSet{Procs: procs(), Seconds: *seconds, Workloads: make(map[string]*workloadSet)}
		for _, w := range workloads {
			ws := &workloadSet{}
			set.Workloads[w.Name] = ws
			for r := 0; r < *runs; r++ {
				res, err := runChild(self, w.Name, *seed+int64(r), *seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark repeat:", err)
					return 2
				}
				ws.add(res)
			}
			fmt.Fprintf(os.Stderr, "set %d: %s done\n", i, w.Name)
		}
		data, _ := json.MarshalIndent(set, "", "  ") // a runSet of numbers and strings always marshals
		path := fmt.Sprintf("%s-%d.json", *out, i)
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark repeat:", err)
			return 2
		}
		sets = append(sets, set)
	}
	status := 0
	for _, ws := range sets[0].Workloads {
		if ws.Incorrect > 0 || ws.Failed > 0 {
			status = 1
		}
	}
	for i := 1; i < len(sets); i++ {
		fmt.Printf("set 1 against set %d\n", i+1)
		if compareSets(os.Stdout, sets[0], sets[i]) {
			status = 1
		}
	}
	return status
}
