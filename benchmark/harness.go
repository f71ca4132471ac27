package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

const (
	// warmup is how long a workload runs before the measured window opens,
	// so pools, symbol tables, worker snapshot caches and HTTP keep-alive
	// connections are in their steady state.
	warmup = 2 * time.Second
	// setupReps is how many times set-up is repeated; setup_s is the median.
	setupReps = 5
	// outDir holds traces, sockets and job stores; .gitignore names it.
	outDir = "benchmark/out"
)

// env is what a workload's constructor receives. rec and obs are nil in the
// untraced run, so the program under test runs with observability off.
type env struct {
	seed  int64
	procs int
	tmp   string // scratch directory of this set-up; a short relative path
	rec   *recorder
	obs   *obs.Registry
}

// instance is one set-up workload.
type instance interface {
	// run performs whole operations, each caller waiting for its reply,
	// until the deadline has passed.
	run(deadline time.Time) tally
	// layers adds the workload's own per-layer metrics (traced run only).
	layers(m metrics, tv traceView)
	close()
}

// tally is what a stretch of operations did.
type tally struct {
	ops      int       // operations attempted
	failed   int       // operations that errored or were refused
	mismatch int       // output checks that failed
	samples  int64     // sampling processes completed
	opMs     []float64 // one latency per completed operation
}

func (t *tally) merge(o tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.mismatch += o.mismatch
	t.samples += o.samples
	t.opMs = append(t.opMs, o.opMs...)
}

// metrics is a name -> value bag checked against the catalogue on output.
type metrics map[string]float64

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render attaches units and rejects names the catalogue does not know, so a
// metric cannot be emitted without being documented.
func render(defs []metricDef, m metrics) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is not in the catalogue", name)
		}
	}
	return out, nil
}

// sliceLen is how long one slice of the measured window lasts. A run
// reports the median slice, so a burst of interference from a neighbour on
// a shared box, or one slow GC cycle, does not move the result. Slices end on
// operation boundaries: a workload whose operation is longer than this
// (a Table I cycle, a long job) makes each slice one operation long.
const sliceLen = time.Second

// window is one measured stretch, slice by slice, with the process counters
// around it.
type window struct {
	tally
	rates      []float64 // samples per second, per slice
	cpuPerK    []float64 // CPU milliseconds per 1000 samples, per slice
	opP50      []float64 // median operation latency in ms, per slice
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
	goroutines int
	heapLive   []float64 // MB, sampled through the window
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// heapLiveMB is the heap the last GC cycle found live: what the program
// retains, whatever the GC's pacing let pile up on top of it.
func heapLiveMB(sample []rtmetrics.Sample) float64 {
	rtmetrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

// measure warms the instance up and then runs it for d, one slice after the
// other, watching memory and goroutines from a ticker beside it.
func measure(inst instance, warm, d time.Duration) (window, int) {
	warmTally := inst.run(time.Now().Add(warm))
	var w window
	var ms0, ms1 runtime.MemStats
	var wg sync.WaitGroup
	stop := make(chan struct{})
	runtime.ReadMemStats(&ms0)
	wg.Add(1)
	go func() {
		defer wg.Done()
		sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				w.heapLive = append(w.heapLive, heapLiveMB(sample))
				w.goroutines = max(w.goroutines, runtime.NumGoroutine())
			}
		}
	}()
	start := time.Now()
	end := start.Add(d)
	for t0 := start; t0.Before(end); t0 = time.Now() {
		cpu0 := cpuTime()
		slice := inst.run(minTime(t0.Add(sliceLen), end))
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		if slice.samples > 0 {
			w.rates = append(w.rates, float64(slice.samples)/wall.Seconds())
			w.cpuPerK = append(w.cpuPerK, float64(cpu.Microseconds())/float64(slice.samples))
		}
		if len(slice.opMs) > 0 {
			w.opP50 = append(w.opP50, median(slice.opMs))
		}
		w.tally.merge(slice)
	}
	close(stop)
	wg.Wait() // after this the ticker's writes to w are visible
	runtime.ReadMemStats(&ms1)
	w.mallocs = ms1.Mallocs - ms0.Mallocs
	w.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	w.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	// Warm-up operations are not measured, but a wrong output there is
	// still a wrong output.
	return w, warmTally.mismatch + warmTally.failed
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// scratch makes a fresh directory for one set-up under outDir.
func scratch() (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "run-")
}

// setUp runs the workload's constructor in a fresh scratch directory.
func setUp(w *workloadDef, e env) (instance, func(), time.Duration, error) {
	tmp, err := scratch()
	if err != nil {
		return nil, nil, 0, err
	}
	e.tmp = tmp
	t0 := time.Now()
	inst, err := w.New(e)
	dt := time.Since(t0)
	if err != nil {
		os.RemoveAll(tmp)
		return nil, nil, 0, fmt.Errorf("%s set-up: %w", w.Name, err)
	}
	return inst, func() { inst.close(); os.RemoveAll(tmp) }, dt, nil
}

// runEndToEnd is the untraced run: set up setupReps times, warm up, measure
// for d, check outputs.
func runEndToEnd(w *workloadDef, seed int64, procs int, d time.Duration) (result, error) {
	e := env{seed: seed, procs: procs}
	var setups []float64
	var inst instance
	var done func()
	for i := 0; i < setupReps; i++ {
		if done != nil {
			done()
		}
		var dt time.Duration
		var err error
		if inst, done, dt, err = setUp(w, e); err != nil {
			return result{}, err
		}
		setups = append(setups, dt.Seconds())
	}
	defer done()
	win, warmBad := measure(inst, warmup, d)
	bad := warmBad + win.mismatch
	if len(win.rates) == 0 || len(win.opP50) == 0 || len(win.heapLive) == 0 {
		return result{}, fmt.Errorf("%s completed no operation in %v", w.Name, d)
	}
	m := metrics{
		"setup_s":            median(setups),
		"samples_per_s":      median(win.rates),
		"cpu_ms_per_ksample": median(win.cpuPerK),
		"heap_live_mb":       median(win.heapLive),
		"op_p50_ms":          median(win.opP50),
	}
	vals, err := render(endToEnd, m)
	if err != nil {
		return result{}, err
	}
	return result{Correct: bad == 0, Attempted: win.ops, Failed: win.failed, Metrics: vals}, nil
}

// runTraced produces the per-layer numbers: a short untraced reference
// window, then a traced window on a fresh set-up with harness spans and the
// program's own obs registry on, then the layer probes. The spans go to
// outDir/trace-<workload>.jsonl.
func runTraced(w *workloadDef, seed int64, procs int, d time.Duration) (result, error) {
	ref, done, _, err := setUp(w, env{seed: seed, procs: procs})
	if err != nil {
		return result{}, err
	}
	refWin, refBad := measure(ref, warmup/2, d/3)
	done()

	rec := newRecorder()
	e := env{seed: seed, procs: procs, rec: rec, obs: obs.NewRegistry()}
	inst, done, _, err := setUp(w, e)
	if err != nil {
		return result{}, err
	}
	defer done()
	win, warmBad := measure(inst, warmup/2, d-d/3)
	bad := refBad + warmBad + win.mismatch + refWin.mismatch
	if win.samples == 0 || refWin.samples == 0 {
		return result{}, fmt.Errorf("%s completed no operation", w.Name)
	}

	tv := analyse(rec.snapshot())
	m := metrics{}
	inst.layers(m, tv)
	if err := probes(m, seed, procs, int(m["strategy.feedback_len_max"])); err != nil {
		return result{}, err
	}
	m["proc.allocs_per_sample"] = float64(refWin.mallocs) / float64(refWin.samples)
	m["proc.bytes_per_sample"] = float64(refWin.allocBytes) / float64(refWin.samples)
	m["proc.gc_pause_ms"] = float64(refWin.gcPause.Microseconds()) / 1e3
	m["proc.goroutines_peak"] = float64(refWin.goroutines)
	m["proc.traced_samples_per_s"] = median(win.rates)
	m["proc.trace_overhead_pct"] = 100 * (1 - median(win.rates)/median(refWin.rates))
	if m["proc.peak_rss_mb"], err = peakRSSMB(); err != nil {
		return result{}, err
	}
	shares := tv.layerShares()
	for _, l := range traceLayers {
		m["trace.share_"+l] = 100 * shares[l]
	}
	m["trace.spans"] = float64(len(tv.spans))

	path := filepath.Join(outDir, "trace-"+w.Name+".jsonl")
	if err := writeJSONL(path, tv.spans); err != nil {
		return result{}, err
	}
	printShares(w.Name, shares, path)

	vals, err := render(perLayer, m)
	if err != nil {
		return result{}, err
	}
	return result{
		Correct:   bad == 0,
		Attempted: win.ops + refWin.ops,
		Failed:    win.failed + refWin.failed,
		Metrics:   vals,
	}, nil
}

// printShares writes the trace summary to standard error: where the
// operation's blocking path spent its self time, largest layer first.
func printShares(workload string, shares map[string]float64, path string) {
	layers := make([]string, 0, len(shares))
	for l := range shares {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(a, b int) bool { return shares[layers[a]] > shares[layers[b]] })
	fmt.Fprintf(os.Stderr, "%s: share of operation self time by layer (spans in %s)\n", workload, path)
	for _, l := range layers {
		fmt.Fprintf(os.Stderr, "  %-11s %5.1f%%\n", l, 100*shares[l])
	}
}
