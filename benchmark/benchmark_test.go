package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/store"
)

// The benchmark addresses its scratch directory and BENCHMARK.json relative
// to the repository root, which is where the driver runs it from.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestCatalogueMatchesManifest(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(mf.Command, want) {
		t.Errorf("command = %q, want %q", mf.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(mf.Paths, want) {
		t.Errorf("paths = %q, want %q", mf.Paths, want)
	}
	if mf.RunSeconds < 10 || mf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 10..60", mf.RunSeconds)
	}

	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, catalogue %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		unique(w.Name)
		if mf.Workloads[i].Name != w.Name || mf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %+v, catalogue {%s %s}", i, mf.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if len(mf.EndToEnd) != len(endToEnd) {
		t.Fatalf("manifest has %d end-to-end metrics, catalogue %d", len(mf.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, d := range endToEnd {
		unique(d.Name)
		got := mf.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: manifest %+v, catalogue %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		checkDef(t, d)
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("end-to-end metrics need setup_s in s, lower is better")
	}

	if len(mf.PerLayer) != len(perLayer) {
		t.Fatalf("manifest has %d per-layer metrics, catalogue %d", len(mf.PerLayer), len(perLayer))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
	for i, d := range perLayer {
		unique(d.Name)
		got := mf.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: manifest %+v, catalogue %+v", i, got, d)
		}
		checkDef(t, d)
	}
}

func checkDef(t *testing.T, d metricDef) {
	t.Helper()
	if !unitRE.MatchString(d.Unit) {
		t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
	}
	if d.Better != "higher" && d.Better != "lower" {
		t.Errorf("%s: better = %q", d.Name, d.Better)
	}
}

func TestRenderRejectsUncataloguedMetric(t *testing.T) {
	if _, err := render(endToEnd, metrics{"setup_s": 1, "made_up": 2}); err == nil {
		t.Fatal("render accepted a metric that is not in the catalogue")
	}
	vals, err := render(endToEnd, metrics{"setup_s": 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(endToEnd) || vals["setup_s"] != (metricValue{1, "s"}) {
		t.Fatalf("render = %v", vals)
	}
}

// inputs serialises everything a workload generates from its seed.
func inputs(seed int64) []byte {
	var b bytes.Buffer
	fmt.Fprintln(&b, table1Order(seed), wideInput(seed), jobSeeds(seed))
	for _, v := range fleetBlob(seed)[:64] {
		fmt.Fprint(&b, v, " ")
	}
	spec, _ := json.Marshal(svcSpec(7, jobSeeds(seed)[7], core.PriorityLow))
	b.Write(spec)
	return b.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	if !bytes.Equal(inputs(3), inputs(3)) {
		t.Fatal("the same seed generated different inputs")
	}
	a, b := inputs(3), inputs(4)
	if bytes.Equal(a, b) {
		t.Fatal("a different seed generated the same inputs")
	}
	if wideInput(3) == wideInput(4) || jobSeeds(3) == jobSeeds(4) || fleetBlob(3)[0] == fleetBlob(4)[0] {
		t.Fatal("some workload's inputs ignore the seed")
	}
	orders := map[string]bool{}
	for s := int64(1); s <= 32; s++ {
		orders[fmt.Sprint(table1Order(s))] = true
	}
	if len(orders) < 8 {
		t.Fatalf("32 seeds gave only %d Table I pass orders", len(orders))
	}
}

func TestTable1CheckRejectsCorruptedOutput(t *testing.T) {
	progs := bench.All()
	native := make([]bench.Outcome, len(progs))
	good := make([]bench.Outcome, len(progs))
	for i, b := range progs {
		native[i] = bench.Outcome{Score: 1}
		good[i] = bench.Outcome{Score: 2, Work: 10, Samples: 5}
		if !b.HigherIsBetter() {
			good[i].Score = 0.5
		}
	}
	fresh := func() *table1 {
		return &table1{progs: progs, native: map[int64][]bench.Outcome{1: native}, first: map[int64][]bench.Outcome{}}
	}
	w := fresh()
	if bad := w.checkPass(1, good) + w.checkPass(1, good); bad != 0 {
		t.Fatalf("two identical good passes: %d checks failed", bad)
	}
	// A repeat that differs in one outcome's work units breaks determinism.
	drift := append([]bench.Outcome(nil), good...)
	drift[3].Work++
	if w.checkPass(1, drift) == 0 {
		t.Error("a repeat with different work units passed")
	}
	// Tuning that loses to the untuned program on five programs.
	poor := append([]bench.Outcome(nil), good...)
	for i := 0; i < 5; i++ {
		poor[i].Score = native[i].Score + 1
		if progs[i].HigherIsBetter() {
			poor[i].Score = native[i].Score - 1
		}
	}
	if fresh().checkPass(1, poor) == 0 {
		t.Error("a pass that beats native on only 8 of 13 programs passed")
	}
	nan := append([]bench.Outcome(nil), good...)
	nan[0].Score = math.NaN()
	w = fresh()
	if w.checkPass(1, nan)+w.checkPass(1, nan) != 0 {
		t.Error("a NaN score must compare equal to itself on a repeat")
	}
}

func TestRegionChecksRejectCorruptedOutput(t *testing.T) {
	w, err := newRegionWide(env{seed: 5, procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	rw := w.(*regionWide)
	var res *core.Result
	err = rw.tuner.Run(func(p *core.P) error {
		p.Expose("input", rw.input)
		res, err = p.Region(rw.spec, rw.body)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	avg, bad := checkWide(res, rw.input, rw.avg0)
	if bad != 0 {
		t.Fatalf("a good region failed its check (avg %v, first %v)", avg, rw.avg0)
	}
	if _, bad := checkWide(res, rw.input, avg*(1+1e-6)); bad == 0 {
		t.Error("an average that drifted from the first region's passed")
	}
	if _, bad := checkWide(res, rw.input+1, math.NaN()); bad == 0 {
		t.Error("an average outside what the input allows passed")
	}

	if checkRounds(0.995, 0.995, 0, roundsPerJob) != 0 {
		t.Error("a good job failed its check")
	}
	for name, bad := range map[string]int{
		"score out of range": checkRounds(1.5, 1.5, 0, roundsPerJob),
		"NaN best score":     checkRounds(math.NaN(), math.NaN(), 0, roundsPerJob),
		"changed on repeat":  checkRounds(0.995, 0.9950001, 0, roundsPerJob),
		"stale knob":         checkRounds(0.995, 0.995, 1, roundsPerJob),
		"lost sample":        checkRounds(0.995, 0.995, 0, roundsPerJob-1),
	} {
		if bad == 0 {
			t.Errorf("%s passed", name)
		}
	}
}

func TestFleetAndServiceChecksRejectCorruptedOutput(t *testing.T) {
	var ref strings.Builder
	for r := 0; r < fleetRounds; r++ {
		fmt.Fprintf(&ref, "round %d: best %.6f sum %.6f\n", r, 0.5+float64(r), 8192.25)
	}
	if checkFleet(ref.String(), ref.String(), 8192.25, fleetPerJob) != 0 {
		t.Fatal("a good dump failed its check")
	}
	flipped := strings.Replace(ref.String(), "best 3.5", "best 3.6", 1)
	for name, bad := range map[string]int{
		"different dump": checkFleet(flipped, ref.String(), 8192.25, fleetPerJob),
		"wrong checksum": checkFleet(ref.String(), ref.String(), 8192.5, fleetPerJob),
		"lost sample":    checkFleet(ref.String(), ref.String(), 8192.25, fleetPerJob-1),
	} {
		if bad == 0 {
			t.Errorf("fleet: %s passed", name)
		}
	}

	good := jobs.Status{State: jobs.StateCompleted, Rounds: svcRounds, Result: "r0 best=1\n"}
	if checkService(good, good.Result) != 0 {
		t.Fatal("a good job status failed its check")
	}
	failed, short, other := good, good, good
	failed.State, short.Rounds, other.Result = jobs.StateFailed, svcRounds-1, "r0 best=2\n"
	for name, st := range map[string]jobs.Status{"failed job": failed, "missing round": short, "different result": other} {
		if checkService(st, good.Result) == 0 {
			t.Errorf("service: %s passed", name)
		}
	}
}

// The decorators must still satisfy every optional interface the runtime
// and the jobs manager discover by type assertion.
var (
	_ core.ElasticExecutor = (*tracedExecutor)(nil)
	_ core.SnapshotPrimer  = (*tracedExecutor)(nil)
	_ core.JobEnder        = (*tracedExecutor)(nil)
	_ checkpoint.Lister    = (*tracedStore)(nil)
	_ checkpoint.Deleter   = (*tracedStore)(nil)
)

// fakeFleet records which optional methods were reached.
type fakeFleet struct{ calls []string }

func (f *fakeFleet) BeginRound(core.RoundTask) (any, error) { return 1, nil }
func (f *fakeFleet) Execute(context.Context, any, int, int) (core.ExecResult, error) {
	return core.ExecResult{}, nil
}
func (f *fakeFleet) EndRound(any)              {}
func (f *fakeFleet) Capacity() int             { return 3 }
func (f *fakeFleet) WatchCapacity(g func(int)) { f.calls = append(f.calls, "watch"); g(3) }
func (f *fakeFleet) EndJob(job uint64)         { f.calls = append(f.calls, fmt.Sprint("end ", job)) }
func (f *fakeFleet) PrimeSnapshot(job uint64, _ *store.Exposed) error {
	f.calls = append(f.calls, fmt.Sprint("prime ", job))
	return nil
}

func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	inner := &fakeFleet{}
	rec := newRecorder()
	var ex core.Executor = newTracedExecutor(inner, rec, 4)
	delta := 0
	ex.(core.ElasticExecutor).WatchCapacity(func(d int) { delta += d })
	ex.(core.JobEnder).EndJob(9)
	if err := ex.(core.SnapshotPrimer).PrimeSnapshot(9, store.NewExposed()); err != nil {
		t.Fatal(err)
	}
	if want := []string{"watch", "end 9", "prime 9"}; !reflect.DeepEqual(inner.calls, want) || delta != 3 {
		t.Fatalf("forwarded %q (capacity delta %d), want %q and 3", inner.calls, delta, want)
	}
	h, _ := ex.BeginRound(core.RoundTask{})
	if _, err := ex.Execute(context.Background(), h, 2, 1); err != nil {
		t.Fatal(err)
	}
	ex.EndRound(h)
	var names []string
	for _, s := range rec.snapshot() {
		names = append(names, s.Name)
	}
	if want := []string{"remote.end_job", "remote.begin_round", "remote.execute", "remote.end_round"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("spans %q, want %q", names, want)
	}

	var saved, deleted []string
	ts := &tracedStore{
		inner:   &checkpoint.MemStore{},
		rec:     rec,
		saved:   func(label string, _, _ int64) { saved = append(saved, label) },
		deleted: func(label string, _ int64) { deleted = append(deleted, label) },
	}
	var st checkpoint.Store = ts
	if err := st.Save("spec-j1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	labels, err := st.(checkpoint.Lister).List()
	if err != nil || !reflect.DeepEqual(labels, []string{"spec-j1"}) {
		t.Fatalf("List = %q, %v", labels, err)
	}
	if err := st.(checkpoint.Deleter).Delete("spec-j1"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("spec-j1"); err == nil {
		t.Fatal("Delete did not reach the inner store")
	}
	if !reflect.DeepEqual(saved, []string{"spec-j1"}) || !reflect.DeepEqual(deleted, []string{"spec-j1"}) || ts.errors.Load() != 0 {
		t.Fatalf("callbacks saved %q deleted %q errors %d", saved, deleted, ts.errors.Load())
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op.job", ID: 1, Start: 0, End: 100},
		{Name: "core.region", ID: 2, Parent: 1, Start: 10, End: 90},
		// Two executes overlapping on two cores: the region is covered from
		// 20 to 70 once, not twice.
		{Name: "remote.execute", ID: 3, Parent: 2, Start: 20, End: 60},
		{Name: "remote.execute", ID: 4, Parent: 2, Start: 30, End: 70},
		{Name: "body.sample", ID: 5, Parent: 3, Start: 40, End: 50},
		// A child that outlives its parent counts only up to the parent's end.
		{Name: "store.expose", ID: 6, Parent: 1, Start: 95, End: 120},
	}
	want := map[string]int64{"op": 100 - 80 - 5, "core": 80 - 50, "remote": 30 + 40, "body": 10, "store": 25}
	tv := analyse(spans)
	if got := tv.layerSelf(); !reflect.DeepEqual(got, want) {
		t.Fatalf("layerSelf = %v, want %v", got, want)
	}
	if got := tv.selfPerSpanUS("remote.execute"); got != 0.035 {
		t.Fatalf("mean self time of an execute = %v us, want 0.035", got)
	}
	shares := tv.layerShares()
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v", sum)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Fatalf("quartiles = %v, %v, want 1.75, 5.25", q1, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	if q1, q3 := quartiles([]float64{10, 20}); q1 != 7.5 || q3 != 22.5 {
		t.Fatalf("quartiles of two = %v, %v, want 7.5, 22.5", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "samples_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{80, 120, 100, 70, 130}
	for _, tc := range []struct {
		d    metricDef
		base []float64
		cand []float64
		want string
	}{
		{lower, steady, []float64{104, 105}, same},
		{lower, steady, []float64{115, 116}, worse},
		{lower, steady, []float64{85, 86}, better},
		{higher, steady, []float64{85, 86}, worse},
		{higher, steady, []float64{115, 116}, better},
		{lower, noisy, []float64{150, 151}, unresolved},
	} {
		if got, _, _, _ := judge(tc.d, tc.base, tc.cand); got != tc.want {
			t.Errorf("%s base %v cand %v: %s, want %s", tc.d.Name, tc.base, tc.cand, got, tc.want)
		}
	}
}

func TestCompareFlagsRegressionsAndFailedChecks(t *testing.T) {
	set := func(opMs float64, incorrect, failed int) *runSet {
		s := &runSet{Workloads: map[string]*workloadSet{}}
		for _, w := range workloads {
			ws := &workloadSet{Runs: 3, Incorrect: incorrect, Attempted: 300, Failed: failed, Metrics: map[string][]float64{}}
			for _, d := range endToEnd {
				ws.Metrics[d.Name] = []float64{100, 100.5, 99.5}
			}
			ws.Metrics["op_p50_ms"] = []float64{opMs, opMs * 1.005, opMs * 0.995}
			s.Workloads[w.Name] = ws
		}
		return s
	}
	var out bytes.Buffer
	if compareSets(&out, set(100, 0, 0), set(102, 0, 0)) {
		t.Errorf("a 2%% change was reported as a regression:\n%s", out.String())
	}
	if !compareSets(&out, set(100, 0, 0), set(140, 0, 0)) {
		t.Error("a 40% slower operation was not reported")
	}
	if !compareSets(&out, set(100, 0, 0), set(100, 1, 0)) {
		t.Error("a failed output check was not reported")
	}
	if !compareSets(&out, set(100, 0, 0), set(100, 0, 2)) {
		t.Error("a rise in failed operations was not reported")
	}
}

// TestWorkloadsRunTraced drives the four cheap workloads for a moment with
// tracing on, the path the decorators and the layer metrics live on.
func TestWorkloadsRunTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real workloads")
	}
	for _, name := range []string{"region_wide", "region_rounds", "fleet_delta", "service_jobs"} {
		t.Run(name, func(t *testing.T) {
			rec := newRecorder()
			inst, done, _, err := setUp(workloadByName(name), env{seed: 2, procs: 2, rec: rec, obs: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			defer done()
			tl := inst.run(time.Now().Add(100 * time.Millisecond))
			if tl.ops == 0 || tl.samples == 0 || tl.failed != 0 || tl.mismatch != 0 || len(tl.opMs) != tl.ops {
				t.Fatalf("tally %+v", tl)
			}
			m := metrics{}
			spans := rec.snapshot()
			inst.layers(m, analyse(spans))
			if _, err := render(perLayer, m); err != nil {
				t.Fatal(err)
			}
			if m["core.samples"] == 0 || m["core.region_p50_us"] == 0 || len(spans) == 0 {
				t.Fatalf("layer metrics missing: samples %v region p50 %v spans %d",
					m["core.samples"], m["core.region_p50_us"], len(spans))
			}
		})
	}
}
