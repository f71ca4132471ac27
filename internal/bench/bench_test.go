package bench

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestAllBenchmarksListed(t *testing.T) {
	names := map[string]bool{}
	for _, b := range All() {
		if names[b.Name()] {
			t.Fatalf("duplicate benchmark %q", b.Name())
		}
		names[b.Name()] = true
	}
	if len(names) != 13 {
		t.Fatalf("%d benchmarks, Table I has 13", len(names))
	}
	if ByName("Canny") == nil || ByName("nope") != nil {
		t.Fatal("ByName broken")
	}
}

// TestTuneHonoursContext pins that a Table I program is interruptible, as a
// wbtuned cancel or shutdown needs: given a context that is already
// cancelled, every program's Tune returns an error instead of a finished run.
func TestTuneHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rt := core.NewRuntime(core.RuntimeOptions{MaxPool: 8})
	for _, b := range All() {
		tu := rt.NewJob(core.JobOptions{Seed: 1})
		out, err := b.Tune(ctx, tu, 1)
		tu.Close()
		if err == nil {
			t.Errorf("%s: Tune under a cancelled context returned %+v and no error", b.Name(), out)
		}
	}
}

func TestOutcomeWallClock(t *testing.T) {
	o := Outcome{WorkSerial: 10, WorkParallel: 40}
	if o.WallClock(1) != 50 {
		t.Fatalf("1-core wall = %g", o.WallClock(1))
	}
	if o.WallClock(4) != 20 {
		t.Fatalf("4-core wall = %g", o.WallClock(4))
	}
	if o.WallClock(0) != 50 {
		t.Fatal("core clamp failed")
	}
}

func TestWithinTenPercent(t *testing.T) {
	if !withinTenPercent(0.9, 1.0, true) || withinTenPercent(0.89, 1.0, true) {
		t.Fatal("higher-is-better threshold wrong")
	}
	if !withinTenPercent(1.1, 1.0, false) || withinTenPercent(1.2, 1.0, false) {
		t.Fatal("lower-is-better threshold wrong")
	}
	if withinTenPercent(math.NaN(), 1, true) {
		t.Fatal("NaN matched")
	}
	if !withinTenPercent(0, 0, false) {
		t.Fatal("zero target should match zero")
	}
}

// Every benchmark: native and white-box tuning must produce finite scores,
// count work, and white-box tuning must not be worse than native.
func TestNativeAndWBTuneSane(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			nat := b.Native(1)
			if math.IsNaN(nat.Score) {
				t.Fatal("native score NaN")
			}
			if nat.Work <= 0 {
				t.Fatal("native work not counted")
			}
			wb := b.WBTune(1, 0)
			if math.IsNaN(wb.Score) {
				t.Fatal("WB score NaN")
			}
			if wb.Work <= nat.Work {
				t.Fatalf("tuning cost %g <= one native run %g", wb.Work, nat.Work)
			}
			if wb.Samples < 2 {
				t.Fatalf("WB explored %d samples", wb.Samples)
			}
			// Tuning must not be meaningfully worse than native on any
			// single workload (small losses happen — the paper's own
			// Fig. 11/12 shows scenes where tuning does not win), and the
			// aggregate test below requires wins on a clear majority.
			if muchWorse(wb.Score, nat.Score, b.HigherIsBetter()) {
				t.Fatalf("%s: tuning clearly worse than native: native %g vs WB %g",
					b.Name(), nat.Score, wb.Score)
			}
		})
	}
}

// muchWorse reports a relative regression beyond 10%.
func muchWorse(got, base float64, higher bool) bool {
	if math.IsNaN(got) {
		return true
	}
	denom := math.Max(math.Abs(base), 1e-9)
	if higher {
		return (base-got)/denom > 0.10
	}
	return (got-base)/denom > 0.10
}

// Aggregate claim: white-box tuning strictly improves on the untuned
// program for a clear majority of the 13 benchmarks.
func TestWBTuningImprovesMostBenchmarks(t *testing.T) {
	wins, total := 0, 0
	for _, b := range All() {
		total++
		nat := b.Native(1)
		wb := b.WBTune(1, 0)
		if better(wb.Score, nat.Score, b.HigherIsBetter()) {
			wins++
		}
	}
	if wins*3 < total*2 {
		t.Fatalf("tuning beat native on only %d/%d benchmarks", wins, total)
	}
}

// Every applicable benchmark: black-box tuning under the same budget as WB
// runs, produces a score, and respects its budget.
func TestOTTuneSane(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			wb := b.WBTune(1, 0)
			ot := b.OTTune(1, wb.Work)
			if b.Name() == "Ardupilot" {
				if !math.IsNaN(ot.Score) {
					t.Fatal("drone OT should be inapplicable")
				}
				return
			}
			if math.IsNaN(ot.Score) {
				t.Fatal("OT score NaN")
			}
			// The budget is checked before each full execution, so the last
			// in-flight evaluation may overshoot — by up to one eval's cost
			// (a cross-validated eval runs all folds).
			if ot.Work > wb.Work*2+1 {
				t.Fatalf("OT blew its budget: %g vs %g", ot.Work, wb.Work)
			}
			if ot.Samples < 1 {
				t.Fatal("OT never evaluated")
			}
			if ot.WorkParallel != 0 {
				t.Fatal("black-box work should all be serial")
			}
		})
	}
}

// The headline property (Fig. 2): under equal budgets, white-box tuning
// evaluates far more configurations than black-box tuning because it reuses
// the loaded data and completed stages.
func TestWBEvaluatesMoreConfigurations(t *testing.T) {
	wins := 0
	cases := 0
	for _, b := range All() {
		if b.Name() == "Ardupilot" {
			continue
		}
		cases++
		wb := b.WBTune(1, 0)
		ot := b.OTTune(1, wb.Work)
		if wb.Samples > ot.Samples {
			wins++
		}
	}
	if wins*2 <= cases {
		t.Fatalf("WB explored more configurations on only %d/%d benchmarks", wins, cases)
	}
}

func TestWBDeterministicPerSeed(t *testing.T) {
	for _, name := range []string{"Kmeans", "FASTA", "METIS"} {
		b := ByName(name)
		a := b.WBTune(7, 0)
		c := b.WBTune(7, 0)
		if a.Score != c.Score || a.Samples != c.Samples {
			t.Fatalf("%s WBTune not deterministic", name)
		}
	}
}

func TestStrategyAblationRuns(t *testing.T) {
	rows := StrategyAblation(1)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if math.IsNaN(r.Score) || r.Samples != 40 {
			t.Fatalf("bad row %+v", r)
		}
	}
}

func TestCVAblationGapShrinks(t *testing.T) {
	rows := CVAblation(1)
	if len(rows) != 4 || rows[0].K != 0 {
		t.Fatalf("rows = %+v", rows)
	}
	noGap := rows[0].TestErr - rows[0].TrainErr
	for _, r := range rows[1:] {
		if math.IsNaN(r.TestErr) {
			t.Fatalf("k=%d produced no result", r.K)
		}
		if gap := r.TestErr - r.TrainErr; gap > noGap {
			t.Fatalf("k=%d train-test gap %.3f exceeds no-CV gap %.3f", r.K, gap, noGap)
		}
	}
}

func TestPoolAblationRespectsPool(t *testing.T) {
	for _, r := range PoolAblation(1) {
		if r.PeakProcesses > r.Pool {
			t.Fatalf("pool %d peaked at %d processes", r.Pool, r.PeakProcesses)
		}
	}
}

func TestAutoSamplingAblation(t *testing.T) {
	rows := AutoSamplingAblation(1)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	fixed, auto := rows[0], rows[1]
	if math.IsNaN(fixed.Score) || math.IsNaN(auto.Score) {
		t.Fatal("missing scores")
	}
	// Auto-tuned sampling stops doubling once the score stops improving;
	// it should not burn more samples than the fixed budget for a quality
	// drop of any significance.
	if auto.Score < fixed.Score*0.95 {
		t.Fatalf("auto sampling lost too much quality: %.3f vs %.3f", auto.Score, fixed.Score)
	}
}

func TestFig6CountsConsistent(t *testing.T) {
	r := Fig6(1)
	if r.Configurations != r.Stage1Samples+r.Survivors*r.Stage2Samples {
		t.Fatalf("inconsistent counts: %+v", r)
	}
	if r.Survivors < 1 || r.Survivors > r.Stage1Samples {
		t.Fatalf("survivors = %d of %d", r.Survivors, r.Stage1Samples)
	}
}

func TestFig7SameBudget(t *testing.T) {
	r := Fig7(1)
	if r.WBSamples <= r.OTSamples {
		t.Fatalf("white-box should explore more configurations: %d vs %d", r.WBSamples, r.OTSamples)
	}
	if math.IsNaN(r.WBScore) || math.IsNaN(r.OTScore) || math.IsNaN(r.Native) {
		t.Fatal("scores missing")
	}
}

func TestFig17OverfittingShape(t *testing.T) {
	rows := Fig17(1)
	var noCVGap, cvGap float64
	for _, r := range rows {
		noCVGap += r.TestNoCV - r.TrainNoCV
		cvGap += r.TestWithCV - r.TrainWithCV
	}
	if cvGap >= noCVGap {
		t.Fatalf("CV did not shrink the train-test gap: %.3f vs %.3f", cvGap, noCVGap)
	}
}

func TestFig22Shape(t *testing.T) {
	r := Fig22(1)
	if r.RMSEAfter >= r.RMSEBefore {
		t.Fatalf("tuning did not improve mimicry: %.4f -> %.4f", r.RMSEBefore, r.RMSEAfter)
	}
	if r.FlightTimeTuned >= r.FlightTimeBase {
		t.Fatalf("tuned flight no faster: %.1f vs %.1f", r.FlightTimeTuned, r.FlightTimeBase)
	}
}

func TestCurveMonotoneBudgets(t *testing.T) {
	pts := Curve(SVMBench{}, 1, []float64{40, 160})
	if len(pts) != 2 {
		t.Fatalf("curve has %d points", len(pts))
	}
	// More budget must never make the white-box result meaningfully worse
	// (deterministic seeds; larger budgets explore supersets of samples).
	if muchWorse(pts[1].WB, pts[0].WB, false) {
		t.Fatalf("WB curve regressed with budget: %v", pts)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	var buf strings.Builder
	rows := []Table1Row{{
		Name: "Demo", Arrow: "↑", Params: 2, Sampling: "RAND", Agg: "MAX",
		Native:    Outcome{Work: 1, Score: 0.5},
		WB:        Outcome{Work: 10, Score: 0.9, WorkSerial: 2, WorkParallel: 8},
		OT:        Outcome{Work: 20, Score: 0.85},
		OTMatched: true, RatioSingle: 2, RatioMulti: 4,
	}}
	WriteTable1(&buf, rows)
	if !strings.Contains(buf.String(), "Demo") || !strings.Contains(buf.String(), "2.00x") {
		t.Fatalf("table render: %q", buf.String())
	}

	buf.Reset()
	WriteScenes(&buf, "title", []ScenesResult{{Dataset: "d1", Native: 1, WB: 2, OT: 1.5}}, true)
	if !strings.Contains(buf.String(), "d1") || !strings.Contains(buf.String(), "improvement") {
		t.Fatalf("scenes render: %q", buf.String())
	}

	buf.Reset()
	WriteCurve(&buf, "curve", []CurvePoint{{Budget: 10, WB: 0.5, OT: 0.4}})
	if !strings.Contains(buf.String(), "curve") || !strings.Contains(buf.String(), "10.0") {
		t.Fatalf("curve render: %q", buf.String())
	}

	buf.Reset()
	WriteFig10(&buf, []Fig10Row{{Name: "X", Variant: "full", ElapsedMS: 1.5, PeakRetained: 3, PeakProcesses: 8}})
	if !strings.Contains(buf.String(), "full") {
		t.Fatalf("fig10 render: %q", buf.String())
	}
}

func TestAverageRatioAccounting(t *testing.T) {
	rows := []Table1Row{
		{OTMatched: true, RatioSingle: 2, RatioMulti: 4},
		{OTMatched: false},
		{OTSkipped: true},
		{OTMatched: true, RatioSingle: 4, RatioMulti: 8},
	}
	avg, matched, timedOut := AverageRatio(rows, false)
	if avg != 3 || matched != 2 || timedOut != 1 {
		t.Fatalf("single: %g %d %d", avg, matched, timedOut)
	}
	avgM, _, _ := AverageRatio(rows, true)
	if avgM != 6 {
		t.Fatalf("multi avg = %g", avgM)
	}
	if a, m, _ := AverageRatio(nil, false); m != 0 || !math.IsNaN(a) {
		t.Fatal("empty rows should report NaN")
	}
}
