package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/drone"
	"repro/internal/img"
	"repro/internal/stats"
)

// CurvePoint is one checkpoint of a score-vs-budget curve (Figs. 12, 16,
// 19, 21): both tuners run from scratch at each budget, which matches the
// paper's "score after t seconds of tuning" semantics under the work-unit
// clock.
type CurvePoint struct {
	Budget float64
	WB     float64
	OT     float64
}

// Curve records WB and OT scores across a budget sweep.
func Curve(b Benchmark, seed int64, budgets []float64) []CurvePoint {
	out := make([]CurvePoint, 0, len(budgets))
	for _, budget := range budgets {
		wb := b.WBTune(seed, budget)
		ot := b.OTTune(seed, budget)
		out = append(out, CurvePoint{Budget: budget, WB: wb.Score, OT: ot.Score})
	}
	return out
}

// WriteCurve renders a curve as rows.
func WriteCurve(w io.Writer, name string, pts []CurvePoint) {
	fmt.Fprintf(w, "%s\n%10s %10s %10s\n", name, "budget", "WBTuner", "OpenTuner")
	for _, p := range pts {
		fmt.Fprintf(w, "%10.1f %10s %10s\n", p.Budget, fmtScore(p.WB), fmtScore(p.OT))
	}
}

// Fig6Result instruments the Canny tuning tree: stage-wise sample counts
// and the m*n vs m^n configuration-count comparison of Fig. 2/6.
type Fig6Result struct {
	Stage1Samples  int
	Survivors      int
	Stage2Samples  int
	Configurations int // actually explored: stage1 + survivors*stage2
	BlackBoxNeeds  int // the m^n equivalent: stage1 * stage2
}

// Fig6 runs the instrumented Canny program.
func Fig6(seed int64) Fig6Result {
	b := CannyBench{}
	wb := b.WBTune(seed, 0)
	s1, s2 := b.stages()
	survivors := (wb.Samples - s1) / s2
	return Fig6Result{
		Stage1Samples:  s1,
		Survivors:      survivors,
		Stage2Samples:  s2,
		Configurations: wb.Samples,
		BlackBoxNeeds:  s1 * s2,
	}
}

// Fig7Result compares samples explored and final score under the same
// budget (the paper's 90-second coffeemaker experiment).
type Fig7Result struct {
	Budget    float64
	WBSamples int
	OTSamples int
	WBScore   float64
	OTScore   float64
	Native    float64
}

// Fig7 fixes the budget to WBTuner's convergence cost and gives OpenTuner
// exactly the same budget.
func Fig7(seed int64) Fig7Result {
	b := CannyBench{}
	wb := b.WBTune(seed, 0)
	ot := b.OTTune(seed, wb.Work)
	return Fig7Result{
		Budget:    wb.Work,
		WBSamples: wb.Samples,
		OTSamples: ot.Samples,
		WBScore:   wb.Score,
		OTScore:   ot.Score,
		Native:    b.Native(seed).Score,
	}
}

// Fig10Row measures the optimization effects (scheduler + incremental
// aggregation) on one benchmark: relative time and memory versus the fully
// optimized configuration.
type Fig10Row struct {
	Name          string
	Variant       string
	ElapsedMS     float64
	PeakRetained  int64
	PeakProcesses int
}

// fig10Variants are the ablation arms. The incremental arms reach no code:
// none of the four programs declares a built-in RegionSpec.Aggregate, so
// "+incremental" reads as "none" and "full" as "+scheduler".
var fig10Variants = []struct {
	name        string
	incremental bool
	scheduler   bool
}{
	{"none", false, false},
	{"+incremental", true, false},
	{"+scheduler", false, true},
	{"full", true, true},
}

// Fig10 runs the ablation on a subset of benchmarks (the paper highlights
// Canny and K-means as the big winners). Time is measured wall-clock (the
// scheduler effect is real concurrency throttling), memory by the peak
// retained sample values and peak live processes.
func Fig10(seed int64) []Fig10Row {
	var rows []Fig10Row
	for _, name := range []string{"Canny", "Kmeans", "SVM", "Phylip"} {
		b := ByName(name)
		for _, v := range fig10Variants {
			t := core.New(core.Options{
				Seed: seed, MaxPool: 8,
				Incremental: v.incremental, DisableScheduler: !v.scheduler,
			})
			start := time.Now()
			b.Tune(context.Background(), t, seed) // the arm measures time and memory, not the outcome
			elapsed := time.Since(start)
			m := t.Metrics()
			rows = append(rows, Fig10Row{
				Name: name, Variant: v.name,
				ElapsedMS:     float64(elapsed.Microseconds()) / 1000,
				PeakRetained:  m.PeakRetained,
				PeakProcesses: m.Scheduler.PeakInUse,
			})
		}
	}
	return rows
}

// WriteFig10 renders the ablation rows.
func WriteFig10(w io.Writer, rows []Fig10Row) {
	fmt.Fprintf(w, "%-8s %-13s %10s %12s %10s\n",
		"program", "variant", "time(ms)", "peakRetained", "peakProcs")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-13s %10.1f %12d %10d\n",
			r.Name, r.Variant, r.ElapsedMS, r.PeakRetained, r.PeakProcesses)
	}
}

// ScenesResult is one scene's three-way score comparison (Figs. 11, 15,
// 18, 20).
type ScenesResult struct {
	Dataset string
	Native  float64
	WB      float64
	OT      float64
}

// Fig11 compares the three settings on the ten Canny scenes. OpenTuner
// gets the same work budget WBTuner converged with, as in the paper
// ("the corresponding OpenTuner score after it runs the same amount of
// time").
func Fig11(seed int64) []ScenesResult {
	var out []ScenesResult
	for _, scene := range img.SceneNames {
		b := CannyBench{Scene: scene}
		wb := b.WBTune(seed, 0)
		ot := b.OTTune(seed, wb.Work)
		out = append(out, ScenesResult{
			Dataset: scene,
			Native:  b.Native(seed).Score,
			WB:      wb.Score,
			OT:      ot.Score,
		})
	}
	return out
}

// Fig15 compares the three settings on ten Phylip datasets.
func Fig15(seed int64) []ScenesResult {
	var out []ScenesResult
	for i := int64(0); i < 10; i++ {
		b := PhylipBench{DataSeed: i}
		wb := b.WBTune(seed, 0)
		ot := b.OTTune(seed, wb.Work)
		out = append(out, ScenesResult{
			Dataset: fmt.Sprintf("data%d", i+1),
			Native:  b.Native(seed).Score,
			WB:      wb.Score,
			OT:      ot.Score,
		})
	}
	return out
}

// Fig17Row is one dataset's overfitting comparison: train/test error with
// and without cross-validation.
type Fig17Row struct {
	Dataset                 string
	TrainNoCV, TestNoCV     float64
	TrainWithCV, TestWithCV float64
}

// Fig17 reproduces the SVM overfitting study on ten datasets.
func Fig17(seed int64) []Fig17Row {
	var out []Fig17Row
	for i := int64(0); i < 10; i++ {
		s := seed + i*131
		noCVTrain, noCVTest := SVMBench{NoCV: true}.TrainTestErrors(s, 0)
		cvTrain, cvTest := SVMBench{}.TrainTestErrors(s, 0)
		out = append(out, Fig17Row{
			Dataset:     fmt.Sprintf("data%d", i+1),
			TrainNoCV:   noCVTrain,
			TestNoCV:    noCVTest,
			TrainWithCV: cvTrain,
			TestWithCV:  cvTest,
		})
	}
	return out
}

// Fig18 compares the three settings on ten SVM datasets.
func Fig18(seed int64) []ScenesResult {
	var out []ScenesResult
	for i := int64(0); i < 10; i++ {
		s := seed + i*131
		b := SVMBench{}
		wb := b.WBTune(s, 0)
		ot := b.OTTune(s, wb.Work)
		out = append(out, ScenesResult{
			Dataset: fmt.Sprintf("data%d", i+1),
			Native:  b.Native(s).Score,
			WB:      wb.Score,
			OT:      ot.Score,
		})
	}
	return out
}

// Fig20 compares recognition precision on ten speaker sets.
func Fig20(seed int64) []ScenesResult {
	var out []ScenesResult
	for i := 0; i < 10; i++ {
		b := SpeechBench{SpeakerSet: i}
		wb := b.WBTune(seed, 0)
		ot := b.OTTune(seed, wb.Work)
		out = append(out, ScenesResult{
			Dataset: fmt.Sprintf("set%d", i+1),
			Native:  b.Native(seed).Score,
			WB:      wb.Score,
			OT:      ot.Score,
		})
	}
	return out
}

// WriteScenes renders a ScenesResult table plus the mean improvement
// factors over native.
func WriteScenes(w io.Writer, title string, rows []ScenesResult, higher bool) {
	fmt.Fprintf(w, "%s\n%-14s %10s %10s %10s\n", title, "dataset", "native", "WBTuner", "OpenTuner")
	var nat, wb, ot []float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %10s %10s %10s\n",
			r.Dataset, fmtScore(r.Native), fmtScore(r.WB), fmtScore(r.OT))
		nat = append(nat, r.Native)
		wb = append(wb, r.WB)
		ot = append(ot, r.OT)
	}
	fmt.Fprintf(w, "%-14s %10s %10s %10s\n", "mean",
		fmtScore(stats.Mean(nat)), fmtScore(stats.Mean(wb)), fmtScore(stats.Mean(ot)))
	if higher {
		fmt.Fprintf(w, "improvement over native: WB %.0f%%, OT %.0f%%\n",
			(stats.Mean(wb)/stats.Mean(nat)-1)*100, (stats.Mean(ot)/stats.Mean(nat)-1)*100)
	} else {
		fmt.Fprintf(w, "error reduction factor: WB %.2fx, OT %.2fx\n",
			stats.Mean(nat)/math.Max(stats.Mean(wb), 1e-12), stats.Mean(nat)/math.Max(stats.Mean(ot), 1e-12))
	}
}

// Fig22Result is the drone behaviour-learning outcome.
type Fig22Result struct {
	RMSEBefore      float64
	RMSEAfter       float64
	FlightTimeRef   float64
	FlightTimeBase  float64
	FlightTimeTuned float64
	EnergyBase      float64
	EnergyTuned     float64
}

// Fig22 tunes Ardu on the training missions and reports the test-mission
// comparison.
func Fig22(seed int64) Fig22Result {
	tuned, _ := TuneArdu(context.Background(), standardTuner(seed, 0)) // a failed region keeps the incumbent
	m := drone.TestMission()
	ref := drone.Simulate(drone.NewVeloci(), m, droneSim)
	base := drone.Simulate(drone.NewArdu(), m, droneSim)
	a := drone.NewArdu()
	a.SetParams(tuned)
	tr := drone.Simulate(a, m, droneSim)
	return Fig22Result{
		RMSEBefore:      drone.MotorRMSE(ref, base),
		RMSEAfter:       drone.MotorRMSE(ref, tr),
		FlightTimeRef:   ref.FlightTime,
		FlightTimeBase:  base.FlightTime,
		FlightTimeTuned: tr.FlightTime,
		EnergyBase:      base.Energy,
		EnergyTuned:     tr.Energy,
	}
}
