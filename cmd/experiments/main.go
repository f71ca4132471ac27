// Command experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic substrate:
//
//	experiments table1         Table I (all 13 benchmarks)
//	experiments fig6           configuration-count model (Fig. 2/6)
//	experiments fig7           Canny same-budget comparison (Fig. 7)
//	experiments fig10          optimization-effect ablation (Fig. 10; its
//	                           +incremental arm reaches no code)
//	experiments fig11          Canny scores on 10 scenes (Fig. 11)
//	experiments fig12          Canny score-vs-budget curves (Fig. 12)
//	experiments fig15          Phylip scores on 10 datasets (Fig. 15)
//	experiments fig16          Phylip score-vs-budget curves (Fig. 16)
//	experiments fig17          SVM overfitting study (Fig. 17)
//	experiments fig18          SVM scores on 10 datasets (Fig. 18)
//	experiments fig19          SVM score-vs-budget curves (Fig. 19)
//	experiments fig20          speech precision on 10 speaker sets (Fig. 20)
//	experiments fig21          speech score-vs-budget curves (Fig. 21)
//	experiments fig22          drone behaviour learning (Fig. 22)
//	experiments ablations      strategy, CV, pool and auto-sampling ablations
//	experiments all            everything above
//
// Performance is measured by the one harness BENCHMARK.json declares:
// go run ./benchmark --workload <name>.
//
// Flags: -seed N (default 1). A run to checkpoint, resume or spread over a
// fleet is a wbtuned job: every Table I program is a wbtuned program (see
// cmd/wbtuned).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	if cmd == "all" {
		for _, c := range []string{"table1", "fig6", "fig7", "fig10", "fig11", "fig12",
			"fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "ablations"} {
			fmt.Printf("==== %s ====\n", c)
			run(c, *seed)
			fmt.Println()
		}
		return
	}
	if !run(cmd, *seed) {
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: experiments [-seed N] <table1|fig6|fig7|fig10|fig11|fig12|fig15|fig16|fig17|fig18|fig19|fig20|fig21|fig22|ablations|all>")
}

// curveBudgets is the budget sweep used by every score-vs-budget figure.
var curveBudgets = []float64{20, 40, 80, 160, 320}

func run(cmd string, seed int64) bool {
	w := os.Stdout
	switch cmd {
	case "table1":
		rows := bench.Table1All(seed)
		bench.WriteTable1(w, rows)
		s1, m1, t1 := bench.AverageRatio(rows, false)
		sM, mM, tM := bench.AverageRatio(rows, true)
		fmt.Fprintf(w, "\nsingle-core: OpenTuner needs %.2fx WBTuner's work (%d matched, %d t/o)\n", s1, m1, t1)
		fmt.Fprintf(w, "multi-core (4 workers): %.2fx (%d matched, %d t/o)\n", sM, mM, tM)
		fmt.Fprintln(w, "paper: 3.08X single-core (2 t/o), 4.67X multi-core (3 t/o)")

	case "fig6":
		r := bench.Fig6(seed)
		fmt.Fprintf(w, "stage 1 samples (m):      %d\n", r.Stage1Samples)
		fmt.Fprintf(w, "survivors after pruning:  %d\n", r.Survivors)
		fmt.Fprintf(w, "stage 2 samples per split:%d\n", r.Stage2Samples)
		fmt.Fprintf(w, "white-box configurations: %d (m + survivors*n)\n", r.Configurations)
		fmt.Fprintf(w, "black-box equivalent:     %d full executions (m*n grid)\n", r.BlackBoxNeeds)
		fmt.Fprintln(w, "paper: 200 samples -> 122 survivors x 90 = 10980 configurations in one execution")

	case "fig7":
		r := bench.Fig7(seed)
		fmt.Fprintf(w, "budget (work units):  %.1f\n", r.Budget)
		fmt.Fprintf(w, "%-12s %10s %10s\n", "", "WBTuner", "OpenTuner")
		fmt.Fprintf(w, "%-12s %10d %10d\n", "samples", r.WBSamples, r.OTSamples)
		fmt.Fprintf(w, "%-12s %10.3f %10.3f\n", "SSIM", r.WBScore, r.OTScore)
		fmt.Fprintf(w, "no tuning SSIM: %.3f\n", r.Native)
		fmt.Fprintln(w, "paper: 10980 vs 842 samples; SSIM 0.794 vs 0.592 in 90 s")

	case "fig10":
		bench.WriteFig10(w, bench.Fig10(seed))
		fmt.Fprintln(w, "note: +incremental reaches no code here (no program declares a built-in aggregator)")
		fmt.Fprintln(w, "paper: incremental aggregation cuts memory; scheduler cuts Canny/K-means time ~4x")

	case "fig11":
		bench.WriteScenes(w, "Canny SSIM on 10 scenes (higher is better)", bench.Fig11(seed), true)
		fmt.Fprintln(w, "paper: WBTuner +178% vs no tuning, OpenTuner +119%")

	case "fig12":
		for _, scene := range []string{"pitcher", "brush"} {
			b := bench.CannyBench{Scene: scene}
			bench.WriteCurve(w, "Canny "+scene+" (SSIM vs budget)", bench.Curve(b, seed, curveBudgets))
		}

	case "fig15":
		bench.WriteScenes(w, "Phylip scale-free tree error on 10 datasets (lower is better)", bench.Fig15(seed), false)
		fmt.Fprintln(w, "paper: errors reduced 283x vs no tuning, 4.77x vs OpenTuner")

	case "fig16":
		for _, i := range []int64{1, 9} {
			b := bench.PhylipBench{DataSeed: i}
			bench.WriteCurve(w, fmt.Sprintf("Phylip data%d (error vs budget)", i+1),
				bench.Curve(b, seed, curveBudgets))
		}

	case "fig17":
		rows := bench.Fig17(seed)
		fmt.Fprintf(w, "%-8s %12s %12s %12s %12s\n", "dataset",
			"train(noCV)", "test(noCV)", "train(CV)", "test(CV)")
		var a, bb, c, d float64
		for _, r := range rows {
			fmt.Fprintf(w, "%-8s %12.3f %12.3f %12.3f %12.3f\n",
				r.Dataset, r.TrainNoCV, r.TestNoCV, r.TrainWithCV, r.TestWithCV)
			a += r.TrainNoCV
			bb += r.TestNoCV
			c += r.TrainWithCV
			d += r.TestWithCV
		}
		n := float64(len(rows))
		fmt.Fprintf(w, "%-8s %12.3f %12.3f %12.3f %12.3f\n", "mean", a/n, bb/n, c/n, d/n)
		fmt.Fprintln(w, "paper: without CV train error ~0 but test error high (overfitting); CV closes the gap")

	case "fig18":
		bench.WriteScenes(w, "SVM test error on 10 datasets (lower is better)", bench.Fig18(seed), false)
		fmt.Fprintln(w, "paper: improvement over no tuning: WBTuner 47%, OpenTuner 35%")

	case "fig19":
		bench.WriteCurve(w, "SVM (test error vs budget)", bench.Curve(bench.SVMBench{}, seed, curveBudgets))

	case "fig20":
		bench.WriteScenes(w, "Speech precision on 10 speaker sets of 5 audios (higher is better)", bench.Fig20(seed), true)
		fmt.Fprintln(w, "paper: WBTuner ~4.6/5 average, OpenTuner 3.94, native 2.7")

	case "fig21":
		bench.WriteCurve(w, "Speech set1 (precision vs budget)",
			bench.Curve(bench.SpeechBench{SpeakerSet: 0}, seed, curveBudgets))

	case "ablations":
		bench.WriteAblations(w, seed)

	case "fig22":
		r := bench.Fig22(seed)
		fmt.Fprintf(w, "motor RMSE vs reference:  before %.4f -> after %.4f\n", r.RMSEBefore, r.RMSEAfter)
		fmt.Fprintf(w, "flight time (s): reference %.1f, untuned %.1f, tuned %.1f (%.0f%% faster)\n",
			r.FlightTimeRef, r.FlightTimeBase, r.FlightTimeTuned,
			(1-r.FlightTimeTuned/r.FlightTimeBase)*100)
		fmt.Fprintf(w, "energy: untuned %.1f, tuned %.1f\n", r.EnergyBase, r.EnergyTuned)
		fmt.Fprintln(w, "paper: tuned motor speeds track PX4; flight time 105 s -> 82 s (22% faster)")

	default:
		return false
	}
	return true
}
