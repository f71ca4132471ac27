// Package repro's root benchmarks regenerate each table and figure of the
// paper under `go test -bench`. One benchmark per experiment: Table I has a
// per-program benchmark plus the full-table run; every figure has its own
// BenchmarkFigN. These wrap the same runners as cmd/experiments, so
// `go test -bench=. -benchmem` exercises the entire evaluation pipeline.
//
// The reported ns/op numbers measure the harness on this machine; the
// experiment results themselves are printed by `go run ./cmd/experiments`.
package repro

import (
	"strings"
	"testing"

	"repro/internal/bench"
)

// benchSeed keeps every benchmark on the same deterministic workload.
const benchSeed = 1

// BenchmarkTable1 regenerates the whole of Table I once per iteration.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table1All(benchSeed)
		if len(rows) != 13 {
			b.Fatalf("Table I has %d rows", len(rows))
		}
	}
}

// BenchmarkTable1Pass is the profiling target for Table I's application
// kernels: one iteration tunes all 13 programs white-box at seeds 1-4, the
// pass TestTable1OutcomeDigest pins.
func BenchmarkTable1Pass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bm := range bench.All() {
			for seed := int64(1); seed <= 4; seed++ {
				if out := bm.WBTune(seed, 0); out.Samples < 2 {
					b.Fatalf("%s seed %d explored %d samples", bm.Name(), seed, out.Samples)
				}
			}
		}
	}
}

// benchWB runs one benchmark's white-box tuning per iteration.
func benchWB(b *testing.B, name string) {
	bm := bench.ByName(name)
	if bm == nil {
		b.Fatalf("unknown benchmark %q", name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := bm.WBTune(benchSeed, 0)
		if out.Samples < 2 {
			b.Fatalf("%s explored %d samples", name, out.Samples)
		}
	}
}

// Per-program rows of Table I.
func BenchmarkTable1Canny(b *testing.B)     { benchWB(b, "Canny") }
func BenchmarkTable1Watershed(b *testing.B) { benchWB(b, "Watershed") }
func BenchmarkTable1Kmeans(b *testing.B)    { benchWB(b, "Kmeans") }
func BenchmarkTable1DBScan(b *testing.B)    { benchWB(b, "DBScan") }
func BenchmarkTable1FaceRec(b *testing.B)   { benchWB(b, "Face Rec") }
func BenchmarkTable1Speech(b *testing.B)    { benchWB(b, "Speech Rec") }
func BenchmarkTable1Phylip(b *testing.B)    { benchWB(b, "Phylip") }
func BenchmarkTable1FASTA(b *testing.B)     { benchWB(b, "FASTA") }
func BenchmarkTable1TopN(b *testing.B)      { benchWB(b, "TOPN Rec") }
func BenchmarkTable1METIS(b *testing.B)     { benchWB(b, "METIS") }
func BenchmarkTable1C45(b *testing.B)       { benchWB(b, "C4.5") }
func BenchmarkTable1SVM(b *testing.B)       { benchWB(b, "SVM") }
func BenchmarkTable1Ardupilot(b *testing.B) { benchWB(b, "Ardupilot") }

// BenchmarkFig6 regenerates the configuration-count model (Fig. 2/6).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.Fig6(benchSeed)
		if r.Configurations <= r.Stage1Samples {
			b.Fatal("no stage-2 configurations explored")
		}
	}
}

// BenchmarkFig7 regenerates the same-budget Canny comparison (Fig. 7).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.Fig7(benchSeed)
		if r.WBSamples <= r.OTSamples {
			b.Fatal("white-box tuning should explore more configurations per budget")
		}
	}
}

// BenchmarkFig10 regenerates the optimization-effect ablation (Fig. 10).
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig10(benchSeed)
		if len(rows) == 0 {
			b.Fatal("no ablation rows")
		}
	}
}

// BenchmarkFig11 regenerates the ten-scene Canny comparison (Fig. 11).
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := bench.Fig11(benchSeed); len(rows) != 10 {
			b.Fatalf("%d scenes", len(rows))
		}
	}
}

// curve budgets shared by the curve figures.
var curveBudgets = []float64{30, 60, 120}

// BenchmarkFig12 regenerates the Canny score-vs-budget curves (Fig. 12).
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, scene := range []string{"pitcher", "brush"} {
			pts := bench.Curve(bench.CannyBench{Scene: scene}, benchSeed, curveBudgets)
			if len(pts) != len(curveBudgets) {
				b.Fatal("curve truncated")
			}
		}
	}
}

// BenchmarkFig15 regenerates the ten-dataset Phylip comparison (Fig. 15).
func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := bench.Fig15(benchSeed); len(rows) != 10 {
			b.Fatalf("%d datasets", len(rows))
		}
	}
}

// BenchmarkFig16 regenerates the Phylip score-vs-budget curves (Fig. 16).
func BenchmarkFig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ds := range []int64{1, 9} {
			pts := bench.Curve(bench.PhylipBench{DataSeed: ds}, benchSeed, curveBudgets)
			if len(pts) != len(curveBudgets) {
				b.Fatal("curve truncated")
			}
		}
	}
}

// BenchmarkFig17 regenerates the SVM overfitting study (Fig. 17).
func BenchmarkFig17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig17(benchSeed)
		if len(rows) != 10 {
			b.Fatalf("%d datasets", len(rows))
		}
	}
}

// BenchmarkFig18 regenerates the ten-dataset SVM comparison (Fig. 18).
func BenchmarkFig18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := bench.Fig18(benchSeed); len(rows) != 10 {
			b.Fatalf("%d datasets", len(rows))
		}
	}
}

// BenchmarkFig19 regenerates the SVM score-vs-budget curve (Fig. 19).
func BenchmarkFig19(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := bench.Curve(bench.SVMBench{}, benchSeed, curveBudgets)
		if len(pts) != len(curveBudgets) {
			b.Fatal("curve truncated")
		}
	}
}

// BenchmarkFig20 regenerates the ten-speaker-set comparison (Fig. 20).
func BenchmarkFig20(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := bench.Fig20(benchSeed); len(rows) != 10 {
			b.Fatalf("%d sets", len(rows))
		}
	}
}

// BenchmarkFig21 regenerates the speech score-vs-budget curve (Fig. 21).
func BenchmarkFig21(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := bench.Curve(bench.SpeechBench{SpeakerSet: 0}, benchSeed, curveBudgets)
		if len(pts) != len(curveBudgets) {
			b.Fatal("curve truncated")
		}
	}
}

// BenchmarkFig22 regenerates the drone behaviour-learning study (Fig. 22).
func BenchmarkFig22(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.Fig22(benchSeed)
		if r.RMSEAfter >= r.RMSEBefore {
			b.Fatal("tuning did not move Ardu toward the reference")
		}
	}
}

// TestExperimentNamesMatchPaper pins the Table I program list to the
// paper's (a cheap tripwire against accidental renames).
func TestExperimentNamesMatchPaper(t *testing.T) {
	want := "Canny,Watershed,Kmeans,DBScan,Face Rec,Speech Rec,Phylip,FASTA,TOPN Rec,METIS,C4.5,SVM,Ardupilot"
	var names []string
	for _, b := range bench.All() {
		names = append(names, b.Name())
	}
	if got := strings.Join(names, ","); got != want {
		t.Fatalf("benchmark list drifted:\n got  %s\n want %s", got, want)
	}
}

// BenchmarkAblations regenerates the design-choice ablations of DESIGN.md:
// sampling strategy, cross-validation folds, scheduler pool size, and
// auto-tuned sampling count.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := bench.StrategyAblation(benchSeed); len(rows) != 2 {
			b.Fatal("strategy ablation truncated")
		}
		if rows := bench.CVAblation(benchSeed); len(rows) != 4 {
			b.Fatal("CV ablation truncated")
		}
		if rows := bench.PoolAblation(benchSeed); len(rows) != 5 {
			b.Fatal("pool ablation truncated")
		}
		if rows := bench.AutoSamplingAblation(benchSeed); len(rows) != 2 {
			b.Fatal("auto-sampling ablation truncated")
		}
	}
}
