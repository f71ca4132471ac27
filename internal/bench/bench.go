// Package bench is the experiment harness: for each of the paper's 13
// benchmark programs it provides a native (untuned) run, a white-box tuning
// driver built on internal/core, and a black-box driver built on
// internal/opentuner, all measured in work units. The Table I and figure
// generators in this package replay the paper's methodology: run WBTuner to
// convergence, then grow OpenTuner's budget until it matches the score
// (within 10%) or exceeds 10x WBTuner's cost.
//
// Work units stand in for wall-clock seconds (see DESIGN.md): every stage
// of every benchmark charges its relative cost, so "how much computation
// did tuning spend" is deterministic and machine-independent.
package bench

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/obs"
)

// Outcome is the result of one tuning (or native) run.
type Outcome struct {
	// Score is the external quality score measured against ground truth,
	// never used during tuning.
	Score float64
	// Internal is the internal score tuning optimized, when one exists.
	Internal float64
	// Work is the total work units spent.
	Work float64
	// WorkSerial/WorkParallel decompose Work into the critical-path part
	// and the part a multi-core pool can divide (black-box tuning is all
	// serial: OpenTuner does not sample in parallel by default).
	WorkSerial   float64
	WorkParallel float64
	// Samples is the number of parameter configurations evaluated.
	Samples int
}

// WallClock models the wall time of the run on the given core count:
// serial work plus parallel work divided across cores.
func (o Outcome) WallClock(cores int) float64 {
	if cores < 1 {
		cores = 1
	}
	return o.WorkSerial + o.WorkParallel/float64(cores)
}

// Benchmark is one row of Table I.
type Benchmark interface {
	// Name is the program name as printed in the table.
	Name() string
	// HigherIsBetter reports the score direction (the ↑/↓ of Table I).
	HigherIsBetter() bool
	// ParamCount is the #P column.
	ParamCount() int
	// SamplingName and AggName are the strategy columns.
	SamplingName() string
	AggName() string
	// Native runs the program untuned.
	Native(seed int64) Outcome
	// Tune runs the white-box program on t, a tuner its caller built, over
	// the seed's workload under ctx, and returns the outcome with t's run
	// error.
	Tune(ctx context.Context, t *core.Tuner, seed int64) (Outcome, error)
	// WBTune is Tune on the standard Table I tuner (pool 8, the seed, the
	// work budget with 0 = the program's own convergence budget, and what
	// Observe sets).
	WBTune(seed int64, budget float64) Outcome
	// OTTune tunes with the black-box baseline under the work budget.
	// Benchmarks where black-box tuning is inapplicable (Ardupilot)
	// return an Outcome with NaN score.
	OTTune(seed int64, budget float64) Outcome
}

// All returns the 13 benchmarks in Table I order.
func All() []Benchmark {
	return []Benchmark{
		CannyBench{},
		WatershedBench{},
		KmeansBench{},
		DBScanBench{},
		FaceRecBench{},
		SpeechBench{},
		PhylipBench{},
		FastaBench{},
		TopNBench{},
		MetisBench{},
		C45Bench{},
		SVMBench{},
		DroneBench{},
	}
}

// ByName returns the benchmark with the given name, or nil.
func ByName(name string) Benchmark {
	for _, b := range All() {
		if b.Name() == name {
			return b
		}
	}
	return nil
}

// withinTenPercent reports whether got matches want within the paper's 10%
// criterion, respecting the score direction.
func withinTenPercent(got, want float64, higher bool) bool {
	if math.IsNaN(got) || math.IsNaN(want) {
		return false
	}
	if higher {
		return got >= want*0.9
	}
	// Lower is better; also handle a zero target gracefully.
	return got <= want*1.1+1e-12
}

// better reports whether a beats b in the given direction.
func better(a, b float64, higher bool) bool {
	if math.IsNaN(a) {
		return false
	}
	if math.IsNaN(b) {
		return true
	}
	if higher {
		return a > b
	}
	return a < b
}

// workCounter is the budget hook for black-box runs.
type workCounter struct {
	used   float64
	budget float64
}

func (w *workCounter) add(units float64) { w.used += units }
func (w *workCounter) exceeded() bool    { return w.budget > 0 && w.used >= w.budget }

// tuning is the registry and trace Observe sets for every standard Table I
// tuner. It is read without synchronization, so set it only between runs.
var tuning struct {
	obs   *obs.Registry
	trace *core.Trace
}

// standardTuner builds the one Table I tuner every WBTune runs on: a pool of
// 8, the seed and budget, and the registry and trace in tuning.
func standardTuner(seed int64, budget float64) *core.Tuner {
	return core.New(core.Options{Seed: seed, Budget: budget, MaxPool: 8, Obs: tuning.obs, Trace: tuning.trace})
}

// wbTune is every program's WBTune: Tune on the standard tuner. A run error
// already excluded its samples from the outcome.
func wbTune(b Benchmark, seed int64, budget float64) Outcome {
	out, _ := b.Tune(context.Background(), standardTuner(seed, budget), seed)
	return out
}

// tunedOutcome returns an Outcome carrying t's work and sample counts and a
// NaN score, for the program to fill in.
func tunedOutcome(t *core.Tuner) Outcome {
	m := t.Metrics()
	return Outcome{
		Score: math.NaN(), Work: t.WorkUsed(),
		WorkSerial: m.WorkSerial, WorkParallel: m.WorkParallel, Samples: int(m.Samples),
	}
}

// Observe sets the metrics registry and trace of every standard tuner
// WBTune builds (nil for none) and returns a func that restores the
// previous pair. Call it only between runs.
func Observe(reg *obs.Registry, tr *core.Trace) (restore func()) {
	prevReg, prevTr := tuning.obs, tuning.trace
	tuning.obs, tuning.trace = reg, tr
	return func() { tuning.obs, tuning.trace = prevReg, prevTr }
}
