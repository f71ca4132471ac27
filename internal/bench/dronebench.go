package bench

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/drone"
)

// DroneBench is the behaviour-learning case study (Sec. V-B5): tune Ardu's
// 40 parameters so its motor traces mimic Veloci's, with each flight
// mode's control function tuned as its own region. Black-box tuning is
// inapplicable here (the paper lists three reasons: mode-specific values
// for shared parameters, full-simulation sample cost, and simulator
// restart fragility), so OTTune reports NaN like the "-" cells of Table I.
type DroneBench struct{}

// Name implements Benchmark.
func (DroneBench) Name() string { return "Ardupilot" }

// HigherIsBetter implements Benchmark.
func (DroneBench) HigherIsBetter() bool { return false }

// ParamCount implements Benchmark.
func (DroneBench) ParamCount() int { return 40 }

// SamplingName implements Benchmark.
func (DroneBench) SamplingName() string { return "RAND" }

// AggName implements Benchmark.
func (DroneBench) AggName() string { return "CUSTOM" }

// droneSim are the simulation knobs shared by the experiment.
var droneSim = drone.SimOptions{Dt: 0.02, MaxTime: 200}

// Native implements Benchmark: untuned Ardu vs Veloci on the test mission.
func (DroneBench) Native(seed int64) Outcome {
	m := drone.TestMission()
	ref := drone.Simulate(drone.NewVeloci(), m, droneSim)
	tr := drone.Simulate(drone.NewArdu(), m, droneSim)
	w := ref.FlightTime + tr.FlightTime
	return Outcome{Score: drone.MotorRMSE(ref, tr), Work: w, WorkSerial: w, Samples: 1}
}

// droneModeMissions maps each flight mode to the training mission whose
// region tunes it (mission 1 trains takeoff/land, mission 2 trains cruise).
func droneModeMissions() []struct {
	mode    drone.Mode
	mission drone.Mission
	samples int
} {
	return []struct {
		mode    drone.Mode
		mission drone.Mission
		samples int
	}{
		{drone.ModeTakeoff, drone.TrainingMission1(), 10},
		{drone.ModeLand, drone.TrainingMission1(), 10},
		{drone.ModeCruise, drone.TrainingMission2(), 16},
	}
}

// TuneArdu runs the three per-mode tuning regions on t and returns the
// tuned parameter set with t's run error.
func TuneArdu(ctx context.Context, t *core.Tuner) (map[string]float64, error) {
	// Incumbent configuration, refined mode by mode.
	incumbent := drone.NewArdu().Params()

	err := t.RunContext(ctx, func(p *core.P) error {
		for _, mm := range droneModeMissions() {
			// Reference flight for this mission, flown once per region.
			ref := drone.Simulate(drone.NewVeloci(), mm.mission, droneSim)
			p.Work(ref.FlightTime)

			// Score the incumbent so a region full of worse samples cannot
			// displace it.
			incRun := drone.NewArdu()
			incRun.SetParams(incumbent)
			incTrace := drone.Simulate(incRun, mm.mission, droneSim)
			p.Work(incTrace.FlightTime)
			incScore := drone.ModeRMSE(ref, incTrace, mm.mode)

			names := drone.ArduTunables(mm.mode)
			res, err := p.Region(core.RegionSpec{
				Name: "drone-" + mm.mode.String(), Samples: mm.samples, Minimize: true,
				Score: func(sp *core.SP) float64 {
					v, _ := sp.Get("rmse")
					return v.(float64)
				},
			}, func(sp *core.SP) error {
				cfg := make(map[string]float64, len(incumbent))
				for k, v := range incumbent {
					cfg[k] = v
				}
				for _, name := range names {
					lo, hi := drone.ArduBounds(name)
					cfg[name] = sp.Float(name, dist.Uniform(lo, hi))
				}
				a := drone.NewArdu()
				a.SetParams(cfg)
				tr := drone.Simulate(a, mm.mission, droneSim)
				sp.Work(tr.FlightTime) // each sample run is one short sim
				sp.Check(tr.Completed) // crashed / stuck samples are pruned
				sp.Commit("rmse", drone.ModeRMSE(ref, tr, mm.mode))
				return nil
			})
			if err != nil {
				if ctx.Err() != nil {
					return err // cancelled: every later region would fail too
				}
				continue // a failed mode region keeps the incumbent values
			}
			if i := res.BestIndex(); i >= 0 && res.Score(i) < incScore {
				for name, v := range res.Params(i) {
					incumbent[name] = v
				}
			}
		}
		return nil
	})
	return incumbent, err
}

// WBTune implements Benchmark.
func (b DroneBench) WBTune(seed int64, budget float64) Outcome { return wbTune(b, seed, budget) }

// Tune implements Benchmark: tune on the training missions, evaluate
// mimicry on the held-out test mission (Fig. 22).
func (DroneBench) Tune(ctx context.Context, t *core.Tuner, seed int64) (Outcome, error) {
	tuned, err := TuneArdu(ctx, t)
	m := drone.TestMission()
	ref := drone.Simulate(drone.NewVeloci(), m, droneSim)
	a := drone.NewArdu()
	a.SetParams(tuned)
	tr := drone.Simulate(a, m, droneSim)
	rmse := drone.MotorRMSE(ref, tr)
	out := tunedOutcome(t)
	out.Score, out.Internal = rmse, rmse
	return out, err
}

// OTTune implements Benchmark: inapplicable, as in the paper.
func (DroneBench) OTTune(seed int64, budget float64) Outcome {
	return Outcome{Score: math.NaN()}
}
