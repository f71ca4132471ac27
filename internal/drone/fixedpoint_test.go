package drone

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

// fullSimulate is Simulate before it stopped at a fixed point: it flies
// every step. It is the oracle TestSimulateMatchesFullStepOracle holds
// Simulate to.
func fullSimulate(c Controller, m Mission, opt SimOptions) Trace {
	dt := opt.Dt
	if dt <= 0 {
		dt = 0.02
	}
	maxT := opt.MaxTime
	if maxT <= 0 {
		maxT = 120
	}
	c.Reset()
	var s State
	tr := Trace{Dt: dt}
	mode := ModeTakeoff
	wp := 0
	home := Vec3{}
	steps := int(maxT / dt)
	for i := 0; i < steps; i++ {
		var sp Setpoint
		switch mode {
		case ModeTakeoff:
			sp = Setpoint{Target: Vec3{X: home.X, Y: home.Y, Z: m.Alt}, Mode: ModeTakeoff}
			if s.Pos.Z >= m.Alt*0.95 {
				if len(m.Waypoints) > 0 {
					mode = ModeCruise
				} else {
					mode = ModeLand
				}
			}
		case ModeCruise:
			sp = Setpoint{Target: m.Waypoints[wp], Mode: ModeCruise}
			if s.Pos.Sub(m.Waypoints[wp]).Norm() <= m.WPRadius {
				wp++
				if wp >= len(m.Waypoints) {
					mode = ModeLand
				}
			}
		case ModeLand:
			land := home
			if len(m.Waypoints) > 0 {
				last := m.Waypoints[len(m.Waypoints)-1]
				land = Vec3{X: last.X, Y: last.Y}
			}
			sp = Setpoint{Target: land, Mode: ModeLand}
		}
		motors := c.Control(s, sp, dt)
		step(&s, motors, dt)
		tr.Motors = append(tr.Motors, motors)
		tr.Pos = append(tr.Pos, s.Pos)
		tr.Modes = append(tr.Modes, mode)
		for _, mm := range motors {
			tr.Energy += mm * mm * dt
		}
		if mode == ModeLand && s.Pos.Z <= 0.05 && math.Abs(s.Vel.Z) < 0.1 && i > 10 {
			tr.FlightTime = float64(i+1) * dt
			tr.Completed = true
			return tr
		}
	}
	tr.FlightTime = maxT
	return tr
}

// counting counts Control calls and keeps the controller's loopState, so
// Simulate still stops at a fixed point.
type counting struct {
	Controller
	loopStater
	calls *atomic.Int64
}

func (c counting) Control(s State, sp Setpoint, dt float64) Motors {
	c.calls.Add(1)
	return c.Controller.Control(s, sp, dt)
}

// flyCounted flies c with Simulate and returns the trace and the number of
// Control calls.
func flyCounted(c Controller, m Mission, opt SimOptions) (Trace, int) {
	var calls atomic.Int64
	tr := Simulate(counting{c, c.(loopStater), &calls}, m, opt)
	return tr, int(calls.Load())
}

// wbTuneFlights flies every flight of Ardupilot's WBTune at seed, in the
// same order and with the same parameters: internal/bench's TuneArdu on
// its standard tuner (no budget, a pool of 8), then the tuned flight on
// the test mission. fly flies one controller on one mission and returns
// the trace the tuning goes on with.
func wbTuneFlights(t *testing.T, seed int64, fly func(Controller, Mission) Trace) {
	modes := []struct {
		mode    Mode
		mission Mission
		samples int
	}{
		{ModeTakeoff, TrainingMission1(), 10},
		{ModeLand, TrainingMission1(), 10},
		{ModeCruise, TrainingMission2(), 16},
	}
	incumbent := NewArdu().Params()
	tuner := core.New(core.Options{Seed: seed, MaxPool: 8})
	err := tuner.Run(func(p *core.P) error {
		for _, mm := range modes {
			ref := fly(NewVeloci(), mm.mission)
			p.Work(ref.FlightTime)
			inc := NewArdu()
			inc.SetParams(incumbent)
			incTrace := fly(inc, mm.mission)
			p.Work(incTrace.FlightTime)
			incScore := ModeRMSE(ref, incTrace, mm.mode)
			names := ArduTunables(mm.mode)
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
					lo, hi := ArduBounds(name)
					cfg[name] = sp.Float(name, dist.Uniform(lo, hi))
				}
				a := NewArdu()
				a.SetParams(cfg)
				tr := fly(a, mm.mission)
				sp.Work(tr.FlightTime)
				sp.Check(tr.Completed)
				sp.Commit("rmse", ModeRMSE(ref, tr, mm.mode))
				return nil
			})
			if err != nil {
				continue
			}
			if i := res.BestIndex(); i >= 0 && res.Score(i) < incScore {
				for name, v := range res.Params(i) {
					incumbent[name] = v
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fly(NewVeloci(), TestMission())
	a := NewArdu()
	a.SetParams(incumbent)
	fly(a, TestMission())
}

// TestSimulateMatchesFullStepOracle flies every flight of Ardupilot's
// WBTune at seeds 1-4, and two hand-built flights that cannot take off,
// with Simulate and with fullSimulate, and requires bit-identical traces.
// It also pins how many flights stop at a fixed point, so the shortcut
// cannot silently stop being taken.
func TestSimulateMatchesFullStepOracle(t *testing.T) {
	opt := SimOptions{Dt: 0.02, MaxTime: 200}
	steps := int(opt.MaxTime / opt.Dt)
	var flights, incomplete, shortcut atomic.Int64
	fly := func(c Controller, m Mission) Trace {
		tr, calls := flyCounted(c, m, opt)
		if d := traceDiff(tr, fullSimulate(c, m, opt)); d != "" {
			t.Errorf("%s on %s: %s differs from the full-step oracle", c.Name(), m.Name, d)
		}
		flights.Add(1)
		if !tr.Completed {
			incomplete.Add(1)
		}
		if calls < len(tr.Motors) {
			shortcut.Add(1)
		}
		return tr
	}
	for seed := int64(1); seed <= 4; seed++ {
		wbTuneFlights(t, seed, fly)
	}
	if flights.Load() != 176 || incomplete.Load() != 86 || shortcut.Load() != 19 {
		t.Errorf("WBTune at seeds 1-4 flew %d flights, %d incomplete, %d stopped at a fixed point; want 176, 86, 19",
			flights.Load(), incomplete.Load(), shortcut.Load())
	}

	// Hand-built: with no thrust allowed the vehicle sits on the ground
	// until the vertical integrator reaches its limit, and then nothing
	// changes.
	grounded := []Controller{NewArdu(), NewVeloci()}
	grounded[0].SetParams(map[string]float64{"TKOFF_THR_MAX": 0})
	grounded[1].SetParams(map[string]float64{"MPC_THR_MAX": 0})
	for _, c := range grounded {
		tr, calls := flyCounted(c, TrainingMission1(), opt)
		if d := traceDiff(tr, fullSimulate(c, TrainingMission1(), opt)); d != "" {
			t.Errorf("grounded %s: %s differs from the full-step oracle", c.Name(), d)
		}
		if tr.Completed || len(tr.Motors) != steps {
			t.Errorf("grounded %s: completed %v after %d steps, want an incomplete %d-step flight",
				c.Name(), tr.Completed, len(tr.Motors), steps)
		}
		if calls >= steps/10 {
			t.Errorf("grounded %s: %d Control calls, want it stopped at its fixed point", c.Name(), calls)
		}
	}
}

// TestFixedPointNeedsEqualBits: a zero and a negative zero are == but not
// the same bits, so a state or loop state that differs only there is no
// fixed point. A NaN is not == itself, but the same NaN bits are.
func TestFixedPointNeedsEqualBits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	a := State{Pos: Vec3{X: 1, Z: 2}}
	b := a
	b.Vel.Z = negZero
	ardu := NewArdu()
	la := ardu.loopBits()
	ardu.velZ.integ = negZero
	lb := ardu.loopBits()
	na, nb := State{Roll: math.NaN()}, State{Roll: math.NaN()}
	for _, row := range []struct {
		name     string
		eq, same bool
		want     bool
	}{
		{"state, 0 against -0", a == b, stateBits(&a) == stateBits(&b), false},
		{"loop state, 0 against -0", ardu.velZ.integ == 0, la == lb, false},
		{"state, equal NaN bits", na == nb, stateBits(&na) == stateBits(&nb), true},
	} {
		if row.same != row.want {
			t.Errorf("%s: same bits %v, want %v", row.name, row.same, row.want)
		}
		if row.eq == row.want {
			t.Errorf("%s: == answers %v, so the row does not tell bits from ==", row.name, row.eq)
		}
	}
}
