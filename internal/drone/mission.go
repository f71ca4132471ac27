package drone

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/stats"
)

// Mission is a sequence of waypoints flown as takeoff → cruise → land.
type Mission struct {
	Name      string
	Alt       float64 // takeoff altitude
	Waypoints []Vec3  // cruise waypoints (at Alt unless stated)
	WPRadius  float64 // acceptance radius
}

// TrainingMission1 is the paper's first training mission: take off to 10 m
// and land.
func TrainingMission1() Mission {
	return Mission{Name: "takeoff-land", Alt: 10, WPRadius: 1.5}
}

// TrainingMission2 is the 45 m three-waypoint route.
func TrainingMission2() Mission {
	return Mission{
		Name: "route-45m", Alt: 8, WPRadius: 1.5,
		Waypoints: []Vec3{{X: 15, Y: 0, Z: 8}, {X: 15, Y: 15, Z: 8}, {X: 0, Y: 15, Z: 8}},
	}
}

// TestMission is the 165 m zigzag that returns to the start (Fig. 22).
func TestMission() Mission {
	return Mission{
		Name: "zigzag-165m", Alt: 10, WPRadius: 1.5,
		Waypoints: []Vec3{
			{X: 25, Y: 5, Z: 10}, {X: 5, Y: 15, Z: 10}, {X: 25, Y: 25, Z: 10},
			{X: 5, Y: 35, Z: 10}, {X: 25, Y: 45, Z: 10}, {X: 0, Y: 0, Z: 10},
		},
	}
}

// Trace is the record of one simulated flight.
type Trace struct {
	Dt         float64
	Motors     [][4]float64
	Pos        []Vec3
	Modes      []Mode
	FlightTime float64 // seconds until mission completion (or MaxTime)
	Completed  bool
	Energy     float64 // integral of squared motor speeds (battery proxy)
}

// SimOptions bound a simulation.
type SimOptions struct {
	Dt      float64 // integration step; 0 means 0.02 s
	MaxTime float64 // 0 means 120 s
}

// Simulate flies the mission with the controller and records the trace.
// The mission planner sequences takeoff → waypoints → land and reports
// completion when the vehicle is back on the ground. A NaN or infinite
// Dt or MaxTime panics.
//
// A step is a function of the state, the controller's loop state, the
// mode and the waypoint alone. Once all of them repeat the previous
// step's bits, every later step repeats that step, so for Veloci and Ardu
// the rest of the flight is its record, copied.
func Simulate(c Controller, m Mission, opt SimOptions) Trace {
	if math.IsNaN(opt.Dt) || math.IsInf(opt.Dt, 0) || math.IsNaN(opt.MaxTime) || math.IsInf(opt.MaxTime, 0) {
		panic(fmt.Sprintf("drone: non-finite SimOptions %+v", opt))
	}
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
	ls, _ := c.(loopStater)
	type loop struct {
		s    [12]uint64
		c    loopBits
		mode Mode
		wp   int
	}
	var prevPos Vec3 // at the top of the previous step
	var prev loop
	held := false // prev is the loop at the top of the previous step
	for i := 0; i < steps; i++ {
		// A repeated position gates the full comparison. From step 12 on,
		// the completion test's i > 10 held at step i-1.
		if ls != nil && i > 11 && s.Pos == prevPos {
			cur := loop{stateBits(&s), ls.loopBits(), mode, wp}
			if held && cur == prev {
				last := len(tr.Motors) - 1
				tr.Motors, tr.Pos = slices.Grow(tr.Motors, steps-i), slices.Grow(tr.Pos, steps-i)
				tr.Modes = slices.Grow(tr.Modes, steps-i)
				for ; i < steps; i++ {
					tr.Motors = append(tr.Motors, tr.Motors[last])
					tr.Pos = append(tr.Pos, tr.Pos[last])
					tr.Modes = append(tr.Modes, tr.Modes[last])
					for _, mm := range tr.Motors[last] {
						tr.Energy += mm * mm * dt
					}
				}
				break
			}
			prev, held = cur, true
		} else {
			prevPos, held = s.Pos, false
		}
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

// rmsePoints is the resampling resolution of the behaviour comparison.
const rmsePoints = 200

// timingWeight converts relative flight-duration mismatch into score units
// so that mimicking the reference's speed matters alongside the motor
// profile shape.
const timingWeight = 0.05

// resampleMotors maps a motor trace segment onto n normalized-time points.
func resampleMotors(motors [][4]float64, n int) [][4]float64 {
	out := make([][4]float64, n)
	if len(motors) == 0 {
		return out
	}
	for i := 0; i < n; i++ {
		src := i * (len(motors) - 1) / max(n-1, 1)
		out[i] = motors[src]
	}
	return out
}

// rmseResampled compares two motor segments on a normalized time axis.
func rmseResampled(a, b [][4]float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.Inf(1)
	}
	ra := resampleMotors(a, rmsePoints)
	rb := resampleMotors(b, rmsePoints)
	sum := 0.0
	for m := 0; m < 4; m++ {
		av := make([]float64, rmsePoints)
		bv := make([]float64, rmsePoints)
		for i := 0; i < rmsePoints; i++ {
			av[i] = ra[i][m]
			bv[i] = rb[i][m]
		}
		sum += stats.RMSE(av, bv)
	}
	return sum / 4
}

// MotorRMSE compares two flights' motor traces on a normalized time axis —
// the shape of the motor commands across the mission — plus a term for the
// relative flight-duration mismatch. Lower means closer mimicry; this is
// the behaviour-learning score.
func MotorRMSE(a, b Trace) float64 {
	shape := rmseResampled(a.Motors, b.Motors)
	if math.IsInf(shape, 1) {
		return shape
	}
	denom := max(a.FlightTime, 1e-9)
	timing := math.Abs(a.FlightTime-b.FlightTime) / denom
	return shape + timingWeight*timing
}

// modeSegment extracts the motor samples of one flight mode.
func modeSegment(tr Trace, mode Mode) [][4]float64 {
	var out [][4]float64
	for i, m := range tr.Modes {
		if m == mode {
			out = append(out, tr.Motors[i])
		}
	}
	return out
}

// ModeRMSE is MotorRMSE restricted to one flight mode's segment of both
// traces — the per-region score used when tuning that mode's control
// function.
func ModeRMSE(a, b Trace, mode Mode) float64 {
	sa := modeSegment(a, mode)
	sb := modeSegment(b, mode)
	shape := rmseResampled(sa, sb)
	if math.IsInf(shape, 1) {
		return shape
	}
	denom := max(float64(len(sa)), 1)
	timing := math.Abs(float64(len(sa)-len(sb))) / denom
	return shape + timingWeight*timing
}

// PathLength integrates the distance flown.
func PathLength(tr Trace) float64 {
	total := 0.0
	for i := 1; i < len(tr.Pos); i++ {
		total += tr.Pos[i].Sub(tr.Pos[i-1]).Norm()
	}
	return total
}
