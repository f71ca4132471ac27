// Package drone is the substrate for the paper's behaviour-learning case
// study (Sec. V-B5): a quadrotor flight simulator plus two cascade-PID
// flight controllers with deliberately different control structures,
// parameter names, units, and default tunings:
//
//   - Veloci (standing in for PX4): a well-tuned reference controller;
//   - Ardu (standing in for Ardupilot): a controller with different
//     parameter semantics (centimetre-scaled position loop, differently
//     shaped velocity loop) and sluggish defaults, exposing 40 tunable
//     parameters grouped by flight mode.
//
// The tuning task mirrors the paper: fly both controllers on the same
// missions, and tune Ardu's parameters so that its motor-speed traces mimic
// Veloci's (RMSE scoring), with each flight mode's control function being
// one tuning region. The paper's Gazebo + 385k/278k-LOC controllers are
// replaced by this self-contained simulator; what the experiment needs —
// two controllers with non-corresponding parameters, per-mode tuning
// regions, motor traces, and a flight-time metric — is all here.
package drone

import (
	"fmt"
	"math"
)

// Vec3 is a 3-D vector.
type Vec3 struct{ X, Y, Z float64 }

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns a * k.
func (a Vec3) Scale(k float64) Vec3 { return Vec3{a.X * k, a.Y * k, a.Z * k} }

// Norm returns |a|.
func (a Vec3) Norm() float64 { return math.Sqrt(a.X*a.X + a.Y*a.Y + a.Z*a.Z) }

// State is the simulated quadrotor state.
type State struct {
	Pos, Vel            Vec3
	Roll, Pitch         float64
	RollRate, PitchRate float64
	Yaw, YawRate        float64
}

// Mode is a flight mode; each mode's control function is a tuning region.
type Mode int

// Flight modes.
const (
	ModeTakeoff Mode = iota
	ModeCruise
	ModeLand
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeTakeoff:
		return "takeoff"
	case ModeCruise:
		return "cruise"
	default:
		return "land"
	}
}

// Setpoint is what the mission planner hands the controller each tick.
type Setpoint struct {
	Target Vec3
	Mode   Mode
}

// Motors are the four normalized motor speeds in [0, 1].
type Motors [4]float64

// Controller is a flight controller: given the state and setpoint it
// produces motor speeds.
type Controller interface {
	Name() string
	Control(s State, sp Setpoint, dt float64) Motors
	Reset()
	// Params returns the current configuration (copied).
	Params() map[string]float64
	// SetParams overwrites named parameters; unknown names panic — setting
	// a parameter the controller does not have is a harness bug.
	SetParams(map[string]float64)
}

// Physical constants of the simulated airframe.
const (
	mass      = 1.5
	gravity   = 9.81
	maxThrust = 30.0 // newtons at all motors full
	inertia   = 0.03
	linDrag   = 0.25
	rotDrag   = 1.2
)

// hover is the normalized collective needed to hover.
const hover = mass * gravity / maxThrust

// mixer converts collective thrust and body torques into motor speeds
// (X configuration), clamped to [0, 1].
func mixer(thrust, rollT, pitchT, yawT float64) Motors {
	m := Motors{
		thrust - rollT + pitchT + yawT,
		thrust + rollT + pitchT - yawT,
		thrust + rollT - pitchT + yawT,
		thrust - rollT - pitchT - yawT,
	}
	for i := range m {
		m[i] = min(1, max(0, m[i]))
	}
	return m
}

// step advances the physics by dt under the given motor speeds.
func step(s *State, m Motors, dt float64) {
	collective := (m[0] + m[1] + m[2] + m[3]) / 4
	thrust := collective * maxThrust
	rollT := ((m[1] + m[2]) - (m[0] + m[3])) * 0.25
	pitchT := ((m[0] + m[1]) - (m[2] + m[3])) * 0.25
	yawT := ((m[0] + m[2]) - (m[1] + m[3])) * 0.05

	s.RollRate += (rollT/inertia - rotDrag*s.RollRate) * dt
	s.PitchRate += (pitchT/inertia - rotDrag*s.PitchRate) * dt
	s.YawRate += (yawT/inertia - rotDrag*s.YawRate) * dt
	s.Roll += s.RollRate * dt
	s.Pitch += s.PitchRate * dt
	s.Yaw += s.YawRate * dt
	s.Roll = clampAngle(s.Roll)
	s.Pitch = clampAngle(s.Pitch)

	// Small-angle thrust decomposition: pitch tilts forward (+X), roll
	// tilts right (+Y).
	ax := thrust / mass * math.Sin(s.Pitch)
	ay := -thrust / mass * math.Sin(s.Roll)
	az := thrust/mass*math.Cos(s.Pitch)*math.Cos(s.Roll) - gravity
	s.Vel.X += (ax - linDrag*s.Vel.X) * dt
	s.Vel.Y += (ay - linDrag*s.Vel.Y) * dt
	s.Vel.Z += (az - linDrag*s.Vel.Z) * dt
	s.Pos = s.Pos.Add(s.Vel.Scale(dt))
	if s.Pos.Z < 0 {
		s.Pos.Z = 0
		if s.Vel.Z < 0 {
			s.Vel.Z = 0
		}
	}
}

func clampAngle(a float64) float64 {
	const lim = 0.6
	return min(lim, max(-lim, a))
}

// pid is a textbook PID loop with output limiting and integrator clamping.
type pid struct {
	kp, ki, kd float64
	limit      float64
	integ      float64
	prev       float64
	hasPrev    bool
}

func (c *pid) reset() { c.integ, c.prev, c.hasPrev = 0, 0, false }

func (c *pid) update(err, dt float64) float64 {
	c.integ += err * dt
	if lim := c.limit; lim > 0 {
		c.integ = min(lim, max(-lim, c.integ))
	}
	d := 0.0
	if c.hasPrev && dt > 0 {
		d = (err - c.prev) / dt
	}
	c.prev = err
	c.hasPrev = true
	out := c.kp*err + c.ki*c.integ + c.kd*d
	if lim := c.limit; lim > 0 {
		out = min(lim, max(-lim, out))
	}
	return out
}

// loopStater is a controller whose Control output and next loop state
// depend only on Control's arguments and on what loopBits returns.
type loopStater interface {
	loopBits() loopBits
}

// loopBits are the bits of a controller's PID loops and of the mode it
// last flew. Simulate compares bits, not values: equal bits in give equal
// bits out, while == calls -0 and 0 equal.
type loopBits [5*7 + 1]uint64

func newLoopBits(mode Mode, loops ...pid) (b loopBits) {
	for i, c := range loops {
		hasPrev := uint64(0)
		if c.hasPrev {
			hasPrev = 1
		}
		copy(b[7*i:], []uint64{math.Float64bits(c.kp), math.Float64bits(c.ki), math.Float64bits(c.kd),
			math.Float64bits(c.limit), math.Float64bits(c.integ), math.Float64bits(c.prev), hasPrev})
	}
	b[len(b)-1] = uint64(mode)
	return b
}

func stateBits(s *State) [12]uint64 {
	var b [12]uint64
	for i, v := range []float64{s.Pos.X, s.Pos.Y, s.Pos.Z, s.Vel.X, s.Vel.Y, s.Vel.Z,
		s.Roll, s.Pitch, s.RollRate, s.PitchRate, s.Yaw, s.YawRate} {
		b[i] = math.Float64bits(v)
	}
	return b
}

// paramStore implements Params/SetParams over a map with panic-on-unknown.
type paramStore struct {
	name string
	m    map[string]float64
}

func (ps *paramStore) Params() map[string]float64 {
	out := make(map[string]float64, len(ps.m))
	for k, v := range ps.m {
		out[k] = v
	}
	return out
}

func (ps *paramStore) SetParams(p map[string]float64) {
	for k, v := range p {
		if _, ok := ps.m[k]; !ok {
			panic(fmt.Sprintf("drone: controller %s has no parameter %q", ps.name, k))
		}
		ps.m[k] = v
	}
}

func (ps *paramStore) get(k string) float64 {
	v, ok := ps.m[k]
	if !ok {
		panic(fmt.Sprintf("drone: controller %s missing parameter %q", ps.name, k))
	}
	return v
}
