package drone

import (
	"math"
	"math/rand"
	"testing"
)

// mapArdu is Ardu with the Control that looked every gain up by name in
// the parameter map on every step: the oracle for the resolved gains.
type mapArdu struct{ *Ardu }

func (a mapArdu) Control(s State, sp Setpoint, dt float64) Motors {
	g := a.get
	if sp.Mode != a.mode {
		a.mode = sp.Mode
		switch sp.Mode {
		case ModeTakeoff:
			a.velZ = pid{kp: g("TKOFF_ACC_Z_P"), ki: g("TKOFF_ACC_Z_I"), limit: 0.5}
		case ModeLand:
			a.velZ = pid{kp: g("LAND_ACC_Z_P"), ki: g("LAND_ACC_Z_I"), limit: 0.5}
		default:
			a.velZ = pid{kp: g("VEL_Z_P"), ki: g("VEL_Z_I"), limit: 0.5}
		}
	}
	err := sp.Target.Sub(s.Pos)

	cmsMax := g("WPNAV_SPEED_CMS") / 100
	velSpX := clampF(err.X*100*g("POS_XY_P_CM")/100, cmsMax)
	velSpY := clampF(err.Y*100*g("POS_XY_P_CM")/100, cmsMax)
	var velSpZ float64
	switch sp.Mode {
	case ModeTakeoff:
		velSpZ = math.Min(err.Z*g("TKOFF_POS_Z_P"), g("TKOFF_SPD_CMS")/100)
	case ModeLand:
		spd := g("LAND_SPEED_CMS") / 100
		if s.Pos.Z < g("LAND_FLARE_ALT") {
			spd *= 0.5
		}
		velSpZ = math.Max(err.Z*g("LAND_POS_Z_P"), -spd)
	default:
		velSpZ = clampF(err.Z*g("POS_Z_P_CM"), g("PILOT_ACCEL_Z")/100)
	}

	fx := g("PSC_VELXY_FILT")
	pitchSp := clampF(a.velX.update((velSpX-s.Vel.X)*fx/math.Max(fx, 1e-3), dt)+
		g("VEL_XY_FF")*velSpX/10, g("ANGLE_MAX_CD")/100*math.Pi/180)
	rollSp := clampF(-a.velY.update((velSpY-s.Vel.Y)*fx/math.Max(fx, 1e-3), dt)-
		g("VEL_XY_FF")*velSpY/10, g("ANGLE_MAX_CD")/100*math.Pi/180)
	collective := g("MOT_THST_HOVER") + a.velZ.update(velSpZ-s.Vel.Z, dt)
	lo := g("MOT_SPIN_MIN")
	hi := 1.0
	if sp.Mode == ModeTakeoff {
		hi = g("TKOFF_THR_MAX")
	}
	if sp.Mode == ModeLand {
		lo = math.Max(lo, g("LAND_THR_MIN"))
	}
	collective = math.Min(hi, math.Max(lo, collective))

	tc := math.Max(g("ATC_INPUT_TC"), 1e-2)
	rollRateSp := (rollSp - s.Roll) * g("ANG_RLL_P") / (1 + tc)
	pitchRateSp := (pitchSp - s.Pitch) * g("ANG_PIT_P") / (1 + tc)
	rollT := a.rateR.update(rollRateSp-s.RollRate, dt)
	pitchT := a.rateP.update(pitchRateSp-s.PitchRate, dt)
	yawT := -g("YAW_RATE_P") * s.YawRate

	return mixer(collective, rollT, pitchT, yawT)
}

// randomArduConfig draws every tunable of every mode inside its bounds.
func randomArduConfig(r *rand.Rand) map[string]float64 {
	cfg := map[string]float64{}
	for _, mode := range []Mode{ModeTakeoff, ModeCruise, ModeLand} {
		for _, name := range ArduTunables(mode) {
			lo, hi := ArduBounds(name)
			cfg[name] = lo + (hi-lo)*r.Float64()
		}
	}
	return cfg
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// traceDiff names the first field in which two traces differ bit for bit,
// or returns "".
func traceDiff(a, b Trace) string {
	switch {
	case len(a.Motors) != len(b.Motors) || len(a.Pos) != len(b.Pos) || len(a.Modes) != len(b.Modes):
		return "length"
	case !sameBits(a.FlightTime, b.FlightTime) || a.Completed != b.Completed:
		return "FlightTime"
	case !sameBits(a.Energy, b.Energy):
		return "Energy"
	}
	for i := range a.Motors {
		for k := range a.Motors[i] {
			if !sameBits(a.Motors[i][k], b.Motors[i][k]) {
				return "Motors"
			}
		}
		pa, pb := a.Pos[i], b.Pos[i]
		if !sameBits(pa.X, pb.X) || !sameBits(pa.Y, pb.Y) || !sameBits(pa.Z, pb.Z) {
			return "Pos"
		}
		if a.Modes[i] != b.Modes[i] {
			return "Modes"
		}
	}
	return ""
}

// TestArduMatchesMapOracle flies the resolved-gain Ardu and the map-reading
// oracle on every mission, under the shipped defaults and random tunings,
// and requires bit-identical traces.
func TestArduMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	configs := []map[string]float64{nil} // the shipped defaults
	for i := 0; i < 24; i++ {
		configs = append(configs, randomArduConfig(r))
	}
	missions := []Mission{TrainingMission1(), TrainingMission2(), TestMission()}
	for i, cfg := range configs {
		for _, m := range missions {
			got, ref := NewArdu(), NewArdu()
			got.SetParams(cfg)
			ref.SetParams(cfg)
			opt := SimOptions{MaxTime: 200}
			if d := traceDiff(Simulate(got, m, opt), Simulate(mapArdu{ref}, m, opt)); d != "" {
				t.Fatalf("config %d, mission %s: %s differs from the map-reading oracle", i, m.Name, d)
			}
		}
	}
}

// TestArduSetParamsWithoutReset pins that a gain set between two Control
// calls, with no Reset in between, takes effect on the next call.
func TestArduSetParamsWithoutReset(t *testing.T) {
	s := State{Pos: Vec3{Z: 3}}
	sp := Setpoint{Target: Vec3{X: 4, Z: 5}, Mode: ModeCruise}
	got, ref, stale := NewArdu(), mapArdu{NewArdu()}, NewArdu()
	for _, c := range []Controller{got, ref, stale} {
		c.Control(s, sp, 0.02)
	}
	p := map[string]float64{"MOT_THST_HOVER": 0.7, "WPNAV_SPEED_CMS": 900}
	got.SetParams(p)
	ref.SetParams(p)
	g, want, old := got.Control(s, sp, 0.02), ref.Control(s, sp, 0.02), stale.Control(s, sp, 0.02)
	if g != want {
		t.Fatalf("Control after SetParams = %v, map oracle %v", g, want)
	}
	if g == old {
		t.Fatal("SetParams without Reset did not reach Control")
	}
}

func BenchmarkArduSimulate(b *testing.B) {
	a := NewArdu()
	m := TestMission()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTrace = Simulate(a, m, SimOptions{MaxTime: 200})
	}
}

var benchTrace Trace

// minMaxEdges are the inputs on which float min and max can disagree: both
// zeros, NaN, both infinities and subnormals, beside ordinary values on
// both sides of the constant limits.
var minMaxEdges = func() []float64 {
	sub := math.Float64frombits(0x000fffffffffffff) // largest subnormal
	vals := []float64{0, math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64, sub, 0.3, 0.6, 1, 1.5, math.MaxFloat64}
	for _, v := range vals[2:] {
		vals = append(vals, -v)
	}
	return append(vals, math.Copysign(0, -1))
}()

// TestHelpersKeepMathMinMaxBits holds clampF, clampAngle, mixer and
// pid.update to copies written with math.Min and math.Max, bit for bit on
// every combination of minMaxEdges. mapArdu shares these helpers with Ardu,
// so TestArduMatchesMapOracle cannot see them change. Any NaN matches any
// NaN: math.Min and math.Max answer math.NaN(), the builtins a NaN operand,
// and only math.Float64bits tells the payloads apart.
func TestHelpersKeepMathMinMaxBits(t *testing.T) {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	clamp := func(v, lim float64) float64 { return math.Min(lim, math.Max(-lim, v)) }
	for _, v := range minMaxEdges {
		if got, want := clampAngle(v), clamp(v, 0.6); !same(got, want) {
			t.Errorf("clampAngle(%v) = %v, math.Min/Max %v", v, got, want)
		}
		for _, lim := range minMaxEdges {
			if got, want := clampF(v, lim), clamp(v, lim); !same(got, want) {
				t.Errorf("clampF(%v, %v) = %v, math.Min/Max %v", v, lim, got, want)
			}
		}
	}

	for _, th := range minMaxEdges {
		for _, rl := range minMaxEdges {
			for _, pt := range minMaxEdges {
				for _, yw := range minMaxEdges {
					got := mixer(th, rl, pt, yw)
					want := Motors{th - rl + pt + yw, th + rl + pt - yw, th + rl - pt + yw, th - rl - pt - yw}
					for i := range want {
						want[i] = math.Min(1, math.Max(0, want[i]))
						if !same(got[i], want[i]) {
							t.Fatalf("mixer(%v, %v, %v, %v)[%d] = %v, math.Min/Max %v", th, rl, pt, yw, i, got[i], want[i])
						}
					}
				}
			}
		}
	}

	// refUpdate is pid.update with math.Min and math.Max.
	refUpdate := func(c *pid, err, dt float64) float64 {
		c.integ += err * dt
		if lim := c.limit; lim > 0 {
			c.integ = math.Min(lim, math.Max(-lim, c.integ))
		}
		d := 0.0
		if c.hasPrev && dt > 0 {
			d = (err - c.prev) / dt
		}
		c.prev = err
		c.hasPrev = true
		out := c.kp*err + c.ki*c.integ + c.kd*d
		if lim := c.limit; lim > 0 {
			out = math.Min(lim, math.Max(-lim, out))
		}
		return out
	}
	for _, lim := range minMaxEdges {
		for _, integ := range minMaxEdges {
			for _, err := range minMaxEdges {
				for _, dt := range []float64{0, 0.01, math.SmallestNonzeroFloat64, math.Inf(1), math.NaN()} {
					for _, k := range [][3]float64{{1, 1, 1}, {0.5, 2, 0}} {
						c := pid{kp: k[0], ki: k[1], kd: k[2], limit: lim, integ: integ, prev: 0.3, hasPrev: true}
						ref := c
						got, want := c.update(err, dt), refUpdate(&ref, err, dt)
						if !same(got, want) || !same(c.integ, ref.integ) {
							t.Fatalf("pid{limit %v, integ %v}.update(%v, %v) = %v (integ %v), math.Min/Max %v (integ %v)",
								lim, integ, err, dt, got, c.integ, want, ref.integ)
						}
					}
				}
			}
		}
	}
}
