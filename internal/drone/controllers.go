package drone

import "math"

// Veloci is the reference controller (the PX4 stand-in): a position →
// velocity → attitude → rate cascade with well-chosen gains. Its parameter
// names use SI units and a pos/vel/att/rate naming scheme that shares
// nothing with Ardu's.
type Veloci struct {
	paramStore
	velX, velY, velZ pid
	rateR, rateP     pid
}

// NewVeloci returns the reference controller with its shipped tuning.
func NewVeloci() *Veloci {
	v := &Veloci{paramStore: paramStore{name: "veloci", m: map[string]float64{
		// Position loop (m -> m/s).
		"MPC_XY_P": 1.1, "MPC_Z_P": 1.4,
		"MPC_XY_VEL_MAX": 7.0, "MPC_Z_VEL_MAX_UP": 3.5, "MPC_Z_VEL_MAX_DN": 2.0,
		// Velocity loops (m/s -> tilt / collective delta).
		"MPC_XY_VEL_P": 0.20, "MPC_XY_VEL_I": 0.02, "MPC_XY_VEL_D": 0.012,
		"MPC_Z_VEL_P": 0.28, "MPC_Z_VEL_I": 0.10, "MPC_Z_VEL_D": 0.0,
		"MPC_TILTMAX_AIR": 0.42,
		// Attitude + rate loops.
		"MC_ROLL_P": 6.0, "MC_PITCH_P": 6.0,
		"MC_ROLLRATE_P": 0.14, "MC_ROLLRATE_I": 0.02, "MC_ROLLRATE_D": 0.003,
		"MC_PITCHRATE_P": 0.14, "MC_PITCHRATE_I": 0.02, "MC_PITCHRATE_D": 0.003,
		// Mode shaping.
		"MPC_TKO_SPEED": 2.8, "MPC_LAND_SPEED": 1.1, "MPC_ACC_HOR_MAX": 8.0,
		"MPC_HOLD_DZ": 0.1, "MPC_VELD_LP": 5.0, "MPC_THR_MIN": 0.10,
		"MPC_THR_MAX": 0.95, "MPC_THR_HOVER": hover,
		"MC_YAW_P": 2.8, "MC_YAWRATE_P": 0.2, "MC_YAWRATE_I": 0.02,
	}}}
	v.Reset()
	return v
}

// Name implements Controller.
func (v *Veloci) Name() string { return "veloci" }

// Reset implements Controller.
func (v *Veloci) Reset() {
	g := v.get
	v.velX = pid{kp: g("MPC_XY_VEL_P"), ki: g("MPC_XY_VEL_I"), kd: g("MPC_XY_VEL_D"), limit: g("MPC_TILTMAX_AIR")}
	v.velY = pid{kp: g("MPC_XY_VEL_P"), ki: g("MPC_XY_VEL_I"), kd: g("MPC_XY_VEL_D"), limit: g("MPC_TILTMAX_AIR")}
	v.velZ = pid{kp: g("MPC_Z_VEL_P"), ki: g("MPC_Z_VEL_I"), kd: g("MPC_Z_VEL_D"), limit: 0.5}
	v.rateR = pid{kp: g("MC_ROLLRATE_P"), ki: g("MC_ROLLRATE_I"), kd: g("MC_ROLLRATE_D"), limit: 0.4}
	v.rateP = pid{kp: g("MC_PITCHRATE_P"), ki: g("MC_PITCHRATE_I"), kd: g("MC_PITCHRATE_D"), limit: 0.4}
}

func (v *Veloci) loopBits() loopBits {
	return newLoopBits(0, v.velX, v.velY, v.velZ, v.rateR, v.rateP)
}

// Control implements Controller.
func (v *Veloci) Control(s State, sp Setpoint, dt float64) Motors {
	g := v.get
	err := sp.Target.Sub(s.Pos)

	// Position -> velocity setpoints.
	velSpX := clampF(err.X*g("MPC_XY_P"), g("MPC_XY_VEL_MAX"))
	velSpY := clampF(err.Y*g("MPC_XY_P"), g("MPC_XY_VEL_MAX"))
	var velSpZ float64
	switch sp.Mode {
	case ModeTakeoff:
		velSpZ = math.Min(err.Z*g("MPC_Z_P"), g("MPC_TKO_SPEED"))
	case ModeLand:
		velSpZ = math.Max(err.Z*g("MPC_Z_P"), -g("MPC_LAND_SPEED"))
	default:
		velSpZ = clampF(err.Z*g("MPC_Z_P"), g("MPC_Z_VEL_MAX_UP"))
		if velSpZ < -g("MPC_Z_VEL_MAX_DN") {
			velSpZ = -g("MPC_Z_VEL_MAX_DN")
		}
	}

	// Velocity -> desired tilt and collective.
	pitchSp := clampF(v.velX.update(velSpX-s.Vel.X, dt), g("MPC_TILTMAX_AIR"))
	rollSp := clampF(-v.velY.update(velSpY-s.Vel.Y, dt), g("MPC_TILTMAX_AIR"))
	collective := g("MPC_THR_HOVER") + v.velZ.update(velSpZ-s.Vel.Z, dt)
	collective = math.Min(g("MPC_THR_MAX"), math.Max(g("MPC_THR_MIN"), collective))

	// Attitude -> rates -> torques.
	rollRateSp := (rollSp - s.Roll) * g("MC_ROLL_P")
	pitchRateSp := (pitchSp - s.Pitch) * g("MC_PITCH_P")
	rollT := v.rateR.update(rollRateSp-s.RollRate, dt)
	pitchT := v.rateP.update(pitchRateSp-s.PitchRate, dt)
	yawT := -g("MC_YAWRATE_P") * s.YawRate

	return mixer(collective, rollT, pitchT, yawT)
}

// Ardu is the tuning target (the Ardupilot stand-in). Its loop structure
// differs from Veloci's: the position loop works in centimetres (gains are
// 100x off in scale), the velocity loop is PI-only with a separate
// feed-forward, and every flight mode has its own gain set — which is why
// the paper tunes each mode's control function as its own region. The
// shipped defaults are deliberately conservative: low speed limits and
// soft gains make it fly slower than Veloci.
type Ardu struct {
	paramStore
	g                arduGains
	velX, velY, velZ pid
	rateR, rateP     pid
	mode             Mode
}

// arduGains are the parameters Control reads on every physics step,
// resolved from the parameter map by Reset and SetParams.
type arduGains struct {
	tkoffAccZP, tkoffAccZI, landAccZP, landAccZI, velZP, velZI float64
	wpnavSpeedCMS, posXYPCM, posZPCM, pilotAccelZ              float64
	tkoffPosZP, tkoffSpdCMS, tkoffThrMax                       float64
	landSpeedCMS, landFlareAlt, landPosZP, landThrMin          float64
	pscVelXYFilt, velXYFF, angleMaxCD                          float64
	motThstHover, motSpinMin, atcInputTC                       float64
	angRllP, angPitP, yawRateP                                 float64
}

// resolve reads the gains Control uses out of the parameter map.
func (a *Ardu) resolve() {
	g := a.get
	a.g = arduGains{
		tkoffAccZP:    g("TKOFF_ACC_Z_P"),
		tkoffAccZI:    g("TKOFF_ACC_Z_I"),
		landAccZP:     g("LAND_ACC_Z_P"),
		landAccZI:     g("LAND_ACC_Z_I"),
		velZP:         g("VEL_Z_P"),
		velZI:         g("VEL_Z_I"),
		wpnavSpeedCMS: g("WPNAV_SPEED_CMS"),
		posXYPCM:      g("POS_XY_P_CM"),
		posZPCM:       g("POS_Z_P_CM"),
		pilotAccelZ:   g("PILOT_ACCEL_Z"),
		tkoffPosZP:    g("TKOFF_POS_Z_P"),
		tkoffSpdCMS:   g("TKOFF_SPD_CMS"),
		tkoffThrMax:   g("TKOFF_THR_MAX"),
		landSpeedCMS:  g("LAND_SPEED_CMS"),
		landFlareAlt:  g("LAND_FLARE_ALT"),
		landPosZP:     g("LAND_POS_Z_P"),
		landThrMin:    g("LAND_THR_MIN"),
		pscVelXYFilt:  g("PSC_VELXY_FILT"),
		velXYFF:       g("VEL_XY_FF"),
		angleMaxCD:    g("ANGLE_MAX_CD"),
		motThstHover:  g("MOT_THST_HOVER"),
		motSpinMin:    g("MOT_SPIN_MIN"),
		atcInputTC:    g("ATC_INPUT_TC"),
		angRllP:       g("ANG_RLL_P"),
		angPitP:       g("ANG_PIT_P"),
		yawRateP:      g("YAW_RATE_P"),
	}
}

// ArduTunables lists the 40 parameters the behaviour-learning experiment
// tunes, grouped by the flight mode whose region tunes them.
func ArduTunables(mode Mode) []string {
	switch mode {
	case ModeTakeoff:
		return []string{
			"TKOFF_SPD_CMS", "TKOFF_ACC_Z_P", "TKOFF_ACC_Z_I",
			"TKOFF_THR_MAX", "TKOFF_POS_Z_P", "TKOFF_RATE_FF",
		}
	case ModeLand:
		return []string{
			"LAND_SPEED_CMS", "LAND_ACC_Z_P", "LAND_ACC_Z_I",
			"LAND_THR_MIN", "LAND_POS_Z_P", "LAND_FLARE_ALT",
		}
	default:
		return []string{
			"WPNAV_SPEED_CMS", "WPNAV_RADIUS_CM", "WPNAV_ACCEL_CMSS",
			"POS_XY_P_CM", "POS_Z_P_CM",
			"VEL_XY_P", "VEL_XY_I", "VEL_XY_FF",
			"VEL_Z_P", "VEL_Z_I",
			"ANG_RLL_P", "ANG_PIT_P",
			"RAT_RLL_P", "RAT_RLL_I", "RAT_RLL_D",
			"RAT_PIT_P", "RAT_PIT_I", "RAT_PIT_D",
			"ANGLE_MAX_CD", "THR_MIX_MAN",
			"PILOT_ACCEL_Z", "PSC_VELXY_FILT", "PSC_VELZ_FILT",
			"ATC_INPUT_TC", "MOT_THST_HOVER", "MOT_SPIN_MIN",
			"YAW_RATE_P", "YAW_RATE_I",
		}
	}
}

// ArduBounds gives the tuning range of each Ardu tunable.
func ArduBounds(name string) (lo, hi float64) {
	switch name {
	case "TKOFF_SPD_CMS", "LAND_SPEED_CMS":
		return 30, 400
	case "WPNAV_SPEED_CMS":
		return 100, 1200
	case "WPNAV_RADIUS_CM":
		return 20, 500
	case "WPNAV_ACCEL_CMSS":
		return 50, 1000
	case "POS_XY_P_CM", "POS_Z_P_CM":
		return 0.2, 3.0
	case "VEL_XY_P", "VEL_Z_P", "TKOFF_ACC_Z_P", "LAND_ACC_Z_P":
		return 0.02, 0.6
	case "VEL_XY_I", "VEL_Z_I", "TKOFF_ACC_Z_I", "LAND_ACC_Z_I":
		return 0.0, 0.3
	case "VEL_XY_FF", "TKOFF_RATE_FF":
		return 0.0, 0.5
	case "ANG_RLL_P", "ANG_PIT_P":
		return 1.0, 12.0
	case "RAT_RLL_P", "RAT_PIT_P":
		return 0.02, 0.4
	case "RAT_RLL_I", "RAT_PIT_I", "YAW_RATE_I":
		return 0.0, 0.1
	case "RAT_RLL_D", "RAT_PIT_D":
		return 0.0, 0.02
	case "ANGLE_MAX_CD":
		return 1000, 4500 // centidegrees
	case "THR_MIX_MAN", "MOT_THST_HOVER":
		return 0.1, 0.9
	case "MOT_SPIN_MIN", "TKOFF_THR_MAX", "LAND_THR_MIN":
		return 0.0, 1.0
	case "LAND_FLARE_ALT":
		return 0.2, 3.0
	case "PILOT_ACCEL_Z":
		return 50, 500
	case "PSC_VELXY_FILT", "PSC_VELZ_FILT", "ATC_INPUT_TC":
		return 0.05, 1.0
	case "YAW_RATE_P":
		return 0.05, 0.5
	case "TKOFF_POS_Z_P", "LAND_POS_Z_P":
		return 0.2, 3.0
	default:
		panic("drone: unknown Ardu tunable " + name)
	}
}

// NewArdu returns the tuning target with its conservative shipped defaults.
func NewArdu() *Ardu {
	a := &Ardu{paramStore: paramStore{name: "ardu", m: map[string]float64{
		"TKOFF_SPD_CMS": 80, "TKOFF_ACC_Z_P": 0.08, "TKOFF_ACC_Z_I": 0.02,
		"TKOFF_THR_MAX": 0.8, "TKOFF_POS_Z_P": 0.6, "TKOFF_RATE_FF": 0.0,
		"LAND_SPEED_CMS": 50, "LAND_ACC_Z_P": 0.08, "LAND_ACC_Z_I": 0.02,
		"LAND_THR_MIN": 0.1, "LAND_POS_Z_P": 0.6, "LAND_FLARE_ALT": 1.0,
		"WPNAV_SPEED_CMS": 350, "WPNAV_RADIUS_CM": 200, "WPNAV_ACCEL_CMSS": 150,
		"POS_XY_P_CM": 0.5, "POS_Z_P_CM": 0.6,
		"VEL_XY_P": 0.07, "VEL_XY_I": 0.01, "VEL_XY_FF": 0.0,
		"VEL_Z_P": 0.10, "VEL_Z_I": 0.03,
		"ANG_RLL_P": 3.0, "ANG_PIT_P": 3.0,
		"RAT_RLL_P": 0.06, "RAT_RLL_I": 0.01, "RAT_RLL_D": 0.002,
		"RAT_PIT_P": 0.06, "RAT_PIT_I": 0.01, "RAT_PIT_D": 0.002,
		"ANGLE_MAX_CD": 2000, "THR_MIX_MAN": 0.5,
		"PILOT_ACCEL_Z": 150, "PSC_VELXY_FILT": 0.5, "PSC_VELZ_FILT": 0.5,
		"ATC_INPUT_TC": 0.3, "MOT_THST_HOVER": hover, "MOT_SPIN_MIN": 0.05,
		"YAW_RATE_P": 0.15, "YAW_RATE_I": 0.01,
	}}}
	a.Reset()
	return a
}

// Name implements Controller.
func (a *Ardu) Name() string { return "ardu" }

// SetParams implements Controller; Control sees the new values at once,
// without a Reset.
func (a *Ardu) SetParams(p map[string]float64) {
	a.paramStore.SetParams(p)
	a.resolve()
}

// Reset implements Controller.
func (a *Ardu) Reset() {
	a.resolve()
	g := a.get
	tilt := g("ANGLE_MAX_CD") / 100 * math.Pi / 180
	a.velX = pid{kp: g("VEL_XY_P"), ki: g("VEL_XY_I"), limit: tilt}
	a.velY = pid{kp: g("VEL_XY_P"), ki: g("VEL_XY_I"), limit: tilt}
	a.velZ = pid{kp: g("VEL_Z_P"), ki: g("VEL_Z_I"), limit: 0.5}
	a.rateR = pid{kp: g("RAT_RLL_P"), ki: g("RAT_RLL_I"), kd: g("RAT_RLL_D"), limit: 0.4}
	a.rateP = pid{kp: g("RAT_PIT_P"), ki: g("RAT_PIT_I"), kd: g("RAT_PIT_D"), limit: 0.4}
	a.mode = -1
}

func (a *Ardu) loopBits() loopBits {
	return newLoopBits(a.mode, a.velX, a.velY, a.velZ, a.rateR, a.rateP)
}

// Control implements Controller.
func (a *Ardu) Control(s State, sp Setpoint, dt float64) Motors {
	g := &a.g
	if sp.Mode != a.mode {
		// Mode transition: per-mode vertical gains take over.
		a.mode = sp.Mode
		switch sp.Mode {
		case ModeTakeoff:
			a.velZ = pid{kp: g.tkoffAccZP, ki: g.tkoffAccZI, limit: 0.5}
		case ModeLand:
			a.velZ = pid{kp: g.landAccZP, ki: g.landAccZI, limit: 0.5}
		default:
			a.velZ = pid{kp: g.velZP, ki: g.velZI, limit: 0.5}
		}
	}
	err := sp.Target.Sub(s.Pos)

	// Position loop in centimetres: gains carry the cm conversion.
	cmsMax := g.wpnavSpeedCMS / 100
	velSpX := clampF(err.X*100*g.posXYPCM/100, cmsMax)
	velSpY := clampF(err.Y*100*g.posXYPCM/100, cmsMax)
	var velSpZ float64
	switch sp.Mode {
	case ModeTakeoff:
		velSpZ = math.Min(err.Z*g.tkoffPosZP, g.tkoffSpdCMS/100)
	case ModeLand:
		spd := g.landSpeedCMS / 100
		if s.Pos.Z < g.landFlareAlt {
			spd *= 0.5 // flare: slow final descent
		}
		velSpZ = math.Max(err.Z*g.landPosZP, -spd)
	default:
		velSpZ = clampF(err.Z*g.posZPCM, g.pilotAccelZ/100)
	}

	// Velocity loop: PI plus feed-forward, low-pass filtered setpoints.
	fx := g.pscVelXYFilt
	pitchSp := clampF(a.velX.update((velSpX-s.Vel.X)*fx/max(fx, 1e-3), dt)+
		g.velXYFF*velSpX/10, g.angleMaxCD/100*math.Pi/180)
	rollSp := clampF(-a.velY.update((velSpY-s.Vel.Y)*fx/max(fx, 1e-3), dt)-
		g.velXYFF*velSpY/10, g.angleMaxCD/100*math.Pi/180)
	collective := g.motThstHover + a.velZ.update(velSpZ-s.Vel.Z, dt)
	lo := g.motSpinMin
	hi := 1.0
	if sp.Mode == ModeTakeoff {
		hi = g.tkoffThrMax
	}
	if sp.Mode == ModeLand {
		lo = math.Max(lo, g.landThrMin)
	}
	collective = math.Min(hi, math.Max(lo, collective))

	// Attitude -> rates -> torques; ATC_INPUT_TC shapes the rate setpoint.
	tc := max(g.atcInputTC, 1e-2)
	rollRateSp := (rollSp - s.Roll) * g.angRllP / (1 + tc)
	pitchRateSp := (pitchSp - s.Pitch) * g.angPitP / (1 + tc)
	rollT := a.rateR.update(rollRateSp-s.RollRate, dt)
	pitchT := a.rateP.update(pitchRateSp-s.PitchRate, dt)
	yawT := -g.yawRateP * s.YawRate

	return mixer(collective, rollT, pitchT, yawT)
}

// clampF keeps math.Min and math.Max, as do Control's clamps between two
// variables: lim is tuned, and at lim = -Inf with a NaN v the builtins
// answer NaN where these answer -Inf. clampAngle, mixer and pid.update
// clamp to constant or positive limits, where the builtins agree with
// math.Min and math.Max on every input.
func clampF(v, lim float64) float64 {
	return math.Min(lim, math.Max(-lim, v))
}
