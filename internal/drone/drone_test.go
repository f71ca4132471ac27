package drone

import (
	"math"
	"testing"
)

func TestVecOps(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if a.Add(b) != (Vec3{5, 7, 9}) || b.Sub(a) != (Vec3{3, 3, 3}) {
		t.Fatal("Add/Sub wrong")
	}
	if a.Scale(2) != (Vec3{2, 4, 6}) {
		t.Fatal("Scale wrong")
	}
	if math.Abs(Vec3{3, 4, 0}.Norm()-5) > 1e-12 {
		t.Fatal("Norm wrong")
	}
}

func TestMixerClampsAndHovers(t *testing.T) {
	m := mixer(hover, 0, 0, 0)
	for _, v := range m {
		if v != hover {
			t.Fatalf("hover mixer %v", m)
		}
	}
	m = mixer(5, 5, 5, 5)
	for _, v := range m {
		if v < 0 || v > 1 {
			t.Fatal("mixer did not clamp")
		}
	}
}

func TestStepHoverHolds(t *testing.T) {
	s := State{Pos: Vec3{Z: 10}}
	for i := 0; i < 100; i++ {
		step(&s, Motors{hover, hover, hover, hover}, 0.02)
	}
	if math.Abs(s.Pos.Z-10) > 0.5 {
		t.Fatalf("hover drifted to %g", s.Pos.Z)
	}
}

func TestStepGravityPullsDown(t *testing.T) {
	s := State{Pos: Vec3{Z: 10}}
	for i := 0; i < 50; i++ {
		step(&s, Motors{}, 0.02)
	}
	if s.Pos.Z >= 10 {
		t.Fatal("no gravity")
	}
}

func TestGroundIsFloor(t *testing.T) {
	s := State{}
	for i := 0; i < 50; i++ {
		step(&s, Motors{}, 0.02)
	}
	if s.Pos.Z < 0 {
		t.Fatal("fell through the ground")
	}
}

func TestVelociCompletesMissions(t *testing.T) {
	for _, m := range []Mission{TrainingMission1(), TrainingMission2(), TestMission()} {
		tr := Simulate(NewVeloci(), m, SimOptions{})
		if !tr.Completed {
			t.Fatalf("veloci failed mission %s (flight time %.1f)", m.Name, tr.FlightTime)
		}
	}
}

func TestArduCompletesMissionsSlower(t *testing.T) {
	for _, m := range []Mission{TrainingMission1(), TrainingMission2()} {
		v := Simulate(NewVeloci(), m, SimOptions{})
		a := Simulate(NewArdu(), m, SimOptions{MaxTime: 300})
		if !a.Completed {
			t.Fatalf("ardu failed mission %s", m.Name)
		}
		if a.FlightTime <= v.FlightTime {
			t.Fatalf("%s: ardu (%.1fs) should be slower than veloci (%.1fs) untuned",
				m.Name, a.FlightTime, v.FlightTime)
		}
	}
}

func TestSimulationDeterministic(t *testing.T) {
	a := Simulate(NewVeloci(), TrainingMission2(), SimOptions{})
	b := Simulate(NewVeloci(), TrainingMission2(), SimOptions{})
	if a.FlightTime != b.FlightTime || len(a.Motors) != len(b.Motors) {
		t.Fatal("simulation not deterministic")
	}
	for i := range a.Motors {
		if a.Motors[i] != b.Motors[i] {
			t.Fatal("motor traces differ")
		}
	}
}

func TestParamsRoundTripAndUnknownPanics(t *testing.T) {
	a := NewArdu()
	p := a.Params()
	if len(p) < 40 {
		t.Fatalf("ardu exposes %d params", len(p))
	}
	p["WPNAV_SPEED_CMS"] = 900
	a.SetParams(map[string]float64{"WPNAV_SPEED_CMS": 900})
	if a.Params()["WPNAV_SPEED_CMS"] != 900 {
		t.Fatal("SetParams lost the value")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown param should panic")
		}
	}()
	a.SetParams(map[string]float64{"PX4_STYLE_NAME": 1})
}

func TestControllersShareNoParameterNames(t *testing.T) {
	v := NewVeloci().Params()
	a := NewArdu().Params()
	for k := range v {
		if _, ok := a[k]; ok {
			t.Fatalf("parameter %q exists in both controllers; the paper's premise is disjoint schemas", k)
		}
	}
}

func TestArduTunablesHaveBoundsAndExist(t *testing.T) {
	a := NewArdu()
	params := a.Params()
	total := 0
	for _, mode := range []Mode{ModeTakeoff, ModeCruise, ModeLand} {
		for _, name := range ArduTunables(mode) {
			total++
			if _, ok := params[name]; !ok {
				t.Fatalf("tunable %q is not an Ardu parameter", name)
			}
			lo, hi := ArduBounds(name)
			if hi <= lo {
				t.Fatalf("bounds of %q inverted", name)
			}
		}
	}
	if total != 40 {
		t.Fatalf("tunable count = %d, paper tunes 40", total)
	}
}

func TestTuningArduTowardVelociReducesRMSE(t *testing.T) {
	m := TrainingMission2()
	ref := Simulate(NewVeloci(), m, SimOptions{MaxTime: 300})
	base := Simulate(NewArdu(), m, SimOptions{MaxTime: 300})
	baseRMSE := MotorRMSE(ref, base)

	// Hand-tuned: push the conservative defaults toward the reference's
	// behaviour (faster, tighter loops).
	tuned := NewArdu()
	tuned.SetParams(map[string]float64{
		"WPNAV_SPEED_CMS": 700, "WPNAV_RADIUS_CM": 150,
		"POS_XY_P_CM": 1.1, "POS_Z_P_CM": 1.4,
		"VEL_XY_P": 0.20, "VEL_XY_I": 0.02,
		"VEL_Z_P": 0.28, "VEL_Z_I": 0.10,
		"ANG_RLL_P": 6.0, "ANG_PIT_P": 6.0,
		"RAT_RLL_P": 0.14, "RAT_PIT_P": 0.14,
		"TKOFF_SPD_CMS": 280, "TKOFF_ACC_Z_P": 0.28, "TKOFF_ACC_Z_I": 0.10,
		"LAND_SPEED_CMS": 110, "LAND_ACC_Z_P": 0.28, "LAND_ACC_Z_I": 0.10,
		"ANGLE_MAX_CD": 2400, "ATC_INPUT_TC": 0.1,
	})
	tr := Simulate(tuned, m, SimOptions{MaxTime: 300})
	tunedRMSE := MotorRMSE(ref, tr)
	if tunedRMSE >= baseRMSE {
		t.Fatalf("hand tuning did not reduce RMSE: %g -> %g", baseRMSE, tunedRMSE)
	}
	if !tr.Completed {
		t.Fatal("tuned ardu failed the mission")
	}
	if tr.FlightTime >= base.FlightTime {
		t.Fatalf("tuned ardu should fly faster: %.1fs vs %.1fs", tr.FlightTime, base.FlightTime)
	}
}

func TestModeRMSERestricted(t *testing.T) {
	m := TrainingMission1()
	ref := Simulate(NewVeloci(), m, SimOptions{MaxTime: 300})
	tr := Simulate(NewArdu(), m, SimOptions{MaxTime: 300})
	whole := MotorRMSE(ref, tr)
	tk := ModeRMSE(ref, tr, ModeTakeoff)
	if math.IsInf(tk, 1) {
		t.Fatal("no overlapping takeoff ticks")
	}
	if whole < 0 || tk < 0 {
		t.Fatal("negative RMSE")
	}
}

func TestMotorRMSEIdentityAndEmpty(t *testing.T) {
	tr := Simulate(NewVeloci(), TrainingMission1(), SimOptions{})
	if MotorRMSE(tr, tr) != 0 {
		t.Fatal("self RMSE not 0")
	}
	if !math.IsInf(MotorRMSE(Trace{}, tr), 1) {
		t.Fatal("empty trace should be infinitely far")
	}
}

func TestPathLengthPositive(t *testing.T) {
	tr := Simulate(NewVeloci(), TestMission(), SimOptions{MaxTime: 300})
	if l := PathLength(tr); l < 100 {
		t.Fatalf("zigzag path only %g m", l)
	}
}

func TestEnergyAccumulates(t *testing.T) {
	tr := Simulate(NewVeloci(), TrainingMission1(), SimOptions{})
	if tr.Energy <= 0 {
		t.Fatal("no energy recorded")
	}
}

func TestModeString(t *testing.T) {
	if ModeTakeoff.String() != "takeoff" || ModeCruise.String() != "cruise" || ModeLand.String() != "land" {
		t.Fatal("mode names wrong")
	}
}

func TestModeRMSEMissingModeInfinite(t *testing.T) {
	// A trace that never cruises has no cruise segment to compare.
	m := TrainingMission1() // takeoff + land only
	tr := Simulate(NewVeloci(), m, SimOptions{})
	if !math.IsInf(ModeRMSE(tr, tr, ModeCruise), 1) {
		t.Fatal("missing mode should be infinitely far")
	}
	if ModeRMSE(tr, tr, ModeTakeoff) != 0 {
		t.Fatal("self mode RMSE should be 0")
	}
}

func TestTraceModesCoverMission(t *testing.T) {
	tr := Simulate(NewVeloci(), TrainingMission2(), SimOptions{})
	seen := map[Mode]bool{}
	for _, m := range tr.Modes {
		seen[m] = true
	}
	for _, m := range []Mode{ModeTakeoff, ModeCruise, ModeLand} {
		if !seen[m] {
			t.Fatalf("mission never entered %s", m)
		}
	}
	// Modes must appear in order: takeoff before cruise before land.
	firstCruise, firstLand := -1, -1
	for i, m := range tr.Modes {
		if m == ModeCruise && firstCruise < 0 {
			firstCruise = i
		}
		if m == ModeLand && firstLand < 0 {
			firstLand = i
		}
	}
	if !(0 < firstCruise && firstCruise < firstLand) {
		t.Fatalf("mode order wrong: cruise at %d, land at %d", firstCruise, firstLand)
	}
}

func TestSimOptionsDefaults(t *testing.T) {
	tr := Simulate(NewVeloci(), TrainingMission1(), SimOptions{}) // zero values
	if tr.Dt != 0.02 {
		t.Fatalf("default dt = %g", tr.Dt)
	}
	if !tr.Completed {
		t.Fatal("default options failed the simplest mission")
	}
}

// TestSimOptionsNonFinitePanics: int(maxT/dt) of a NaN or an infinity is
// implementation-defined, so Simulate refuses such options.
func TestSimOptionsNonFinitePanics(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, opt := range []SimOptions{
		{MaxTime: nan}, {MaxTime: inf}, {MaxTime: -inf},
		{Dt: nan}, {Dt: inf}, {Dt: -inf},
		{Dt: nan, MaxTime: nan},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Simulate with %+v did not panic", opt)
				}
			}()
			Simulate(NewVeloci(), TrainingMission1(), opt)
		}()
	}
}

func TestVelociParamsImmutableByCopy(t *testing.T) {
	v := NewVeloci()
	p := v.Params()
	p["MPC_XY_P"] = 999
	if v.Params()["MPC_XY_P"] == 999 {
		t.Fatal("Params returned the internal map")
	}
}
