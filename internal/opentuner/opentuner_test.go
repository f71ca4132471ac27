package opentuner

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
)

func sphereSpace() Space {
	return Space{
		{Name: "x", D: dist.Uniform(-5, 5)},
		{Name: "y", D: dist.Uniform(-5, 5)},
	}
}

// sphere is minimized at (1, -2).
func sphere(cfg map[string]float64) (float64, any) {
	dx := cfg["x"] - 1
	dy := cfg["y"] + 2
	return dx*dx + dy*dy, nil
}

func TestRunFindsSphereMinimum(t *testing.T) {
	tu := New(sphereSpace(), sphere, Options{Seed: 1, Minimize: true, MaxEvals: 400})
	best := tu.Run()
	if best.Score > 0.5 {
		t.Fatalf("best score %g after 400 evals; search is broken", best.Score)
	}
	if tu.Evals() != 400 {
		t.Fatalf("Evals = %d", tu.Evals())
	}
}

func TestRunMaximize(t *testing.T) {
	obj := func(cfg map[string]float64) (float64, any) {
		return -math.Abs(cfg["x"] - 3), nil
	}
	tu := New(Space{{Name: "x", D: dist.Uniform(0, 10)}}, obj, Options{Seed: 2, MaxEvals: 200})
	best := tu.Run()
	if math.Abs(best.Config["x"]-3) > 0.5 {
		t.Fatalf("best x = %g, want ~3", best.Config["x"])
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		tu := New(sphereSpace(), sphere, Options{Seed: 7, Minimize: true, MaxEvals: 50})
		return tu.Run().Score
	}
	if run() != run() {
		t.Fatal("same seed must reproduce the same search")
	}
}

func TestSeedMatters(t *testing.T) {
	run := func(seed int64) float64 {
		tu := New(sphereSpace(), sphere, Options{Seed: seed, Minimize: true, MaxEvals: 20})
		return tu.Run().Score
	}
	if run(1) == run(2) {
		t.Fatal("different seeds should explore differently")
	}
}

func TestStopHaltsTuning(t *testing.T) {
	evals := 0
	obj := func(cfg map[string]float64) (float64, any) {
		evals++
		return 0, nil
	}
	tu := New(sphereSpace(), obj, Options{
		Seed: 1, Minimize: true,
		Stop: func() bool { return evals >= 10 },
	})
	tu.Run()
	if evals != 10 {
		t.Fatalf("Stop did not halt: %d evals", evals)
	}
}

func TestCheckpointCalledEveryEval(t *testing.T) {
	var calls int
	var lastBest float64 = math.Inf(1)
	tu := New(sphereSpace(), sphere, Options{
		Seed: 3, Minimize: true, MaxEvals: 30,
		Checkpoint: func(evals int, best Eval) {
			calls++
			if evals != calls {
				t.Errorf("checkpoint evals = %d at call %d", evals, calls)
			}
			if best.Score > lastBest {
				t.Errorf("incumbent got worse: %g -> %g", lastBest, best.Score)
			}
			lastBest = best.Score
		},
	})
	tu.Run()
	if calls != 30 {
		t.Fatalf("checkpoint ran %d times", calls)
	}
}

func TestHistoryAndArtifacts(t *testing.T) {
	obj := func(cfg map[string]float64) (float64, any) {
		return cfg["x"], cfg["x"] * 2
	}
	tu := New(Space{{Name: "x", D: dist.Uniform(0, 1)}}, obj, Options{Seed: 4, MaxEvals: 5})
	tu.Run()
	h := tu.History()
	if len(h) != 5 {
		t.Fatalf("history length %d", len(h))
	}
	for _, ev := range h {
		if ev.Artifact.(float64) != ev.Config["x"]*2 {
			t.Fatal("artifact lost or mangled")
		}
	}
}

func TestConfigsStayInBounds(t *testing.T) {
	space := Space{
		{Name: "a", D: dist.Uniform(0, 1)},
		{Name: "b", D: dist.IntRange(3, 9)},
		{Name: "c", D: dist.LogUniform(0.01, 100)},
	}
	bounds := map[string][2]float64{"a": {0, 1}, "b": {3, 9}, "c": {0.01, 100}}
	obj := func(cfg map[string]float64) (float64, any) {
		for _, p := range space {
			lo, hi := bounds[p.Name][0], bounds[p.Name][1]
			if cfg[p.Name] < lo || cfg[p.Name] > hi {
				t.Fatalf("param %s = %g out of [%g, %g]", p.Name, cfg[p.Name], lo, hi)
			}
		}
		return cfg["a"], nil
	}
	New(space, obj, Options{Seed: 5, Minimize: true, MaxEvals: 300}).Run()
}

func TestEachTechniqueProposesFullConfig(t *testing.T) {
	space := sphereSpace()
	r := rand.New(rand.NewSource(1))
	history := []Eval{
		{Config: map[string]float64{"x": 0, "y": 0}, Score: 5},
		{Config: map[string]float64{"x": 1, "y": 1}, Score: 3},
		{Config: map[string]float64{"x": 2, "y": -1}, Score: 7},
	}
	best := &history[1]
	for _, tech := range DefaultTechniques() {
		// With and without history/best.
		for _, tc := range []struct {
			h []Eval
			b *Eval
		}{{nil, nil}, {history, best}} {
			cfg := tech.Propose(r, space, tc.h, tc.b, true)
			if len(cfg) != len(space) {
				t.Fatalf("%s proposed %d params, want %d", tech.Name(), len(cfg), len(space))
			}
			for _, p := range space {
				if cfg[p.Name] < -5 || cfg[p.Name] > 5 { // sphereSpace's support
					t.Fatalf("%s: %s = %g out of bounds", tech.Name(), p.Name, cfg[p.Name])
				}
			}
		}
	}
}

func TestBanditUsesEveryTechniqueOnce(t *testing.T) {
	b := newBandit(DefaultTechniques(), rand.New(rand.NewSource(1)))
	seen := map[string]bool{}
	for i := 0; i < len(DefaultTechniques()); i++ {
		tech := b.pick()
		seen[tech.Name()] = true
		b.reward(tech, false)
	}
	if len(seen) != len(DefaultTechniques()) {
		t.Fatalf("bandit warmup used %d distinct techniques", len(seen))
	}
}

func TestBanditFavorsRewardedTechnique(t *testing.T) {
	techs := []Technique{Random{}, HillClimb{Scale: 0.1}}
	b := newBandit(techs, rand.New(rand.NewSource(1)))
	// Warmup.
	b.reward(techs[0], false)
	b.reward(techs[1], false)
	b.uses["random"] = 1
	b.uses["hillclimb"] = 1
	// Reward hillclimb heavily.
	for i := 0; i < 20; i++ {
		b.reward(techs[1], true)
		b.reward(techs[0], false)
	}
	picks := map[string]int{}
	for i := 0; i < 50; i++ {
		tech := b.pick()
		picks[tech.Name()]++
		b.reward(tech, tech.Name() == "hillclimb")
	}
	if picks["hillclimb"] <= picks["random"] {
		t.Fatalf("bandit ignored credit: %v", picks)
	}
}

func TestBanditWindowSlides(t *testing.T) {
	b := newBandit(DefaultTechniques(), rand.New(rand.NewSource(1)))
	for i := 0; i < banditWindow*3; i++ {
		b.reward(Random{}, false)
	}
	if len(b.window) != banditWindow {
		t.Fatalf("window length %d, want %d", len(b.window), banditWindow)
	}
}

func TestNewValidation(t *testing.T) {
	obj := func(map[string]float64) (float64, any) { return 0, nil }
	for name, fn := range map[string]func(){
		"empty space": func() { New(nil, obj, Options{MaxEvals: 1}) },
		"nil obj":     func() { New(sphereSpace(), nil, Options{MaxEvals: 1}) },
		"no budget":   func() { New(sphereSpace(), obj, Options{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBestBeforeRunIsZero(t *testing.T) {
	tu := New(sphereSpace(), sphere, Options{Seed: 1, MaxEvals: 1})
	if b := tu.Best(); b.Config != nil {
		t.Fatal("Best before Run should be zero")
	}
}

// The headline structural claim: on a staged objective where stage-1 work
// dominates, black-box tuning pays the full cost per sample. This test just
// pins the accounting the benchmark harness relies on.
func TestFullExecutionPerSampleAccounting(t *testing.T) {
	work := 0.0
	obj := func(cfg map[string]float64) (float64, any) {
		work += 10.0 // stage 1 (expensive preprocessing) repaid every sample
		work += 1.0  // stage 2
		return cfg["x"], nil
	}
	New(Space{{Name: "x", D: dist.Uniform(0, 1)}}, obj,
		Options{Seed: 1, Minimize: true, MaxEvals: 20}).Run()
	if work != 220 {
		t.Fatalf("work = %g, want 20 full executions * 11", work)
	}
}

func TestInitialConfigEvaluatedFirst(t *testing.T) {
	var first map[string]float64
	obj := func(cfg map[string]float64) (float64, any) {
		if first == nil {
			first = cfg
		}
		return cfg["x"], nil
	}
	tu := New(Space{
		{Name: "x", D: dist.Uniform(0, 1)},
		{Name: "y", D: dist.Uniform(0, 1)},
	}, obj, Options{
		Seed: 1, MaxEvals: 10,
		InitialConfig: map[string]float64{"x": 0.25},
	})
	tu.Run()
	if first["x"] != 0.25 {
		t.Fatalf("first eval x = %g, want the seeded default", first["x"])
	}
	if _, ok := first["y"]; !ok {
		t.Fatal("missing params must be filled in")
	}
}

func TestInitialConfigOmittedIsRandom(t *testing.T) {
	var first map[string]float64
	obj := func(cfg map[string]float64) (float64, any) {
		if first == nil {
			first = cfg
		}
		return 0, nil
	}
	New(Space{{Name: "x", D: dist.Uniform(10, 20)}}, obj,
		Options{Seed: 2, MaxEvals: 3}).Run()
	if first["x"] < 10 || first["x"] > 20 {
		t.Fatalf("first random eval out of bounds: %g", first["x"])
	}
}
