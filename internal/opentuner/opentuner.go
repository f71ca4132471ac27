// Package opentuner is the black-box baseline the paper compares against:
// a reimplementation of OpenTuner's architecture (Ansel et al., PACT 2014)
// sized for these experiments. It treats the program under tuning as an
// opaque objective function — one full execution per sampled configuration —
// and searches the joint parameter space with an ensemble of techniques
// (random, hill climbing, simulated annealing / MCMC, differential
// evolution, genetic crossover) coordinated by OpenTuner's default
// multi-armed bandit meta-technique with sliding-window AUC credit
// assignment.
//
// The contrast with the white-box engine in internal/core is the point of
// the reproduction: the baseline cannot reuse a loaded dataset or a
// completed pipeline stage across samples, cannot prune a sample before it
// finishes, and must tune all stages' parameters jointly.
package opentuner

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dist"
)

// Param is one tunable parameter of the search space.
type Param struct {
	Name string
	D    dist.Dist
}

// Space is the joint search space: the cross product of all parameters.
// Black-box tuning must sample from this whole space at once (the m^n
// configurations of Fig. 2).
type Space []Param

// Eval records one full-program evaluation.
type Eval struct {
	Config   map[string]float64
	Score    float64
	Artifact any
}

// Objective runs one full execution of the program under the given
// configuration and returns its score plus an optional artifact (e.g. the
// output image, so the driver can aggregate sample outputs the way the
// paper extends OpenTuner with majority voting).
type Objective func(cfg map[string]float64) (score float64, artifact any)

// Options configure a tuning run.
type Options struct {
	// Seed makes the run reproducible.
	Seed int64
	// Minimize declares the score direction (default: higher is better).
	Minimize bool
	// MaxEvals caps the number of full executions. Zero means no cap;
	// then Stop must be set.
	MaxEvals int
	// Stop, if set, is polled before each evaluation; tuning ends when it
	// returns true (the work-unit budget hook).
	Stop func() bool
	// Checkpoint, if set, is called after every evaluation with the
	// evaluation count and the incumbent best; the experiment harness uses
	// it to record score-vs-budget curves.
	Checkpoint func(evals int, best Eval)
	// InitialConfig, if set, is evaluated first — tuners conventionally
	// seed the search with the program's shipped defaults. Missing
	// parameters are drawn randomly.
	InitialConfig map[string]float64
}

// Technique proposes configurations. Implementations may inspect the
// evaluation history and the incumbent best.
type Technique interface {
	Name() string
	Propose(r *rand.Rand, space Space, history []Eval, best *Eval, minimize bool) map[string]float64
}

// Tuner is one black-box tuning session.
type Tuner struct {
	space   Space
	obj     Objective
	opts    Options
	r       *rand.Rand
	history []Eval
	best    *Eval
	bandit  *bandit
}

// New returns a Tuner over the given space and objective.
func New(space Space, obj Objective, opts Options) *Tuner {
	if len(space) == 0 {
		panic("opentuner: empty search space")
	}
	if obj == nil {
		panic("opentuner: nil objective")
	}
	if opts.MaxEvals <= 0 && opts.Stop == nil {
		panic("opentuner: need MaxEvals or Stop")
	}
	return &Tuner{
		space:  space,
		obj:    obj,
		opts:   opts,
		r:      dist.NewRand(opts.Seed, 0),
		bandit: newBandit(DefaultTechniques(), dist.NewRand(opts.Seed, 1)),
	}
}

// DefaultTechniques returns the standard ensemble, mirroring OpenTuner's
// default meta-technique population.
func DefaultTechniques() []Technique {
	return []Technique{
		Random{},
		HillClimb{Scale: 0.1},
		Anneal{Scale: 0.25, Temp: 0.5},
		DifferentialEvolution{F: 0.8, CR: 0.9},
		Genetic{MutRate: 0.15, Scale: 0.2},
	}
}

// Run tunes until MaxEvals or Stop and returns the best evaluation found.
// It panics if no evaluation ran at all.
func (t *Tuner) Run() Eval {
	for {
		if t.opts.MaxEvals > 0 && len(t.history) >= t.opts.MaxEvals {
			break
		}
		if t.opts.Stop != nil && t.opts.Stop() {
			break
		}
		var cfg map[string]float64
		var tech Technique
		if len(t.history) == 0 && t.opts.InitialConfig != nil {
			tech = Random{} // credit the seeding eval to the random arm
			cfg = drawAll(t.r, t.space)
			for k, v := range t.opts.InitialConfig {
				cfg[k] = v
			}
		} else {
			tech = t.bandit.pick()
			cfg = tech.Propose(t.r, t.space, t.history, t.best, t.opts.Minimize)
		}
		score, artifact := t.obj(cfg)
		ev := Eval{Config: cfg, Score: score, Artifact: artifact}
		t.history = append(t.history, ev)
		isBest := t.best == nil || better(score, t.best.Score, t.opts.Minimize)
		if isBest {
			e := ev
			t.best = &e
		}
		t.bandit.reward(tech, isBest)
		if t.opts.Checkpoint != nil {
			t.opts.Checkpoint(len(t.history), *t.best)
		}
	}
	if t.best == nil {
		panic("opentuner: no evaluations ran (budget exhausted before start?)")
	}
	return *t.best
}

// Best returns the incumbent best evaluation (zero Eval before Run).
func (t *Tuner) Best() Eval {
	if t.best == nil {
		return Eval{}
	}
	return *t.best
}

// History returns all evaluations in order.
func (t *Tuner) History() []Eval { return t.history }

// Evals reports how many full executions ran.
func (t *Tuner) Evals() int { return len(t.history) }

func better(a, b float64, minimize bool) bool {
	if math.IsNaN(a) {
		return false
	}
	if math.IsNaN(b) {
		return true
	}
	if minimize {
		return a < b
	}
	return a > b
}

// drawAll samples a full random configuration.
func drawAll(r *rand.Rand, space Space) map[string]float64 {
	cfg := make(map[string]float64, len(space))
	for _, p := range space {
		cfg[p.Name] = p.D.Draw(r)
	}
	return cfg
}

// Random proposes uniform random configurations.
type Random struct{}

// Name implements Technique.
func (Random) Name() string { return "random" }

// Propose implements Technique.
func (Random) Propose(r *rand.Rand, space Space, _ []Eval, _ *Eval, _ bool) map[string]float64 {
	return drawAll(r, space)
}

// HillClimb perturbs the incumbent best configuration.
type HillClimb struct{ Scale float64 }

// Name implements Technique.
func (HillClimb) Name() string { return "hillclimb" }

// Propose implements Technique.
func (h HillClimb) Propose(r *rand.Rand, space Space, _ []Eval, best *Eval, _ bool) map[string]float64 {
	if best == nil {
		return drawAll(r, space)
	}
	cfg := make(map[string]float64, len(space))
	for _, p := range space {
		cfg[p.Name] = p.D.Perturb(r, best.Config[p.Name], h.Scale)
	}
	return cfg
}

// Anneal is a simulated-annealing / MCMC walker: it perturbs the most
// recent evaluation (accepted or not), with a wider proposal than
// HillClimb, escaping local optima the way OpenTuner's PSO/annealing
// components do.
type Anneal struct {
	Scale float64
	Temp  float64
}

// Name implements Technique.
func (Anneal) Name() string { return "anneal" }

// Propose implements Technique.
func (a Anneal) Propose(r *rand.Rand, space Space, history []Eval, best *Eval, minimize bool) map[string]float64 {
	if len(history) == 0 {
		return drawAll(r, space)
	}
	// Walk from the last point, or restart from best with probability Temp.
	base := history[len(history)-1].Config
	if best != nil && r.Float64() < a.Temp {
		base = best.Config
	}
	cfg := make(map[string]float64, len(space))
	for _, p := range space {
		cfg[p.Name] = p.D.Perturb(r, base[p.Name], a.Scale)
	}
	return cfg
}

// DifferentialEvolution proposes best + F*(a-b) using two random history
// points, with crossover rate CR against the incumbent.
type DifferentialEvolution struct {
	F  float64
	CR float64
}

// Name implements Technique.
func (DifferentialEvolution) Name() string { return "de" }

// Propose implements Technique.
func (d DifferentialEvolution) Propose(r *rand.Rand, space Space, history []Eval, best *Eval, _ bool) map[string]float64 {
	if len(history) < 3 || best == nil {
		return drawAll(r, space)
	}
	a := history[r.Intn(len(history))].Config
	b := history[r.Intn(len(history))].Config
	cfg := make(map[string]float64, len(space))
	for _, p := range space {
		if r.Float64() < d.CR {
			cfg[p.Name] = p.D.Clamp(best.Config[p.Name] + d.F*(a[p.Name]-b[p.Name]))
		} else {
			cfg[p.Name] = best.Config[p.Name]
		}
	}
	return cfg
}

// Genetic crosses two parents biased toward good history entries and
// mutates.
type Genetic struct {
	MutRate float64
	Scale   float64
}

// Name implements Technique.
func (Genetic) Name() string { return "ga" }

// Propose implements Technique.
func (g Genetic) Propose(r *rand.Rand, space Space, history []Eval, best *Eval, minimize bool) map[string]float64 {
	if len(history) < 2 {
		return drawAll(r, space)
	}
	pick := func() map[string]float64 {
		// Tournament of 2.
		a := history[r.Intn(len(history))]
		b := history[r.Intn(len(history))]
		if better(a.Score, b.Score, minimize) {
			return a.Config
		}
		return b.Config
	}
	p1, p2 := pick(), pick()
	cfg := make(map[string]float64, len(space))
	for _, p := range space {
		v := p1[p.Name]
		if r.Intn(2) == 1 {
			v = p2[p.Name]
		}
		if r.Float64() < g.MutRate {
			v = p.D.Perturb(r, v, g.Scale)
		}
		cfg[p.Name] = p.D.Clamp(v)
	}
	return cfg
}

// bandit is the multi-armed bandit meta-technique: sliding-window AUC
// credit plus an exploration bonus (OpenTuner's default).
type bandit struct {
	techs  []Technique
	r      *rand.Rand
	window []banditUse // sliding window of recent uses
	uses   map[string]int
	total  int
}

type banditUse struct {
	name    string
	newBest bool
}

const banditWindow = 50

// banditC is the exploration constant of the UCB term.
const banditC = 0.3

func newBandit(techs []Technique, r *rand.Rand) *bandit {
	if len(techs) == 0 {
		panic("opentuner: no techniques")
	}
	return &bandit{techs: techs, r: r, uses: make(map[string]int)}
}

func (b *bandit) pick() Technique {
	// Use each technique once before trusting the statistics.
	for _, t := range b.techs {
		if b.uses[t.Name()] == 0 {
			return t
		}
	}
	bestScore := math.Inf(-1)
	var best Technique
	for _, t := range b.techs {
		score := b.credit(t.Name()) +
			banditC*math.Sqrt(2*math.Log(float64(b.total+1))/float64(b.uses[t.Name()]))
		// Deterministic small jitter breaks ties without biasing.
		score += b.r.Float64() * 1e-9
		if score > bestScore {
			bestScore = score
			best = t
		}
	}
	return best
}

// credit is the AUC credit: within the sliding window, uses of the
// technique that produced a new global best earn weight proportional to
// their recency.
func (b *bandit) credit(name string) float64 {
	num, den := 0.0, 0.0
	for i, u := range b.window {
		w := float64(i + 1) // more recent -> higher weight
		if u.name == name {
			den += w
			if u.newBest {
				num += w
			}
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func (b *bandit) reward(t Technique, newBest bool) {
	b.window = append(b.window, banditUse{name: t.Name(), newBest: newBest})
	if len(b.window) > banditWindow {
		b.window = b.window[1:]
	}
	b.uses[t.Name()]++
	b.total++
}

// String summarizes bandit state for logs.
func (b *bandit) String() string {
	return fmt.Sprintf("bandit{total: %d}", b.total)
}
