// Package strategy implements WBTuner's built-in sampling strategies
// (Sec. IV-C): RAND draws every sample independently from the variable's
// distribution, and MCMC runs a Metropolis-style chain seeded from the best
// configurations of previous sampling rounds (the "feedback driven" sampling
// driver of the execution model, Sec. II-C).
//
// A Strategy is instantiated once per sampling process: the tuning process
// calls Sampler for each spawned child, mirroring rule [SAMPLING] where
// cbStrgy initializes the strategy in each child after the fork.
package strategy

import (
	"math"
	"math/rand"
	"sync"

	"repro/internal/dist"
)

// Feedback is one scored configuration from a previous sampling round. The
// runtime passes feedback sorted best-first (the direction depends on the
// region's Minimize flag), so strategies can treat fb[0] as the incumbent.
type Feedback struct {
	Params map[string]float64
	Score  float64
}

// Strategy produces per-sampling-process samplers.
type Strategy interface {
	// Name identifies the strategy in logs and experiment tables.
	Name() string
	// Sampler returns the sampler for sampling process idx of n in a region.
	// seed is the region's deterministic seed; fb is best-first feedback
	// from earlier rounds of the same region (empty on the first round).
	Sampler(seed int64, idx, n int, fb []Feedback) Sampler
}

// Sampler draws values for the tunable variables encountered by one
// sampling process (rule [SAMPLE]).
type Sampler interface {
	Draw(name string, d dist.Dist) float64
}

// Recycler is implemented by samplers whose resources can be returned to an
// internal pool. The runtime calls Recycle once it is certain nothing will
// draw from the sampler again; the sampler must not be used afterwards.
type Recycler interface {
	Recycle()
}

// rngPool recycles the per-sampler generators. A pooled generator is fully
// re-seeded before reuse (dist.Reseed), so draws are bit-identical to a
// freshly constructed one — pooling only removes the two allocations per
// sampling process that generator construction costs.
var rngPool = sync.Pool{
	New: func() any { return dist.NewRand(0, 0) },
}

func pooledRand(seed int64, idx int) *rand.Rand {
	r := rngPool.Get().(*rand.Rand)
	dist.Reseed(r, seed, int64(idx))
	return r
}

// randStrategy implements independent random sampling.
type randStrategy struct{}

// Rand returns the RAND strategy: every variable of every sampling process
// is drawn independently from its distribution.
func Rand() Strategy { return randStrategy{} }

func (randStrategy) Name() string { return "RAND" }

func (randStrategy) Sampler(seed int64, idx, n int, _ []Feedback) Sampler {
	return randSampler{r: pooledRand(seed, idx)}
}

type randSampler struct{ r *rand.Rand }

func (s randSampler) Draw(_ string, d dist.Dist) float64 { return d.Draw(s.r) }

func (s randSampler) Recycle() { rngPool.Put(s.r) }

// MCMCOptions configure the MCMC strategy.
type MCMCOptions struct {
	// Scale is the proposal width relative to each variable's support.
	// Zero means the default of 0.15.
	Scale float64
	// ExploreFrac is the fraction of sampling processes that ignore
	// feedback and draw fresh values, keeping the chain from collapsing
	// onto a local optimum. Zero means the default of 0.25.
	ExploreFrac float64
	// Elite is how many of the best feedback entries chains restart from.
	// Zero means the default of 4.
	Elite int
}

func (o MCMCOptions) withDefaults() MCMCOptions {
	if o.Scale == 0 {
		o.Scale = 0.15
	}
	if o.ExploreFrac == 0 {
		o.ExploreFrac = 0.25
	}
	if o.Elite == 0 {
		o.Elite = 4
	}
	return o
}

type mcmcStrategy struct{ opts MCMCOptions }

// MCMC returns the Markov-chain Monte Carlo strategy. On the first round
// (no feedback) it behaves like RAND; on later rounds each sampling process
// restarts a chain from one of the elite previous configurations and
// proposes a perturbation of it, so sampling concentrates around regions of
// the parameter space that scored well — the feedback-driven sampling the
// paper uses for K-means and DBScan.
func MCMC(opts MCMCOptions) Strategy { return mcmcStrategy{opts: opts.withDefaults()} }

func (mcmcStrategy) Name() string { return "MCMC" }

func (m mcmcStrategy) Sampler(seed int64, idx, n int, fb []Feedback) Sampler {
	r := pooledRand(seed, idx)
	explore := len(fb) == 0 || float64(idx) < float64(n)*m.opts.ExploreFrac
	if explore {
		return randSampler{r: r}
	}
	elite := m.opts.Elite
	if elite > len(fb) {
		elite = len(fb)
	}
	// Bias chain restarts toward better incumbents: geometric weighting of
	// the elite set.
	pick := 0
	for pick < elite-1 && r.Float64() < 0.5 {
		pick++
	}
	s := mcmcPool.Get().(*mcmcSampler)
	s.r, s.start, s.scale = r, fb[pick].Params, m.opts.Scale
	return s
}

type mcmcSampler struct {
	r     *rand.Rand
	start map[string]float64
	scale float64
}

// mcmcPool recycles chain samplers; Recycle returns one and its generator.
var mcmcPool = sync.Pool{New: func() any { return new(mcmcSampler) }}

func (s *mcmcSampler) Recycle() {
	rngPool.Put(s.r)
	*s = mcmcSampler{}
	mcmcPool.Put(s)
}

func (s *mcmcSampler) Draw(name string, d dist.Dist) float64 {
	cur, ok := s.start[name]
	if !ok || math.IsNaN(cur) {
		// The incumbent never drew this variable (e.g. a new region branch):
		// fall back to a fresh draw.
		return d.Draw(s.r)
	}
	return d.Perturb(s.r, d.Clamp(cur), s.scale)
}

// SortBestFirst sorts feedback in place so that fb[0] is the best entry:
// smallest score when minimize is true, largest otherwise. NaN scores sink
// to the end and ties keep their order. This is the order the runtime hands
// feedback to a Strategy in; the runtime keeps it incrementally and calls
// this only on the at most 64 entries (core's maxFeedback) it retains per
// process and region name, when a name is reused in the other direction.
func SortBestFirst(fb []Feedback, minimize bool) {
	less := func(a, b float64) bool {
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
	// Insertion sort: stable, quadratic, and free of sort.Slice closures
	// allocating per call — for the runtime's bounded sets, not for whole
	// histories.
	for i := 1; i < len(fb); i++ {
		for j := i; j > 0 && less(fb[j].Score, fb[j-1].Score); j-- {
			fb[j], fb[j-1] = fb[j-1], fb[j]
		}
	}
}
