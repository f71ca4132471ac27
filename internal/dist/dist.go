// Package dist provides the distributions from which tunable parameters are
// sampled. A distribution describes the domain of one tunable variable: its
// support, how to draw a fresh value, and how to perturb an existing value
// (used by MCMC sampling and by the hill-climbing / evolutionary techniques
// of the black-box baseline).
//
// All draws go through *rand.Rand instances that the callers seed
// deterministically, so every experiment in this repository is reproducible.
package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Dist is the domain of a single tunable parameter.
//
// Values are carried as float64 even for integer- and choice-valued
// parameters; IntRange and Choice round and clamp on the way out. This keeps
// the tuner runtime monomorphic while still supporting the parameter kinds
// used by the paper's 13 benchmarks.
type Dist interface {
	// Draw samples a fresh value from the distribution.
	Draw(r *rand.Rand) float64
	// Perturb proposes a new value near cur. scale in (0,1] controls the
	// proposal width relative to the support; implementations clamp the
	// result into the support.
	Perturb(r *rand.Rand, cur, scale float64) float64
	// Clamp projects v into the support.
	Clamp(v float64) float64
	// String describes the distribution for logs and error messages.
	String() string
}

// Uniform is a continuous uniform distribution on [Lo, Hi].
type uniform struct{ lo, hi float64 }

// Uniform returns a continuous uniform distribution on [lo, hi].
// It panics if hi < lo, which is always a programming error.
func Uniform(lo, hi float64) Dist {
	if hi < lo {
		panic(fmt.Sprintf("dist: Uniform bounds inverted [%g, %g]", lo, hi))
	}
	return uniform{lo, hi}
}

func (u uniform) Draw(r *rand.Rand) float64 { return u.lo + r.Float64()*(u.hi-u.lo) }

func (u uniform) Perturb(r *rand.Rand, cur, scale float64) float64 {
	w := (u.hi - u.lo) * scale
	return u.Clamp(cur + (r.Float64()*2-1)*w)
}

func (u uniform) Clamp(v float64) float64 { return math.Min(u.hi, math.Max(u.lo, v)) }
func (u uniform) String() string          { return fmt.Sprintf("Uniform[%g, %g]", u.lo, u.hi) }

// logUniform draws values whose logarithm is uniform on [log lo, log hi].
// Useful for scale parameters such as SVM regularization constants.
type logUniform struct{ lo, hi float64 }

// LogUniform returns a log-uniform distribution on [lo, hi], lo > 0.
func LogUniform(lo, hi float64) Dist {
	if lo <= 0 || hi < lo {
		panic(fmt.Sprintf("dist: LogUniform requires 0 < lo <= hi, got [%g, %g]", lo, hi))
	}
	return logUniform{lo, hi}
}

func (u logUniform) Draw(r *rand.Rand) float64 {
	llo, lhi := math.Log(u.lo), math.Log(u.hi)
	return math.Exp(llo + r.Float64()*(lhi-llo))
}

func (u logUniform) Perturb(r *rand.Rand, cur, scale float64) float64 {
	if cur <= 0 {
		cur = u.lo
	}
	llo, lhi := math.Log(u.lo), math.Log(u.hi)
	w := (lhi - llo) * scale
	return u.Clamp(math.Exp(math.Log(cur) + (r.Float64()*2-1)*w))
}

func (u logUniform) Clamp(v float64) float64 { return math.Min(u.hi, math.Max(u.lo, v)) }
func (u logUniform) String() string          { return fmt.Sprintf("LogUniform[%g, %g]", u.lo, u.hi) }

// intRange draws integers in [lo, hi] (inclusive), represented as float64.
type intRange struct{ lo, hi int }

// IntRange returns a uniform distribution over the integers lo..hi inclusive.
func IntRange(lo, hi int) Dist {
	if hi < lo {
		panic(fmt.Sprintf("dist: IntRange bounds inverted [%d, %d]", lo, hi))
	}
	return intRange{lo, hi}
}

func (u intRange) Draw(r *rand.Rand) float64 {
	return float64(u.lo + r.Intn(u.hi-u.lo+1))
}

func (u intRange) Perturb(r *rand.Rand, cur, scale float64) float64 {
	span := float64(u.hi-u.lo) * scale
	step := int(math.Max(1, math.Round(span)))
	d := r.Intn(2*step+1) - step
	return u.Clamp(math.Round(cur) + float64(d))
}

func (u intRange) Clamp(v float64) float64 {
	return math.Min(float64(u.hi), math.Max(float64(u.lo), math.Round(v)))
}
func (u intRange) String() string { return fmt.Sprintf("IntRange[%d, %d]", u.lo, u.hi) }

// choice draws an index into a fixed set of options.
type choice struct{ n int }

// Choice returns a uniform distribution over the option indices 0..n-1.
// The caller keeps the option values; the tuner only sees indices.
func Choice(n int) Dist {
	if n <= 0 {
		panic(fmt.Sprintf("dist: Choice requires n > 0, got %d", n))
	}
	return choice{n}
}

func (c choice) Draw(r *rand.Rand) float64 { return float64(r.Intn(c.n)) }

func (c choice) Perturb(r *rand.Rand, cur, scale float64) float64 {
	// A categorical parameter has no neighborhood structure: perturbing
	// re-draws with probability scale, otherwise keeps the current value.
	if r.Float64() < scale {
		return c.Draw(r)
	}
	return c.Clamp(cur)
}

func (c choice) Clamp(v float64) float64 {
	return math.Min(float64(c.n-1), math.Max(0, math.Round(v)))
}
func (c choice) String() string { return fmt.Sprintf("Choice[%d]", c.n) }
