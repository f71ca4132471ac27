package stats

import (
	"math"
	"runtime"
)

// PowPlan is math.Pow(·, y) for one fixed exponent y. NewPowPlan runs
// Pow's tests on y and splits y into integer and fraction once; Pow then
// runs Pow's own Exp(yf·Log x) and squaring loop, so every result has
// math.Pow's bits. Exponents Pow special-cases, and bases other than a
// finite positive x ≠ 1, go to math.Pow itself.
type PowPlan struct {
	y      float64
	direct bool    // y takes math.Pow's general path for finite x > 0
	yi     int64   // integer part of |y|, after moving a fraction above 0.5 into it
	yf     float64 // the fraction left, in (-0.5, 0.5]
}

// NewPowPlan returns the plan for exponent y.
func NewPowPlan(y float64) PowPlan {
	p := PowPlan{y: y}
	// math.Pow has an assembly implementation only on s390x.
	if runtime.GOARCH == "s390x" || y == 0 || y == 1 || y == 0.5 || y == -0.5 || math.IsNaN(y) || math.IsInf(y, 0) {
		return p
	}
	yi, yf := math.Modf(math.Abs(y))
	if yi >= 1<<63 {
		return p
	}
	if yf > 0.5 {
		yf--
		yi++
	}
	p.direct, p.yi, p.yf = true, int64(yi), yf
	return p
}

// Pow returns math.Pow(x, y).
func (p *PowPlan) Pow(x float64) float64 {
	if !p.direct || !(x > 0) || x == 1 || x > math.MaxFloat64 {
		return math.Pow(x, p.y)
	}
	// What follows is math.Pow's general path for finite x > 0, x ≠ 1.
	// ans = a1 * 2**ae (= 1 for now).
	a1 := 1.0
	ae := 0
	if p.yf != 0 {
		a1 = math.Exp(p.yf * math.Log(x))
	}
	// ans *= x**yi by successive squarings of x according to the bits of
	// yi, accumulating powers of two into ae.
	x1, xe := math.Frexp(x)
	for i := p.yi; i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			// The exponent would overflow the shift below; ae is a lower
			// bound past float64's range, so Ldexp under- or overflows.
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	if p.y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	return math.Ldexp(a1, ae)
}
