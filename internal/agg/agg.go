// Package agg implements WBTuner's built-in aggregation strategies
// (Sec. IV-C): MIN, MAX, majority vote (MV), averaging (AVG) and duplicate
// elimination (DEDUP). Every aggregator is incremental (Sec. IV-B): it
// consumes each committed sample result as the runtime folds it in at
// commit, so with incremental aggregation on the runtime does not have to
// retain every sample until the end of the region — the optimization
// Fig. 10 measures.
//
// Aggregators accept either scalar float64 values or []float64 vectors
// (e.g. images); the element type is fixed by the first Add.
package agg

import (
	"fmt"
	"sort"
	"strconv"
)

// Kind names a built-in aggregation strategy.
type Kind string

// Built-in strategies from the paper.
const (
	Min    Kind = "MIN"
	Max    Kind = "MAX"
	Avg    Kind = "AVG"
	MV     Kind = "MV"
	Dedup  Kind = "DEDUP"
	Custom Kind = "CUSTOM"
)

// Incremental consumes committed sample values one at a time and produces
// the aggregate on demand. Implementations are not safe for concurrent use;
// the runtime serializes Adds through the commit path.
type Incremental interface {
	// Add consumes one committed value. It panics on a type mismatch with
	// earlier values, which is always a tuning-program bug.
	Add(v any)
	// Result returns the aggregate of everything added so far. It returns
	// nil when nothing was added.
	Result() any
	// Count reports how many values were added.
	Count() int
	// Retained reports how many values the aggregator is currently holding
	// on to. Constant-space aggregators report O(1); this feeds the memory
	// metric of the Fig. 10 experiment.
	Retained() int
}

// New returns an incremental aggregator for a built-in kind.
// Custom has no built-in aggregator; requesting it is an error.
func New(k Kind) (Incremental, error) {
	switch k {
	case Min:
		return &extremum{less: func(a, b float64) bool { return a < b }}, nil
	case Max:
		return &extremum{less: func(a, b float64) bool { return a > b }}, nil
	case Avg:
		return &average{}, nil
	case MV:
		return &majority{}, nil
	case Dedup:
		return &dedup{seen: map[string]bool{}}, nil
	default:
		return nil, fmt.Errorf("agg: no built-in aggregator for kind %q", k)
	}
}

// asVector normalizes v to a []float64, reporting whether it was a vector.
func asVector(v any) ([]float64, bool) {
	vec, ok := v.([]float64)
	return vec, ok
}

func asScalar(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int:
		return float64(x), true
	}
	return 0, false
}

// extremum tracks min or max. For vectors it keeps the vector whose sum is
// extremal — a deterministic total order that lets MIN/MAX select one whole
// sample result (the paper's MIN/MAX select a sample run, not elementwise).
type extremum struct {
	less   func(a, b float64) bool
	n      int
	scalar bool
	vector bool
	bestS  float64
	bestV  []float64
	bestK  float64
}

func (e *extremum) Add(v any) {
	if s, ok := asScalar(v); ok {
		if e.vector {
			panic("agg: mixed scalar and vector values")
		}
		e.scalar = true
		if e.n == 0 || e.less(s, e.bestS) {
			e.bestS = s
		}
		e.n++
		return
	}
	vec, ok := asVector(v)
	if !ok {
		panic(fmt.Sprintf("agg: MIN/MAX aggregator got unsupported type %T", v))
	}
	if e.scalar {
		panic("agg: mixed scalar and vector values")
	}
	e.vector = true
	k := 0.0
	for _, x := range vec {
		k += x
	}
	if e.n == 0 || e.less(k, e.bestK) {
		e.bestK = k
		e.bestV = vec
	}
	e.n++
}

func (e *extremum) Result() any {
	if e.n == 0 {
		return nil
	}
	if e.vector {
		return e.bestV
	}
	return e.bestS
}

func (e *extremum) Count() int    { return e.n }
func (e *extremum) Retained() int { return min(e.n, 1) }

// average computes the mean, scalar or elementwise for vectors.
type average struct {
	n      int
	scalar bool
	vector bool
	sumS   float64
	sumV   []float64
}

func (a *average) Add(v any) {
	if s, ok := asScalar(v); ok {
		if a.vector {
			panic("agg: mixed scalar and vector values")
		}
		a.scalar = true
		a.sumS += s
		a.n++
		return
	}
	vec, ok := asVector(v)
	if !ok {
		panic(fmt.Sprintf("agg: AVG aggregator got unsupported type %T", v))
	}
	if a.scalar {
		panic("agg: mixed scalar and vector values")
	}
	if a.vector && len(vec) != len(a.sumV) {
		panic("agg: AVG vector length mismatch")
	}
	if !a.vector {
		a.vector = true
		a.sumV = make([]float64, len(vec))
	}
	for i, x := range vec {
		a.sumV[i] += x
	}
	a.n++
}

func (a *average) Result() any {
	if a.n == 0 {
		return nil
	}
	if a.vector {
		out := make([]float64, len(a.sumV))
		for i, s := range a.sumV {
			out[i] = s / float64(a.n)
		}
		return out
	}
	return a.sumS / float64(a.n)
}

func (a *average) Count() int    { return a.n }
func (a *average) Retained() int { return min(a.n, 1) }

// majority implements majority voting. For vectors (the common case — a
// pixel is set iff it is set in the majority of sample runs, as in the
// Canny example) it accumulates elementwise sums and thresholds at half the
// vote count. For scalars it returns the plurality value.
type majority struct {
	n      int
	scalar bool
	vector bool
	counts map[float64]int
	sums   []float64
}

func (m *majority) Add(v any) {
	if s, ok := asScalar(v); ok {
		if m.vector {
			panic("agg: mixed scalar and vector values")
		}
		m.scalar = true
		if m.counts == nil {
			m.counts = map[float64]int{}
		}
		m.counts[s]++
		m.n++
		return
	}
	vec, ok := asVector(v)
	if !ok {
		panic(fmt.Sprintf("agg: MV aggregator got unsupported type %T", v))
	}
	if m.scalar {
		panic("agg: mixed scalar and vector values")
	}
	if m.vector && len(vec) != len(m.sums) {
		panic("agg: MV vector length mismatch")
	}
	if !m.vector {
		m.vector = true
		m.sums = make([]float64, len(vec))
	}
	for i, x := range vec {
		if x >= 0.5 {
			m.sums[i]++
		}
	}
	m.n++
}

func (m *majority) Result() any {
	if m.n == 0 {
		return nil
	}
	if m.vector {
		out := make([]float64, len(m.sums))
		half := float64(m.n) / 2
		for i, c := range m.sums {
			if c > half {
				out[i] = 1
			}
		}
		return out
	}
	// Plurality scalar with deterministic tie-break (smallest value).
	vals := make([]float64, 0, len(m.counts))
	for v := range m.counts {
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	best, bestN := vals[0], m.counts[vals[0]]
	for _, v := range vals[1:] {
		if m.counts[v] > bestN {
			best, bestN = v, m.counts[v]
		}
	}
	return best
}

func (m *majority) Count() int { return m.n }
func (m *majority) Retained() int {
	if m.scalar {
		return len(m.counts)
	}
	return min(m.n, 1)
}

// dedup keeps the distinct values seen, in arrival order. Distinctness uses
// the value's default formatting, which is exact for scalars and exact
// enough for vectors committed from identical computations (the Phylip use
// case: prune sample runs that produced the same matrix).
type dedup struct {
	n    int
	seen map[string]bool
	out  []any
}

// KeyOf is the canonical key Dedup uses for a value. Exposed so tests and
// custom aggregators can predict dedup behaviour. The common committed types
// are formatted directly — every majority/dedup Add pays this cost, and
// fmt's reflection path is ~10x the strconv one — with Sprintf kept as the
// fallback so arbitrary values keep their historical keys.
func KeyOf(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		var buf [24]byte
		return string(strconv.AppendFloat(buf[:0], x, 'g', -1, 64))
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case bool:
		return strconv.FormatBool(x)
	case []float64:
		// Match fmt's "[1 2.5 3]" rendering without reflection, in one
		// buffer instead of one FormatFloat allocation per element.
		buf := make([]byte, 0, 2+12*len(x))
		buf = append(buf, '[')
		for i, f := range x {
			if i > 0 {
				buf = append(buf, ' ')
			}
			buf = strconv.AppendFloat(buf, f, 'g', -1, 64)
		}
		buf = append(buf, ']')
		return string(buf)
	}
	return fmt.Sprintf("%v", v)
}

func (d *dedup) Add(v any) {
	d.n++
	k := KeyOf(v)
	if !d.seen[k] {
		d.seen[k] = true
		d.out = append(d.out, v)
	}
}

// Result returns the distinct values as []any, in first-arrival order.
func (d *dedup) Result() any {
	if len(d.out) == 0 {
		return nil
	}
	return append([]any(nil), d.out...)
}

func (d *dedup) Count() int    { return d.n }
func (d *dedup) Retained() int { return len(d.out) }
