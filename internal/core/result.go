package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/store"
)

// Result is the tuning process's view of a finished sampling region: the
// aggregation store (rule [LOADSAMPLE]: the round's commit arena, each
// group's stored commits one span of it), the built-in aggregates (rule
// [AGGR-T]), and per-sample params, scores, and statuses.
type Result struct {
	syms       *store.Symbols
	aggregated map[string]any // nil without a built-in aggregator
	groups     []group
	arena      []pkv       // all parameter snapshots, back to back
	commits    []commitVal // all stored commits, back to back
	minimize   bool
	degraded   bool
	timeouts   int
}

// N reports the number of sample slots in the region (including pruned and
// failed ones).
func (r *Result) N() int { return len(r.groups) }

// get returns sample i's stored value of the variable with symbol id.
func (r *Result) get(id uint32, i int) (any, bool) {
	s := r.groups[i].commits
	for _, c := range r.commits[s.off : s.off+s.n] {
		if c.id == id {
			return c.v, true
		}
	}
	return nil, false
}

// each calls fn with every stored value of x, in sample index order.
func (r *Result) each(x string, fn func(i int, v any)) {
	if id, ok := r.syms.Lookup(x); ok {
		for i := range r.groups {
			if v, ok := r.get(id, i); ok {
				fn(i, v)
			}
		}
	}
}

// Len reports how many samples committed variable x.
func (r *Result) Len(x string) (n int) {
	r.each(x, func(int, any) { n++ })
	return n
}

// Value loads the i-th sample outcome of x (the @loadS primitive). The
// boolean is false when sample i was pruned, failed, or never committed x.
func (r *Result) Value(x string, i int) (any, bool) {
	id, ok := r.syms.Lookup(x)
	if !ok || i < 0 || i >= len(r.groups) {
		return nil, false
	}
	return r.get(id, i)
}

// MustValue is Value for outcomes known to exist; it panics otherwise.
func (r *Result) MustValue(x string, i int) any {
	v, ok := r.Value(x, i)
	if !ok {
		panic("core: no sample outcome for " + x)
	}
	return v
}

// Values returns all committed outcomes of x ordered by sample index.
func (r *Result) Values(x string) []any {
	out := []any{}
	r.each(x, func(_ int, v any) { out = append(out, v) })
	return out
}

// Indices returns the sample indices that committed x, ascending.
func (r *Result) Indices(x string) []int {
	out := []int{}
	r.each(x, func(i int, _ any) { out = append(out, i) })
	return out
}

// Vars returns the names of all committed sample result variables, sorted.
func (r *Result) Vars() []string {
	out := []string{}
	for _, id := range r.varIDs() {
		out = append(out, r.syms.Name(id))
	}
	return out
}

// varIDs returns the symbol IDs of all committed variables, by name.
func (r *Result) varIDs() []uint32 {
	var ids []uint32
	for _, c := range r.commits {
		if !slices.Contains(ids, c.id) {
			ids = append(ids, c.id)
		}
	}
	slices.SortFunc(ids, func(a, b uint32) int { return strings.Compare(r.syms.Name(a), r.syms.Name(b)) })
	return ids
}

// Aggregated returns the built-in aggregate of x, or nil when x had no
// built-in aggregation strategy or no sample committed it. The dynamic type
// matches the committed values: float64 for scalars, []float64 for vectors,
// []any for DEDUP.
func (r *Result) Aggregated(x string) any { return r.aggregated[x] }

// Params returns the parameter configuration drawn by sample i, or nil if
// the sample never completed.
func (r *Result) Params(i int) map[string]float64 {
	g := &r.groups[i]
	if !g.haveParams {
		return nil
	}
	s := g.params
	out := make(map[string]float64, s.n)
	for _, kv := range r.arena[s.off : s.off+s.n] {
		out[r.syms.Name(kv.id)] = kv.v
	}
	return out
}

// Score returns sample i's score (averaged over cross-validation folds),
// or NaN when the sample was pruned, failed, or the region has no Score.
func (r *Result) Score(i int) float64 { return r.groups[i].score() }

// Pruned reports whether sample i was pruned by Check (or cut by the work
// budget before launching).
func (r *Result) Pruned(i int) bool { return r.groups[i].pruned }

// Err returns the contained failure of sample i, if any.
func (r *Result) Err(i int) error { return r.groups[i].err }

// allFailed is the error of a region whose every sampling process failed.
func (r *Result) allFailed(region string) error {
	errs := make([]error, len(r.groups))
	for i := range r.groups {
		errs[i] = r.groups[i].err
	}
	return fmt.Errorf("core: region %q: every sampling process failed: %w", region, errors.Join(errs...))
}

// Degraded reports whether the region completed with at least one timed-out
// or failed sample, i.e. the aggregate covers fewer samples than requested.
func (r *Result) Degraded() bool { return r.degraded }

// Timeouts reports how many samples ended in the timeout outcome.
func (r *Result) Timeouts() int { return r.timeouts }

// BestIndex returns the index of the best-scoring sample with respect to
// the region's Minimize flag, or -1 when no sample was scored.
func (r *Result) BestIndex() int {
	best, bs := -1, 0.0
	for i := range r.groups {
		s := r.groups[i].score()
		if math.IsNaN(s) {
			continue
		}
		if best == -1 || r.minimize && s < bs || !r.minimize && s > bs {
			best, bs = i, s
		}
	}
	return best
}

// BestScore returns the best sample score, or NaN when nothing was scored.
func (r *Result) BestScore() float64 {
	i := r.BestIndex()
	if i < 0 {
		return math.NaN()
	}
	return r.Score(i)
}
