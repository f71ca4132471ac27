// Package obs is a dependency-free metrics layer for the tuning runtime:
// a registry of counters, gauges and fixed-bucket histograms with atomic
// hot-path updates, exposable as Prometheus text format (WritePrometheus)
// or a JSON snapshot (WriteJSON).
//
// Instruments are created through a Registry and identified by a metric
// name plus an ordered list of label key/value pairs. Creation takes the
// registry lock; updates on the returned instrument are lock-free, so the
// sampling hot path pays one atomic add per event. Callers are expected to
// look an instrument up once (per region, per scheduler, …) and hold the
// pointer.
//
// Snapshots read each value atomically but are not globally consistent: a
// histogram's count may be one ahead of its sum while an Observe is in
// flight. For run-scoped metrics read after the run this is invisible.
package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a metric family.
type Kind int

// Metric family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind in Prometheus TYPE terms.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing count. The zero value is usable but
// detached; obtain counters from a Registry so they are exposed.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n, which must not be negative.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: negative counter add")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down (occupancy, sizes).
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (may be negative) with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Bucket upper bounds are
// inclusive (Prometheus "le" semantics); an implicit +Inf bucket catches
// everything beyond the last bound. All updates are atomic.
type Histogram struct {
	upper   []float64       // sorted upper bounds, exclusive of +Inf
	counts  []atomic.Uint64 // len(upper)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// ObserveN records n observations of v at once.
func (h *Histogram) ObserveN(v float64, n uint64) {
	h.add(sort.SearchFloat64s(h.upper, v), n, v*float64(n)) // first bound >= v: inclusive le
}

// add puts n observations into bucket i and sum into the running sum.
func (h *Histogram) add(i int, n uint64, sum float64) {
	h.counts[i].Add(n)
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + sum)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Tally batches observations of one Histogram for an owner that serialises
// them itself, and Flush folds them in: buckets and count as if observed one
// by one, the sum added per batch (so it may round differently).
type Tally struct {
	h      *Histogram
	counts []uint64
	sum    float64
}

// Tally returns an empty batch for h.
func (h *Histogram) Tally() Tally { return Tally{h: h, counts: make([]uint64, len(h.counts))} }

// Observe records one value in the batch.
func (t *Tally) Observe(v float64) {
	t.counts[sort.SearchFloat64s(t.h.upper, v)]++
	t.sum += v
}

// Flush folds the batch into its histogram and empties it.
func (t *Tally) Flush() {
	for i, c := range t.counts {
		if c > 0 {
			t.h.add(i, c, t.sum)
			t.counts[i], t.sum = 0, 0
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution by linear interpolation inside the bucket containing the
// target rank, the standard fixed-bucket estimate. Observations beyond the
// last finite bound clamp to that bound, and an empty histogram reports 0.
// Accuracy is bounded by bucket width — pick fine buckets (see
// FineDurationBuckets) for latency gates.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n >= target && n > 0 {
			if i >= len(h.upper) {
				return h.upper[len(h.upper)-1] // +Inf bucket: clamp
			}
			lo := 0.0
			if i > 0 {
				lo = h.upper[i-1]
			}
			return lo + (h.upper[i]-lo)*(target-cum)/n
		}
		cum += n
	}
	return h.upper[len(h.upper)-1]
}

// Buckets returns the upper bounds (without +Inf) and the cumulative count
// per bound, plus the +Inf cumulative count as the final element.
func (h *Histogram) Buckets() (upper []float64, cumulative []uint64) {
	upper = h.upper
	cumulative = make([]uint64, len(h.counts))
	var c uint64
	for i := range h.counts {
		c += h.counts[i].Load()
		cumulative[i] = c
	}
	return upper, cumulative
}

// ExpBuckets returns count exponential bucket upper bounds starting at
// start and growing by factor: start, start*factor, … Start must be
// positive and factor > 1.
func ExpBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, count >= 1")
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets are the default latency buckets: 1µs to ~4.2s in powers
// of four, a spread that covers sample bodies and whole tuning runs.
func DurationBuckets() []float64 { return ExpBuckets(1e-6, 4, 12) }

// FineDurationBuckets are latency buckets at microsecond resolution: 1µs to
// ~2.1s in powers of two. Use them where a tail quantile feeds a gate (the
// remote dispatch p99) and power-of-four widths would dominate the estimate.
func FineDurationBuckets() []float64 { return ExpBuckets(1e-6, 2, 22) }

// ByteBuckets are payload-size buckets: 64 B to 256 MiB in powers of four,
// wide enough for checkpoint and snapshot payloads.
func ByteBuckets() []float64 { return ExpBuckets(64, 4, 12) }

// family is one named metric with its labeled series.
type family struct {
	name    string
	help    string
	kind    Kind
	buckets []float64 // histograms only

	series map[string]*series // by series key
}

// series is one labeled instrument of a family.
type series struct {
	fam    *family
	key    string
	labels []string // flattened k,v pairs
	inst   any
	seq    int // creation order across the registry
}

// Registry holds metric families and produces expositions. Create with
// NewRegistry; the zero value is not usable.
type Registry struct {
	mu    sync.Mutex
	names []string
	fams  map[string]*family
	pairs map[[2]string]map[*series]struct{} // label pair -> the series carrying it
	seq   int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family), pairs: make(map[[2]string]map[*series]struct{})}
}

// SetHelp attaches Prometheus HELP text to a metric name. It may be called
// before or after the first instrument of that name is created.
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, series: make(map[string]*series), kind: -1}
		r.fams[name] = f
		r.names = append(r.names, name)
	}
	f.help = help
}

// seriesKey serializes labels deterministically (sorted by key).
func seriesKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, p.k, escapeLabel(p.v))
	}
	return b.String()
}

func escapeLabel(v string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`).Replace(v)
}

// get returns the family for name, creating it with the given kind, and
// checks kind consistency. Callers must hold r.mu.
func (r *Registry) get(name string, kind Kind, buckets []float64) *family {
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, kind: kind, series: make(map[string]*series)}
		if kind == KindHistogram {
			f.buckets = append([]float64(nil), buckets...)
		}
		r.fams[name] = f
		r.names = append(r.names, name)
		return f
	}
	if f.kind == -1 { // created by SetHelp before first instrument
		f.kind = kind
		if kind == KindHistogram {
			f.buckets = append([]float64(nil), buckets...)
		}
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.kind, kind))
	}
	if kind == KindHistogram && !equalBuckets(f.buckets, buckets) {
		panic(fmt.Sprintf("obs: metric %q requested with mismatched buckets", name))
	}
	return f
}

func equalBuckets(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkLabels(labels []string) {
	if len(labels)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
}

// Counter returns the counter for name and labels (alternating key, value),
// creating it on first use. Subsequent calls with the same name and labels
// return the same instrument.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	checkLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.get(name, KindCounter, nil)
	key := seriesKey(labels)
	if s, ok := f.series[key]; ok {
		return s.inst.(*Counter)
	}
	c := &Counter{}
	r.add(f, key, labels, c)
	return c
}

// Gauge returns the gauge for name and labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	checkLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.get(name, KindGauge, nil)
	key := seriesKey(labels)
	if s, ok := f.series[key]; ok {
		return s.inst.(*Gauge)
	}
	g := &Gauge{}
	r.add(f, key, labels, g)
	return g
}

// Histogram returns the histogram for name and labels, creating it on first
// use with the given bucket upper bounds (which must be sorted ascending;
// +Inf is implicit). Every series of one name must use identical buckets.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	checkLabels(labels)
	if len(buckets) == 0 {
		panic("obs: histogram needs at least one bucket")
	}
	if !sort.Float64sAreSorted(buckets) {
		panic("obs: histogram buckets must be sorted")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.get(name, KindHistogram, buckets)
	key := seriesKey(labels)
	if s, ok := f.series[key]; ok {
		return s.inst.(*Histogram)
	}
	h := &Histogram{
		upper:  f.buckets,
		counts: make([]atomic.Uint64, len(f.buckets)+1),
	}
	r.add(f, key, labels, h)
	return h
}

// add files a new instrument in its family and under each of its label pairs,
// with r.mu held.
func (r *Registry) add(f *family, key string, labels []string, inst any) {
	r.seq++
	s := &series{fam: f, key: key, labels: append([]string(nil), labels...), inst: inst, seq: r.seq}
	f.series[key] = s
	for l := s.labels; len(l) >= 2; l = l[2:] {
		p := [2]string{l[0], l[1]}
		if r.pairs[p] == nil {
			r.pairs[p] = make(map[*series]struct{})
		}
		r.pairs[p][s] = struct{}{}
	}
}

// RemoveSeries drops every series, of every family, that carries the label
// key=value and reports how many, at a cost proportional to that number. An
// instrument still held keeps counting unexposed: remove only what is no
// longer updated.
func (r *Registry) RemoveSeries(key, value string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	gone := r.pairs[[2]string{key, value}]
	n := len(gone)
	for s := range gone {
		delete(s.fam.series, s.key)
		for l := s.labels; len(l) >= 2; l = l[2:] {
			p := [2]string{l[0], l[1]}
			if delete(r.pairs[p], s); len(r.pairs[p]) == 0 {
				delete(r.pairs, p)
			}
		}
	}
	return n
}

// SeriesSnapshot is one labeled instrument's state at snapshot time.
type SeriesSnapshot struct {
	// Labels are the alternating key/value pairs the series was created
	// with, in creation order.
	Labels []string
	// Value is the counter or gauge value (counters as float64).
	Value float64
	// Count, Sum, Upper and Cumulative describe a histogram: Cumulative[i]
	// counts observations <= Upper[i], with one extra final element for
	// +Inf (== Count).
	Count      uint64
	Sum        float64
	Upper      []float64
	Cumulative []uint64
}

// FamilySnapshot is one metric family's state at snapshot time.
type FamilySnapshot struct {
	Name   string
	Help   string
	Kind   Kind
	Series []SeriesSnapshot
}

// Snapshot captures every family and series. Families and series appear in
// creation order; each value is read atomically.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FamilySnapshot, 0, len(r.names))
	for _, name := range r.names {
		f := r.fams[name]
		if len(f.series) == 0 {
			continue // SetHelp for a metric that never materialized, or every series removed
		}
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind}
		live := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			live = append(live, s)
		}
		slices.SortFunc(live, func(a, b *series) int { return a.seq - b.seq })
		for _, s := range live {
			ss := SeriesSnapshot{Labels: s.labels}
			switch m := s.inst.(type) {
			case *Counter:
				ss.Value = float64(m.Value())
			case *Gauge:
				ss.Value = m.Value()
			case *Histogram:
				ss.Count = m.Count()
				ss.Sum = m.Sum()
				ss.Upper, ss.Cumulative = m.Buckets()
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	return out
}
