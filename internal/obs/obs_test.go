package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "k", "v")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if c2 := r.Counter("c_total", "k", "v"); c2 != c {
		t.Fatal("same name+labels did not return the same counter")
	}
	if c3 := r.Counter("c_total", "k", "w"); c3 == c {
		t.Fatal("different labels returned the same counter")
	}

	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestCounterNegativeAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	new(Counter).Add(-1)
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 4})

	// le is inclusive: a value equal to a bound lands in that bucket.
	for _, v := range []float64{0.5, 1, 1.000001, 2, 4, 4.5, math.Inf(1)} {
		h.Observe(v)
	}
	upper, cum := h.Buckets()
	if len(upper) != 3 || len(cum) != 4 {
		t.Fatalf("bucket shape = %d/%d, want 3/4", len(upper), len(cum))
	}
	// cumulative: <=1: {0.5, 1} = 2; <=2: +{1.000001, 2} = 4; <=4: +{4} = 5; +Inf: 7.
	want := []uint64{2, 4, 5, 7}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (all: %v)", i, cum[i], w, cum)
		}
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if !math.IsInf(h.Sum(), 1) {
		t.Fatalf("sum = %v, want +Inf", h.Sum())
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
	if b := DurationBuckets(); len(b) != 12 || b[0] != 1e-6 {
		t.Fatalf("DurationBuckets = %v", b)
	}
}

func TestHistogramMismatchedBucketsPanic(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched buckets did not panic")
		}
	}()
	r.Histogram("h", []float64{1, 3}, "k", "v")
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("m")
}

// TestConcurrentUpdates hammers one registry from many goroutines while a
// reader snapshots it; run with -race this is the registry's concurrency
// contract test.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() { // concurrent snapshot reader
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			// Mix creation (lock path) and updates (atomic path).
			c := r.Counter("work_total", "worker", string(rune('a'+w)))
			h := r.Histogram("latency", DurationBuckets())
			g := r.Gauge("occupancy")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i) * 1e-6)
				g.Add(1)
				g.Add(-1)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	reader.Wait()

	h := r.Histogram("latency", DurationBuckets())
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	var total int64
	for w := 0; w < workers; w++ {
		total += r.Counter("work_total", "worker", string(rune('a'+w))).Value()
	}
	if total != workers*perWorker {
		t.Fatalf("counter total = %d, want %d", total, workers*perWorker)
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("wbtuner_samples_total", "sampling processes by outcome")
	r.Counter("wbtuner_samples_total", "region", "gaussian", "result", "done").Add(3)
	r.Counter("wbtuner_samples_total", "region", "gaussian", "result", "pruned").Inc()
	r.Gauge("wbtuner_sched_pool_occupancy").Set(2)
	h := r.Histogram("wbtuner_region_duration_seconds", []float64{0.001, 0.01, 0.1}, "region", "gaussian")
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(0.5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP wbtuner_samples_total sampling processes by outcome
# TYPE wbtuner_samples_total counter
wbtuner_samples_total{region="gaussian",result="done"} 3
wbtuner_samples_total{region="gaussian",result="pruned"} 1
# TYPE wbtuner_sched_pool_occupancy gauge
wbtuner_sched_pool_occupancy 2
# TYPE wbtuner_region_duration_seconds histogram
wbtuner_region_duration_seconds_bucket{region="gaussian",le="0.001"} 1
wbtuner_region_duration_seconds_bucket{region="gaussian",le="0.01"} 1
wbtuner_region_duration_seconds_bucket{region="gaussian",le="0.1"} 2
wbtuner_region_duration_seconds_bucket{region="gaussian",le="+Inf"} 3
wbtuner_region_duration_seconds_sum{region="gaussian"} 0.5505
wbtuner_region_duration_seconds_count{region="gaussian"} 3
`
	if got := sb.String(); got != want {
		t.Fatalf("Prometheus output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "path", "a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `path="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped: %s", sb.String())
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "k", "v").Add(7)
	h := r.Histogram("h", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(100)

	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []struct {
			Name   string `json:"name"`
			Type   string `json:"type"`
			Series []struct {
				Labels  map[string]string `json:"labels"`
				Value   *float64          `json:"value"`
				Count   *uint64           `json:"count"`
				Buckets []struct {
					LE         string `json:"le"`
					Cumulative uint64 `json:"cumulative"`
				} `json:"buckets"`
			} `json:"series"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.Metrics) != 2 {
		t.Fatalf("metrics = %d, want 2", len(doc.Metrics))
	}
	c := doc.Metrics[0]
	if c.Name != "c_total" || c.Type != "counter" || *c.Series[0].Value != 7 || c.Series[0].Labels["k"] != "v" {
		t.Fatalf("counter snapshot wrong: %+v", c)
	}
	hs := doc.Metrics[1].Series[0]
	if *hs.Count != 2 || len(hs.Buckets) != 3 || hs.Buckets[2].LE != "+Inf" || hs.Buckets[2].Cumulative != 2 {
		t.Fatalf("histogram snapshot wrong: %+v", hs)
	}
}

// The acceptance bar for the sampling hot path: instrument updates must be
// atomic, not lock-guarded. These parallel benchmarks make contention
// visible (a mutex-based registry collapses here).

func BenchmarkCounterParallel(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramParallel(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", DurationBuckets())
	b.RunParallel(func(pb *testing.PB) {
		v := 1e-6
		for pb.Next() {
			h.Observe(v)
			v *= 1.0001
			if v > 1 {
				v = 1e-6
			}
		}
	})
}

func BenchmarkGaugeParallel(b *testing.B) {
	r := NewRegistry()
	g := r.Gauge("bench_gauge")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			g.Add(1)
		}
	})
}

// TestRemoveSeriesMatchesOracle drives random creations and removals by label
// pair against the slow obvious model — a list of live series in creation
// order, filtered on removal — and compares the whole exposition after every
// step. Values are bumped at creation and on every re-lookup so a series that
// was removed and created again is seen to start from zero.
func TestRemoveSeriesMatchesOracle(t *testing.T) {
	type live struct {
		fam    string
		labels []string
		v      int64
	}
	r := NewRegistry()
	rng := rand.New(rand.NewSource(7))
	var oracle []live
	fams := []string{"a_total", "b_total", "c_total"}
	pick := func() []string {
		l := []string{"job", fmt.Sprintf("j%d", rng.Intn(12))}
		if rng.Intn(2) == 0 {
			l = append(l, "region", fmt.Sprintf("r%d", rng.Intn(3)))
		}
		return l
	}
	for step := 0; step < 4000; step++ {
		if rng.Intn(4) > 0 {
			fam, labels := fams[rng.Intn(len(fams))], pick()
			r.Counter(fam, labels...).Inc()
			found := false
			for i := range oracle {
				if oracle[i].fam == fam && slices.Equal(oracle[i].labels, labels) {
					oracle[i].v++
					found = true
				}
			}
			if !found {
				oracle = append(oracle, live{fam, labels, 1})
			}
		} else {
			pair := pick()
			if len(pair) == 4 && rng.Intn(2) == 0 {
				pair = pair[2:]
			}
			want := 0
			kept := oracle[:0]
			for _, s := range oracle {
				has := false
				for i := 0; i+1 < len(s.labels); i += 2 {
					has = has || (s.labels[i] == pair[0] && s.labels[i+1] == pair[1])
				}
				if has {
					want++
				} else {
					kept = append(kept, s)
				}
			}
			oracle = kept
			if got := r.RemoveSeries(pair[0], pair[1]); got != want {
				t.Fatalf("step %d: RemoveSeries(%s=%s) dropped %d series, want %d", step, pair[0], pair[1], got, want)
			}
		}
		got, want := map[string][]string{}, map[string][]string{}
		for _, f := range r.Snapshot() {
			if len(f.Series) == 0 {
				t.Fatalf("step %d: family %s exposed with no series", step, f.Name)
			}
			for _, s := range f.Series {
				got[f.Name] = append(got[f.Name], fmt.Sprint(s.Labels, s.Value))
			}
		}
		for _, s := range oracle {
			want[s.fam] = append(want[s.fam], fmt.Sprint(s.labels, float64(s.v)))
		}
		for _, fam := range fams { // series in creation order within a family
			if !slices.Equal(got[fam], want[fam]) {
				t.Fatalf("step %d: family %s exposes\n%v\nwant\n%v", step, fam, got[fam], want[fam])
			}
		}
	}
	// The index is exact: one entry per label pair of a live series, nothing kept
	// for a removed one.
	refs, want := 0, 0
	for _, set := range r.pairs {
		refs += len(set)
	}
	for _, s := range oracle {
		want += len(s.labels) / 2
	}
	if refs != want {
		t.Errorf("the pair index holds %d entries for %d label pairs of live series", refs, want)
	}
	// A family whose last series went is not exposed, even as a header, until
	// a series of it is created again.
	for j := 0; j < 12; j++ {
		r.RemoveSeries("job", fmt.Sprintf("j%d", j))
	}
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("every series removed, the snapshot still holds %+v", snap)
	}
	if len(r.pairs) != 0 {
		t.Fatalf("every series removed, the pair index still holds %v", r.pairs)
	}
	r.Counter("b_total", "job", "j3").Inc()
	if snap := r.Snapshot(); len(snap) != 1 || snap[0].Name != "b_total" || len(snap[0].Series) != 1 || snap[0].Series[0].Value != 1 {
		t.Fatalf("after one re-creation the snapshot holds %+v", snap)
	}
}

// TestBatchesMatchSingleObservations: a Tally flushed into a histogram, and
// ObserveN, leave the buckets and count that observing each value on its own
// leaves, and a sum equal up to rounding.
func TestBatchesMatchSingleObservations(t *testing.T) {
	reg := NewRegistry()
	one := reg.Histogram("one", DurationBuckets())
	batched := reg.Histogram("batched", DurationBuckets())
	rng := rand.New(rand.NewSource(1))
	tally := batched.Tally()
	for round := 0; round < 3; round++ {
		for i := 0; i < 500; i++ {
			v := math.Exp(rng.NormFloat64()*3 - 9) // seconds, across every bucket
			one.Observe(v)
			tally.Observe(v)
		}
		one.Observe(0)
		one.Observe(0)
		batched.ObserveN(0, 2)
		tally.Flush()
		_, want := one.Buckets()
		_, got := batched.Buckets()
		if !slices.Equal(got, want) || batched.Count() != one.Count() {
			t.Fatalf("round %d: batched buckets %v (count %d), one by one %v (count %d)",
				round, got, batched.Count(), want, one.Count())
		}
		if d := math.Abs(batched.Sum() - one.Sum()); d > 1e-9*one.Sum() {
			t.Fatalf("round %d: batched sum %g, one by one %g", round, batched.Sum(), one.Sum())
		}
	}
	tally.Flush() // an empty batch changes nothing
	if batched.Count() != one.Count() {
		t.Fatalf("an empty Flush moved the count: %d, want %d", batched.Count(), one.Count())
	}
}
