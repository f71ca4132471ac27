package core

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/dist"
	"repro/internal/obs"
)

// TestObservabilityEndToEnd runs a small tuning program with a registry and
// trace installed and checks the full instrumentation surface: region and
// sample histograms, outcome counters, scheduler metrics, split counter,
// and the JSONL trace export.
func TestObservabilityEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	trace := NewTrace()
	tu := New(Options{Seed: 1, MaxPool: 4, Incremental: true, Obs: reg, Trace: trace})

	err := tu.Run(func(p *P) error {
		_, err := p.Region(RegionSpec{
			Name: "stage", Samples: 12,
			Aggregate: map[string]agg.Kind{"y": agg.Avg},
		}, func(sp *SP) error {
			x := sp.Float("x", dist.Uniform(0, 1))
			sp.Check(x < 0.9) // prune some samples
			if x > 0.85 {
				return errors.New("synthetic failure")
			}
			sp.Commit("y", x)
			return nil
		})
		if err != nil {
			return err
		}
		p.Split(func(child *P) error { return nil })
		return p.Wait()
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}

	m := tu.Metrics()
	done := reg.Counter(MetricSamples, "region", "stage", "result", "done").Value()
	pruned := reg.Counter(MetricSamples, "region", "stage", "result", "pruned").Value()
	failed := reg.Counter(MetricSamples, "region", "stage", "result", "failed").Value()
	if done+pruned+failed != m.Samples {
		t.Fatalf("outcome counters %d+%d+%d != samples %d", done, pruned, failed, m.Samples)
	}
	if pruned != m.Pruned {
		t.Fatalf("pruned counter = %d, metrics say %d", pruned, m.Pruned)
	}
	if got := reg.Counter(MetricRounds, "region", "stage").Value(); got != m.Rounds {
		t.Fatalf("rounds counter = %d, metrics say %d", got, m.Rounds)
	}
	if got := reg.Counter(MetricSplits).Value(); got != m.Splits {
		t.Fatalf("splits counter = %d, metrics say %d", got, m.Splits)
	}
	rh := reg.Histogram(MetricRegionDuration, obs.DurationBuckets(), "region", "stage")
	if rh.Count() != 1 {
		t.Fatalf("region duration observations = %d, want 1", rh.Count())
	}
	sh := reg.Histogram(MetricSampleDuration, obs.DurationBuckets(), "region", "stage")
	if int64(sh.Count()) != m.Samples {
		t.Fatalf("sample duration observations = %d, want %d", sh.Count(), m.Samples)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`wbtuner_region_duration_seconds_bucket{region="stage",le="+Inf"} 1`,
		`wbtuner_sched_wait_seconds_count{kind="sampling"}`,
		"wbtuner_sched_pool_occupancy",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Incremental aggregates fold at commit: there is no ring to report on.
	for _, gone := range []string{"wbtuner_ring_occupancy", MetricRingDrainBatch} {
		if strings.Contains(out, gone) {
			t.Fatalf("exposition still carries %q:\n%s", gone, out)
		}
	}
}

// TestTraceJSONL checks the trace export: timestamps present, one valid
// JSON object per line, kinds spelled out, scores only on sample-done.
func TestTraceJSONL(t *testing.T) {
	trace := NewTrace()
	tu := New(Options{Seed: 3, MaxPool: 2, Trace: trace})
	err := tu.Run(func(p *P) error {
		_, err := p.Region(RegionSpec{
			Name: "r", Samples: 4,
			Score: func(sp *SP) float64 { return sp.MustGet("v").(float64) },
		}, func(sp *SP) error {
			sp.Commit("v", sp.Float("x", dist.Uniform(0, 1)))
			return nil
		})
		return err
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}

	var sb strings.Builder
	if err := trace.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != len(trace.Events()) {
		t.Fatalf("JSONL lines = %d, events = %d", len(lines), len(trace.Events()))
	}
	sawScore := false
	var prevAt int64
	for _, line := range lines {
		var e struct {
			At     int64    `json:"at"`
			Kind   string   `json:"kind"`
			Region string   `json:"region"`
			Sample int      `json:"sample"`
			Score  *float64 `json:"score"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		if e.At == 0 {
			t.Fatalf("event missing timestamp: %q", line)
		}
		if e.At < prevAt {
			t.Fatalf("timestamps not monotone in collection order: %d after %d", e.At, prevAt)
		}
		prevAt = e.At
		if e.Kind == "sample-done" {
			if e.Score == nil {
				t.Fatalf("sample-done without score: %q", line)
			}
			sawScore = true
		} else if e.Score != nil {
			t.Fatalf("score on non-sample-done event: %q", line)
		}
	}
	if !sawScore {
		t.Fatal("no sample-done event in trace")
	}
	if lines[0] == "" || !strings.Contains(lines[0], `"kind":"region-start"`) {
		t.Fatalf("first event is not region-start: %q", lines[0])
	}
}
