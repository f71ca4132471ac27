package main

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
)

// obsView reads the program's own metrics registry after a traced run.
// Series of one family are merged across labels (workers, jobs, regions)
// unless match narrows them.
type obsView []obs.FamilySnapshot

func view(reg *obs.Registry) obsView {
	if reg == nil {
		return nil
	}
	return reg.Snapshot()
}

func hasLabels(labels, match []string) bool {
	for i := 0; i+1 < len(match); i += 2 {
		found := false
		for j := 0; j+1 < len(labels); j += 2 {
			if labels[j] == match[i] && labels[j+1] == match[i+1] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// sum adds the values of every counter or gauge series of the family whose
// labels include the match pairs.
func (v obsView) sum(name string, match ...string) float64 {
	total := 0.0
	for _, f := range v {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if hasLabels(s.Labels, match) {
				total += s.Value
			}
		}
	}
	return total
}

// histView is one family's histogram series merged.
type histView struct {
	count uint64
	sum   float64
	upper []float64
	cum   []uint64 // cumulative per upper bound, plus a final +Inf element
}

// hist merges the family's histogram series whose labels include the match
// pairs.
func (v obsView) hist(name string, match ...string) histView {
	var h histView
	for _, f := range v {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if !hasLabels(s.Labels, match) || len(s.Cumulative) == 0 {
				continue
			}
			if h.cum == nil {
				h.upper, h.cum = s.Upper, make([]uint64, len(s.Cumulative))
			}
			if len(s.Cumulative) != len(h.cum) {
				continue // different bucket layout; not mergeable
			}
			for i, c := range s.Cumulative {
				h.cum[i] += c
			}
			h.count += s.Count
			h.sum += s.Sum
		}
	}
	return h
}

// quantile estimates the q-quantile with the registry's own fixed-bucket
// interpolation; accuracy is bounded by bucket width.
func (h histView) quantile(q float64) float64 {
	if h.count == 0 || len(h.upper) == 0 {
		return 0
	}
	target := q * float64(h.count)
	prev := uint64(0)
	for i, c := range h.cum {
		if n := float64(c - prev); float64(c) >= target && n > 0 {
			if i >= len(h.upper) {
				return h.upper[len(h.upper)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.upper[i-1]
			}
			return lo + (h.upper[i]-lo)*(target-float64(prev))/n
		}
		prev = c
	}
	return h.upper[len(h.upper)-1]
}

// beyondFirst counts the observations above the first bucket's bound.
func (h histView) beyondFirst() float64 {
	if len(h.cum) == 0 {
		return 0
	}
	return float64(h.count - h.cum[0])
}

// coreCounters fills the core.* and sched.* metrics every workload can read
// from the runtime's own registry.
func coreCounters(m metrics, v obsView) {
	m["core.samples"] = v.sum(core.MetricSamples)
	m["core.rounds"] = v.sum(core.MetricRounds)
	m["core.retries"] = v.sum(core.MetricSamplesRetried)
	m["core.timeouts"] = v.sum(core.MetricSamplesTimeout)
	if _, ok := m["core.region_p50_us"]; !ok {
		h := v.hist(core.MetricRegionDuration)
		m["core.region_p50_us"] = h.quantile(0.5) * 1e6
		m["core.region_p99_us"] = h.quantile(0.99) * 1e6
	}
	// Immediate admissions observe a zero wait, so everything beyond the
	// first (1 µs) bucket queued.
	wait := v.hist(sched.MetricWaitSeconds)
	m["sched.admitted"] = float64(wait.count)
	m["sched.waited"] = wait.beyondFirst()
	m["sched.wait_p50_us"] = wait.quantile(0.5) * 1e6
	m["sched.wait_p99_us"] = wait.quantile(0.99) * 1e6
	// The largest drain batch is the ring's occupancy high-water mark, to
	// bucket resolution.
	m["agg.ring_peak"] = v.hist(core.MetricRingDrainBatch).quantile(1)
}
