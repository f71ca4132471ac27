package remote

import (
	"net"
	"time"

	"repro/internal/obs"
)

// Dispatcher-side metric names, all labeled worker=<name>; the latency
// histograms additionally carry transport=<tcp|unix|tls|mem|pipe> so a mixed
// fleet's per-transport tails stay separable.
const (
	// MetricInflight gauges samples currently dispatched to a worker.
	MetricInflight = "wbtuner_remote_inflight"
	// MetricDispatchSeconds observes queue wait: Execute enqueue until a
	// worker claims the sample (the steal latency). Fine-grained buckets:
	// its p99 feeds the CI perf gate.
	MetricDispatchSeconds = "wbtuner_remote_dispatch_seconds"
	// MetricRPCSeconds observes the wire round trip: task frame written
	// until the result frame arrived.
	MetricRPCSeconds = "wbtuner_remote_rpc_seconds"
	// MetricSnapshotHits / MetricSnapshotMisses count samples whose snapshot
	// was already queued to the worker (hit: nothing shipped) vs shipped,
	// whole or as a delta.
	MetricSnapshotHits   = "wbtuner_remote_snapshot_cache_hits_total"
	MetricSnapshotMisses = "wbtuner_remote_snapshot_cache_misses_total"
	// MetricBytes counts frame bytes per direction (label dir=in|out).
	MetricBytes = "wbtuner_remote_bytes_total"
	// MetricWorkerFailures counts worker connections lost with samples
	// reassigned.
	MetricWorkerFailures = "wbtuner_remote_worker_failures_total"
)

// Fleet-level metric names (unlabeled except where noted).
const (
	// MetricFleetSize gauges live workers currently counted in the fleet
	// capacity (joined minus drained/retired/dead).
	MetricFleetSize = "wbtuner_fleet_size"
	// MetricScaleEvents counts autoscaler actions, labeled dir=up|down.
	MetricScaleEvents = "wbtuner_scale_events_total"
	// MetricAffinityHits / MetricAffinityMisses count dispatched samples that
	// carry a snapshot by what their claim cost: a miss needed a full
	// snapshot ship (the worker's first sample of the job, or a delta
	// fallback), a hit a delta or nothing. The steady-state hit ratio is
	// placement's figure of merit.
	MetricAffinityHits   = "wbtuner_affinity_hit_total"
	MetricAffinityMisses = "wbtuner_affinity_miss_total"
	// MetricSnapshotBytes counts encoded snapshot payload bytes queued for
	// shipment, labeled mode=full|delta. The full/delta ratio on an
	// incremental-store workload is delta shipping's figure of merit.
	MetricSnapshotBytes = "wbtuner_snapshot_bytes_total"
	// MetricSnapDeltaFallback counts ships that fell back to a full snapshot
	// when a delta was conceivable, labeled cause=base (no shipped base to
	// delta against), ratio (delta exceeded half a full ship), or nack
	// (worker refused the delta).
	MetricSnapDeltaFallback = "wbtuner_snapshot_delta_fallback_total"
	// MetricSnapCacheEvictions counts delta bases evicted from a job's
	// dispatcher-side snapshot cache by the version-count bound.
	MetricSnapCacheEvictions = "wbtuner_snapcache_evictions_total"
)

// fleetMetrics holds the executor's fleet-level instruments (nil when the
// executor has no obs registry).
type fleetMetrics struct {
	fleetSize *obs.Gauge
	affHits   *obs.Counter
	affMisses *obs.Counter

	snapBytesFull  *obs.Counter
	snapBytesDelta *obs.Counter
	fallbackBase   *obs.Counter
	fallbackRatio  *obs.Counter
	fallbackNack   *obs.Counter
	snapEvictions  *obs.Counter
}

func newFleetMetrics(reg *obs.Registry) *fleetMetrics {
	if reg == nil {
		return nil
	}
	reg.SetHelp(MetricFleetSize, "live workers counted in the fleet capacity")
	reg.SetHelp(MetricAffinityHits, "samples whose worker could start them without a full snapshot ship (delta or nothing)")
	reg.SetHelp(MetricAffinityMisses, "samples whose claim cost a full snapshot ship")
	reg.SetHelp(MetricSnapshotBytes, "encoded snapshot payload bytes queued for shipment")
	reg.SetHelp(MetricSnapDeltaFallback, "snapshot ships that fell back from delta to full")
	reg.SetHelp(MetricSnapCacheEvictions, "dispatcher snapshot-cache delta bases evicted by the version-count bound")
	return &fleetMetrics{
		fleetSize:      reg.Gauge(MetricFleetSize),
		affHits:        reg.Counter(MetricAffinityHits),
		affMisses:      reg.Counter(MetricAffinityMisses),
		snapBytesFull:  reg.Counter(MetricSnapshotBytes, "mode", "full"),
		snapBytesDelta: reg.Counter(MetricSnapshotBytes, "mode", "delta"),
		fallbackBase:   reg.Counter(MetricSnapDeltaFallback, "cause", "base"),
		fallbackRatio:  reg.Counter(MetricSnapDeltaFallback, "cause", "ratio"),
		fallbackNack:   reg.Counter(MetricSnapDeltaFallback, "cause", "nack"),
		snapEvictions:  reg.Counter(MetricSnapCacheEvictions),
	}
}

// workerMetrics holds one worker's dispatcher-side instruments (nil when
// the executor has no obs registry).
type workerMetrics struct {
	inflight   *obs.Gauge
	dispatch   *obs.Histogram
	rpc        *obs.Histogram
	snapHits   *obs.Counter
	snapMisses *obs.Counter
	bytesIn    *obs.Counter
	bytesOut   *obs.Counter
	failures   *obs.Counter
}

func newWorkerMetrics(reg *obs.Registry, worker, transport string) *workerMetrics {
	if reg == nil {
		return nil
	}
	reg.SetHelp(MetricInflight, "samples currently dispatched to the worker")
	reg.SetHelp(MetricDispatchSeconds, "queue wait before a worker claimed the sample")
	reg.SetHelp(MetricRPCSeconds, "task dispatch to result arrival round trip")
	reg.SetHelp(MetricSnapshotHits, "rounds whose exposed-store snapshot was already cached on the worker")
	reg.SetHelp(MetricSnapshotMisses, "exposed-store snapshots shipped to the worker")
	reg.SetHelp(MetricBytes, "protocol bytes exchanged with the worker")
	reg.SetHelp(MetricWorkerFailures, "worker connections lost with in-flight samples reassigned")
	return &workerMetrics{
		inflight:   reg.Gauge(MetricInflight, "worker", worker),
		dispatch:   reg.Histogram(MetricDispatchSeconds, obs.FineDurationBuckets(), "worker", worker, "transport", transport),
		rpc:        reg.Histogram(MetricRPCSeconds, obs.DurationBuckets(), "worker", worker, "transport", transport),
		snapHits:   reg.Counter(MetricSnapshotHits, "worker", worker),
		snapMisses: reg.Counter(MetricSnapshotMisses, "worker", worker),
		bytesIn:    reg.Counter(MetricBytes, "worker", worker, "dir", "in"),
		bytesOut:   reg.Counter(MetricBytes, "worker", worker, "dir", "out"),
		failures:   reg.Counter(MetricWorkerFailures, "worker", worker),
	}
}

// countAffinity counts one claimed sample that carries a snapshot: a hit if
// its worker could start it without a full snapshot ship.
func (m *fleetMetrics) countAffinity(hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.affHits.Inc()
	} else {
		m.affMisses.Inc()
	}
}

// countSnapshot counts one claimed sample whose snapshot was already queued
// to the worker (cached) or had to be shipped, whole or as a delta.
func (m *workerMetrics) countSnapshot(cached bool) {
	if m == nil {
		return
	}
	if cached {
		m.snapHits.Inc()
	} else {
		m.snapMisses.Inc()
	}
}

func (m *workerMetrics) observeDispatch(enq, sent time.Time) {
	if m == nil {
		return
	}
	m.dispatch.Observe(sent.Sub(enq).Seconds())
}

func (m *workerMetrics) observeRPC(sent time.Time) {
	if m == nil {
		return
	}
	m.rpc.ObserveSince(sent)
}

func (m *workerMetrics) setInflight(n int) {
	if m == nil {
		return
	}
	m.inflight.Set(float64(n))
}

// countingConn counts frame bytes into the worker's byte counters.
type countingConn struct {
	net.Conn
	m *workerMetrics
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.m != nil {
		c.m.bytesIn.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 && c.m != nil {
		c.m.bytesOut.Add(int64(n))
	}
	return n, err
}
