package remote

import "repro/internal/store"

// PrimeSnapshot pre-ships a job's exposed-store snapshot to every live
// worker — the fleet-warming half of a job migration. A resumed job's
// restored @load state would otherwise be re-shipped lazily by the first
// round that needs it on each worker; priming moves that transfer off the
// first rounds' critical path. Workers already holding an older version of
// the job's snapshot receive a key-level delta (see snapdelta.go) instead of
// a full ship. Each ship is queued to the worker's writer, ahead of any task
// queued after it. It implements core.SnapshotPrimer.
func (ex *NetExecutor) PrimeSnapshot(job uint64, e *store.Exposed) error {
	v, err := ex.snapshotFor(job, e)
	if err == nil && v != nil {
		ex.enqueueAll(sendOp{kind: mSnapDelta, id: job, v: v}, true) // primed workers count as affine
	}
	return err
}
