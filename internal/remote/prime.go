package remote

import "repro/internal/store"

// PrimeSnapshot pre-ships a job's exposed-store snapshot to every live
// worker — the fleet-warming half of a job migration. A resumed job's
// restored @load state would otherwise be re-shipped lazily by the first
// round that needs it on each worker; priming moves that transfer off the
// first rounds' critical path. Workers already holding an older version of
// the job's snapshot receive a key-level delta (see snapdelta.go) instead of
// a full ship. It implements core.SnapshotPrimer.
func (ex *NetExecutor) PrimeSnapshot(job uint64, e *store.Exposed) error {
	v, err := ex.snapshotFor(job, e)
	if err != nil || v == nil {
		return err
	}
	ex.mu.Lock()
	workers := make([]*dworker, 0, len(ex.workers))
	for _, w := range ex.workers {
		if !w.dead && !w.draining {
			workers = append(workers, w)
		}
	}
	ex.mu.Unlock()
	var firstErr error
	for _, w := range workers {
		// Primed workers count as affine.
		if err := ex.shipSnapshot(w, job, v); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
