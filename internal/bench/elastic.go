package bench

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/sched"
)

// EnableElasticFleet routes every white-box tuning run this package starts
// through a shared elastic loopback fleet: a Dynamic-registry executor (the
// benchmark regions are unregistered closures, so workers must share the
// dispatcher's registry and value table) autoscaled between min and max
// single-slot workers by a FleetController whose load signal follows the
// most recently created tuner's runtime. It returns a restore func that
// uninstalls the hooks and tears the fleet down.
func EnableElasticFleet(min, max int, reg *obs.Registry) (restore func(), err error) {
	shared := remote.NewRegistry()
	vals := remote.NewValueTable()
	ex := remote.NewExecutor(remote.ExecutorOptions{
		Registry: shared, Dynamic: true, Values: vals, Obs: reg,
	})
	var cur atomic.Pointer[core.Runtime]
	fc := remote.NewFleetController(ex, remote.FleetOptions{
		Load: func() sched.LoadStats {
			if rt := cur.Load(); rt != nil {
				return rt.Load()
			}
			return sched.LoadStats{}
		},
		Registry: shared,
		Values:   vals,
		Min:      min,
		Max:      max,
		Obs:      reg,
	})
	if err := fc.Start(); err != nil {
		fc.Stop()
		ex.Close()
		return nil, err
	}
	prevOpts, prevTuner := OptionsHook, TunerHook
	OptionsHook = func(o core.Options) core.Options {
		if prevOpts != nil {
			o = prevOpts(o)
		}
		o.Executor = ex
		return o
	}
	TunerHook = func(t *core.Tuner) {
		if prevTuner != nil {
			prevTuner(t)
		}
		cur.Store(t.Runtime())
	}
	return func() {
		OptionsHook, TunerHook = prevOpts, prevTuner
		fc.Stop()
		ex.Close()
	}, nil
}
