package bench

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/sched"
)

// EnableElasticFleet routes every white-box tuning run this package starts
// through a shared elastic loopback fleet (remote.StartLoopbackFleet)
// autoscaled between min and max single-slot workers, whose load signal
// follows the most recently created tuner's runtime. It returns a restore
// func that uninstalls the hooks and tears the fleet down.
func EnableElasticFleet(min, max int, reg *obs.Registry) (restore func(), err error) {
	var cur atomic.Pointer[core.Runtime]
	ex, stop, err := remote.StartLoopbackFleet(min, max, reg, func() sched.LoadStats {
		if rt := cur.Load(); rt != nil {
			return rt.Load()
		}
		return sched.LoadStats{}
	})
	if err != nil {
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
		stop()
	}, nil
}
