package remote

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/remote/transport"
	"repro/internal/sched"
)

// FleetOptions configure a FleetController.
type FleetOptions struct {
	// Load samples the scheduler's cumulative admission-load counters — the
	// control signal. Wire it to core.Runtime.Load. Required.
	Load func() sched.LoadStats

	// Registry configures spawned loopback workers; nil means never spawn
	// them, so it is required when the address pool alone cannot reach Max
	// (loopback workers must resolve the same region names the executor
	// ships).
	Registry *Registry

	// Addresses is the remote worker pool: scale-ups dial un-dialed
	// addresses (in order) before spawning loopback workers, and
	// scale-downs retire loopback workers before hanging up dialed ones.
	Addresses []string
	// Transport dials Addresses; nil means TCP.
	Transport transport.Transport

	// Min and Max bound the fleet size in workers. Start brings the fleet
	// to Min synchronously; the controller never drains below Min nor grows
	// beyond Max. Zero Min means 1; zero Max means Min plus the address
	// pool plus enough loopback workers to double Min (at least 4).
	Min, Max int

	// Setpoint is the queue-latency target: mean admission wait per
	// admitted sample above it scales up. Zero means 1ms.
	Setpoint time.Duration
	// Interval is the control-loop tick. Zero means 50ms.
	Interval time.Duration
	// Cooldown is the minimum gap between scale events, so one burst does
	// not slam the fleet to Max and back. Zero means 2*Interval.
	Cooldown time.Duration
	// QuietTicks is how many consecutive wait-free, under-utilized ticks
	// must pass before one worker drains. Zero means 3.
	QuietTicks int
}

// fleetMember is one controller-owned worker: a spawned loopback worker
// (w != nil) or a dialed address (addr != "").
type fleetMember struct {
	name string
	addr string
	w    *Worker
}

// FleetController is the wait-driven autoscaler: a control loop that diffs
// the scheduler's cumulative admission-wait counters each tick and steers
// the executor's fleet toward a queue-latency setpoint — samples queuing for
// admission mean the bound (and therefore the fleet behind it) is too small,
// a sustained wait-free surplus means workers are idling. Scale-ups dial
// configured addresses or spawn in-process loopback workers and warm them
// with every cached job snapshot before first dispatch; scale-downs retire
// through RemoveConn's graceful drain, so no round is ever dropped by an
// elasticity event. Scaling only moves placement, never sampling: the
// seeded samplers make results byte-identical to any static fleet's.
type FleetController struct {
	ex   *NetExecutor
	opts FleetOptions

	ups, downs *obs.Counter

	mu       sync.Mutex
	members  []fleetMember // scale-down retires from the tail
	undialed []string
	spawned  int // monotone loopback name suffix
	last     sched.LoadStats
	lastSet  bool
	quiet    int
	lastMove time.Time
	stop     chan struct{}
	done     chan struct{}
}

// NewFleetController builds a controller for ex. Spawned loopback workers
// share ex's value table, and scale events are counted in ex's metrics
// registry. Call Start to bring the fleet to Min and begin the control loop.
func NewFleetController(ex *NetExecutor, opts FleetOptions) *FleetController {
	if opts.Load == nil {
		panic("remote: FleetOptions.Load is required")
	}
	if opts.Min < 1 {
		opts.Min = 1
	}
	if opts.Max == 0 {
		opts.Max = opts.Min + len(opts.Addresses)
		if opts.Registry != nil && opts.Max < 2*opts.Min {
			opts.Max = 2 * opts.Min
		}
		if opts.Max < 4 {
			opts.Max = 4
		}
	}
	if opts.Max < opts.Min {
		opts.Max = opts.Min
	}
	if opts.Setpoint <= 0 {
		opts.Setpoint = time.Millisecond
	}
	if opts.Interval <= 0 {
		opts.Interval = 50 * time.Millisecond
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = 2 * opts.Interval
	}
	if opts.QuietTicks <= 0 {
		opts.QuietTicks = 3
	}
	if opts.Transport == nil {
		opts.Transport = transport.TCP()
	}
	fc := &FleetController{
		ex:       ex,
		opts:     opts,
		undialed: append([]string(nil), opts.Addresses...),
	}
	if o := ex.opts.Obs; o != nil {
		o.SetHelp(MetricScaleEvents, "autoscaler scale events by direction")
		fc.ups = o.Counter(MetricScaleEvents, "dir", "up")
		fc.downs = o.Counter(MetricScaleEvents, "dir", "down")
	}
	return fc
}

// Start grows the fleet to Min synchronously — so a runtime built right
// after Start never sees an empty fleet and falls back to the in-process
// path — then begins the control loop. It returns the first grow error if
// Min could not be reached.
func (fc *FleetController) Start() error {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.stop != nil {
		return nil
	}
	var firstErr error
	for len(fc.members) < fc.opts.Min {
		if err := fc.growLocked(); err != nil {
			firstErr = err
			break
		}
	}
	// Prime the load baseline so the very first tick can already diff an
	// interval instead of burning it on recording one.
	fc.last, fc.lastSet = fc.opts.Load(), true
	fc.stop = make(chan struct{})
	fc.done = make(chan struct{})
	go fc.loop(fc.stop, fc.done)
	return firstErr
}

// Stop halts the control loop and closes every controller-spawned loopback
// worker. The executor keeps whatever fleet exists; tear it down separately
// (ex.Close). Safe to call more than once.
func (fc *FleetController) Stop() {
	fc.mu.Lock()
	stop, done := fc.stop, fc.done
	fc.stop, fc.done = nil, nil
	fc.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	fc.mu.Lock()
	members := fc.members
	fc.members = nil
	fc.mu.Unlock()
	for _, m := range members {
		if m.w != nil {
			m.w.Close()
		}
	}
}

// StartLoopbackFleet starts an elastic fleet of in-process loopback workers
// and returns the Runtime that runs on it. The fleet is a Dynamic executor
// over a fresh shared Registry and ValueTable (the regions it ships may be
// unregistered closures, so the workers must share both with the
// dispatcher) and a FleetController that scales it between min and max
// single-slot workers on the runtime's load. The runtime is built from opts
// with that executor; opts.Obs also receives the fleet's metrics. stop
// retires the fleet: the controller first, then the executor.
func StartLoopbackFleet(min, max int, opts core.RuntimeOptions) (rt *core.Runtime, stop func(), err error) {
	// The controller starts before the runtime exists: until it does, the
	// load signal reads zero stats.
	var cur atomic.Pointer[core.Runtime]
	shared := NewRegistry()
	ex := NewExecutor(ExecutorOptions{Registry: shared, Dynamic: true, Values: NewValueTable(), Obs: opts.Obs})
	fc := NewFleetController(ex, FleetOptions{
		Load: func() sched.LoadStats {
			if rt := cur.Load(); rt != nil {
				return rt.Load()
			}
			return sched.LoadStats{}
		},
		Registry: shared, Min: min, Max: max,
	})
	stop = func() {
		fc.Stop()
		ex.Close()
	}
	if err := fc.Start(); err != nil {
		stop()
		return nil, nil, err
	}
	opts.Executor = ex
	rt = core.NewRuntime(opts)
	cur.Store(rt)
	return rt, stop, nil
}

// Size reports the number of controller-owned workers.
func (fc *FleetController) Size() int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return len(fc.members)
}

// loop is the control loop: one scaling decision per tick.
func (fc *FleetController) loop(stop, done chan struct{}) {
	defer close(done)
	tk := time.NewTicker(fc.opts.Interval)
	defer tk.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tk.C:
			fc.tick()
		}
	}
}

// tick diffs the load counters since the previous tick and scales.
func (fc *FleetController) tick() {
	now := fc.opts.Load()
	fc.mu.Lock()
	prev, ok := fc.last, fc.lastSet
	fc.last, fc.lastSet = now, true
	if !ok {
		fc.mu.Unlock()
		return
	}
	dAdmitted := now.Admitted - prev.Admitted
	dWait := now.WaitNanos - prev.WaitNanos
	var meanWait time.Duration
	if dAdmitted > 0 {
		meanWait = time.Duration(dWait / dAdmitted)
	}
	// High-priority jobs parked in a control-plane admission queue are
	// pressure even while process-level waits are quiet: they run no
	// processes yet, so they accrue no WaitNanos, but each one wants a
	// running-set slot as soon as capacity allows. Lower classes queueing is
	// acceptable backlog and does not force the fleet up.
	pressured := meanWait > fc.opts.Setpoint || now.Queued > 0 || now.HighJobsQueued > 0
	switch {
	case pressured:
		fc.quiet = 0
		// Scale up asymmetrically fast: growth ignores the cooldown (it is
		// cheap, self-limiting at Max, and every tick spent under-provisioned
		// queues samples), while scale-down below stays deliberate. A deep
		// setpoint breach doubles the fleet; a marginal one, a visible
		// admission backlog, or queued high-priority jobs grow linearly.
		if len(fc.members) < fc.opts.Max {
			step := 1
			if meanWait > 2*fc.opts.Setpoint && len(fc.members) > step {
				step = len(fc.members)
			}
			if now.Queued > step {
				step = now.Queued
			}
			if now.HighJobsQueued > step {
				step = now.HighJobsQueued
			}
			if max := fc.opts.Max - len(fc.members); step > max {
				step = max
			}
			grew := false
			for i := 0; i < step; i++ {
				if fc.growLocked() != nil {
					break
				}
				grew = true
			}
			if grew {
				fc.lastMove = time.Now()
				if fc.ups != nil {
					fc.ups.Inc()
				}
			}
		}
	case dWait == 0 && now.InUse < now.Capacity-1:
		// Wait-free and at least one worker's worth of headroom idle.
		fc.quiet++
		if fc.quiet >= fc.opts.QuietTicks && len(fc.members) > fc.opts.Min &&
			time.Since(fc.lastMove) >= fc.opts.Cooldown {
			fc.quiet = 0
			fc.lastMove = time.Now()
			m := fc.members[len(fc.members)-1]
			fc.members = fc.members[:len(fc.members)-1]
			if m.addr != "" {
				fc.undialed = append(fc.undialed, m.addr)
			}
			fc.mu.Unlock()
			fc.retire(m)
			return
		}
	default:
		fc.quiet = 0
	}
	fc.mu.Unlock()
}

// growLocked adds one worker: the next un-dialed address if any, otherwise a
// spawned loopback worker. Callers hold fc.mu.
func (fc *FleetController) growLocked() error {
	if len(fc.undialed) > 0 {
		addr := fc.undialed[0]
		c, err := fc.opts.Transport.Dial(addr)
		if err != nil {
			return err
		}
		name, err := fc.ex.addConn(c, fc.opts.Transport.Name())
		if err != nil {
			c.Close()
			return err
		}
		fc.undialed = fc.undialed[1:]
		fc.members = append(fc.members, fleetMember{name: name, addr: addr})
		return nil
	}
	if fc.opts.Registry == nil {
		return fmt.Errorf("remote: fleet at %d workers, address pool exhausted and no Registry to spawn loopback workers", len(fc.members))
	}
	fc.spawned++
	w := NewWorker(WorkerOptions{
		Name:     fmt.Sprintf("elastic-%d", fc.spawned),
		Slots:    1,
		Registry: fc.opts.Registry,
		Values:   fc.ex.opts.Values,
	})
	a, b := net.Pipe()
	go w.ServeConn(a)
	name, err := fc.ex.addConn(b, "pipe")
	if err != nil {
		b.Close()
		w.Close()
		return err
	}
	fc.members = append(fc.members, fleetMember{name: name, w: w})
	return nil
}

// retireTimeout bounds a scale-down drain; past it the worker's remaining
// in-flight samples are bounced onto the survivors via the retry machinery.
const retireTimeout = 30 * time.Second

// retire drains one member out of the fleet. Called without fc.mu held —
// RemoveConn blocks until the member's in-flight samples land.
func (fc *FleetController) retire(m fleetMember) {
	ctx, cancel := context.WithTimeout(context.Background(), retireTimeout)
	fc.ex.RemoveConn(ctx, m.name)
	cancel()
	if m.w != nil {
		m.w.Close()
	}
	if fc.downs != nil {
		fc.downs.Inc()
	}
}
