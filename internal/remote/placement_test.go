package remote

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/strategy"
)

// warmBlobLen is the blob the placement workloads expose once per job: 16384
// float64s, 128 KiB on the wire — the state a full ship costs and a delta
// does not.
const warmBlobLen = 16384

// warmProgram is the fleet_delta shape: a 128 KiB blob exposed once, then
// rounds x 32 samples, each round re-exposing one knob. The body sums the blob
// reps times (about 10 µs of arithmetic per pass, no sleep). each runs after
// every round, once all of its samples have been delivered.
func warmProgram(job *core.Tuner, region string, rounds, reps int, each func(round int, res *core.Result)) error {
	blob := make([]float64, warmBlobLen)
	for i := range blob {
		blob[i] = float64(i%97) * 0.25
	}
	return job.Run(func(p *core.P) error {
		p.Expose("blob", blob)
		spec := core.RegionSpec{
			Name:     region,
			Samples:  32,
			Strategy: strategy.MCMC(strategy.MCMCOptions{}),
			Score:    func(sp *core.SP) float64 { return sp.MustGet("y").(float64) },
		}
		body := func(sp *core.SP) error {
			x := sp.Float("x", dist.Uniform(0, 1))
			b := sp.Load("blob").([]float64)
			k := sp.Load("knob").(float64)
			sum := 0.0
			for r := 0; r < reps; r++ {
				for _, v := range b {
					sum += v
				}
			}
			sp.Commit("sum", sum)
			sp.Commit("y", x*k+b[int(x*float64(len(b)-1))])
			return nil
		}
		for round := 0; round < rounds; round++ {
			p.Expose("knob", 1+float64(round))
			res, err := p.Region(spec, body)
			if err != nil {
				return err
			}
			each(round, res)
		}
		return nil
	})
}

// warmDump runs warmProgram and returns a dump of everything it observed.
func warmDump(job *core.Tuner, region string, rounds, reps int, between func(round int)) (string, error) {
	var dump string
	err := warmProgram(job, region, rounds, reps, func(round int, res *core.Result) {
		dump += fmt.Sprintf("round %d:\n%s", round, dumpRegion(res))
		if between != nil {
			between(round)
		}
	})
	return dump, err
}

// claimSplit reads, between rounds, how many samples each worker delivered
// since the last call: a worker's rpc histogram counts them.
type claimSplit struct {
	ws   []*dworker
	last []uint64
}

func newClaimSplit(ex *NetExecutor) *claimSplit {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return &claimSplit{ws: append([]*dworker(nil), ex.workers...), last: make([]uint64, len(ex.workers))}
}

func (s *claimSplit) round() (took []uint64) {
	for i, w := range s.ws {
		n := w.m.rpc.Count()
		took = append(took, n-s.last[i])
		s.last[i] = n
	}
	return took
}

// TestEveryWarmWorkerWorks is the placement gate: on the fleet_delta shape a
// worker one small delta away from warm must not sit idle while the round's
// first claimant takes every sample. Throughput would show a regression only
// as a drift; this names it. The bound is per round — a dispatcher that
// alternates whole rounds between the workers looks balanced in aggregate.
//
// Who claims a sample is a race between two workers' result frames, so on a
// 2-core box with a CPU burner beside the test one run in twelve reads 5
// balanced rounds of 11. Everything deterministic (the dump, two full ships,
// no fallback, the hit count) is asserted on every attempt; the balance gates
// what placement can do, as the best of three attempts.
func TestEveryWarmWorkerWorks(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	const rounds = 12
	local, err := warmDump(core.New(core.Options{MaxPool: 1, Seed: 5}), "warm", rounds, 5, nil)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	best := 0
	for attempt := 0; attempt < 3 && best*2 < rounds-1; attempt++ {
		shared := warmWorkerAttempt(t, rounds, local)
		t.Logf("attempt %d: both workers claimed >= 4 of 32 samples in %d of %d warm rounds", attempt, shared, rounds-1)
		best = max(best, shared)
	}
	if best*2 < rounds-1 {
		t.Errorf("both workers claimed >= 4 of 32 samples in only %d of %d warm rounds, best of 3 attempts", best, rounds-1)
	}
}

// warmWorkerAttempt runs the warm program once over a fresh fleet of two
// one-slot workers, checks every deterministic property of the run, and
// returns in how many warm rounds both workers took at least 4 samples.
func warmWorkerAttempt(t *testing.T, rounds int, local string) (shared int) {
	reg := NewRegistry()
	oreg := obs.NewRegistry()
	f := newFleet(t, 2, 1, ExecutorOptions{Registry: reg, Dynamic: true, Obs: oreg}, WorkerOptions{Registry: reg})
	split := newClaimSplit(f.ex)
	remote, err := warmDump(core.New(core.Options{MaxPool: 1, Seed: 5, Executor: f.ex}), "warm", rounds, 5,
		func(round int) {
			took := split.round()
			if took[0]+took[1] != 32 {
				t.Errorf("round %d: workers delivered %d+%d samples, want 32", round, took[0], took[1])
			}
			// The job's first round is typically 31/1: the second worker is
			// still taking its full ship.
			if round > 0 && took[0] >= 4 && took[1] >= 4 {
				shared++
			}
		})
	if err != nil {
		t.Fatalf("remote run: %v", err)
	}
	if remote != local {
		t.Fatalf("dispatched run diverged from local run:\nlocal:\n%s\nremote:\n%s", local, remote)
	}

	fm := f.ex.fm
	if misses := fm.affMisses.Value(); misses != 2 {
		t.Errorf("%d claims cost a full ship, want 2 (one per worker)", misses)
	}
	ships := split.ws[0].m.snapMisses.Value() + split.ws[1].m.snapMisses.Value()
	if ships <= 2 || fm.snapBytesDelta.Value() == 0 {
		t.Errorf("%d ships, %d delta bytes: rounds after the first should ship deltas", ships, fm.snapBytesDelta.Value())
	}
	noFallbacks(t, fm)
	hits := fm.affHits.Value()
	if want := int64(rounds * 32); hits+2 != want || float64(hits) < 0.95*float64(want) {
		t.Errorf("affinity hits = %d of %d claims, want all but the two full ships", hits, want)
	}
	return shared
}

// TestEveryWarmWorkerWorksMultiJob runs two co-tenant jobs, each re-exposing a
// knob every round, over two two-slot workers: placement moves samples of
// either job to whichever worker is free, and both dumps must still equal
// their local runs byte for byte.
func TestEveryWarmWorkerWorksMultiJob(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	const rounds = 6
	seeds := []int64{11, 23}
	solo := make([]string, len(seeds))
	for i, seed := range seeds {
		var err error
		solo[i], err = warmDump(core.New(core.Options{MaxPool: 2, Seed: seed}), fmt.Sprintf("wj%d", i), rounds, 1, nil)
		if err != nil {
			t.Fatalf("solo job %d: %v", i, err)
		}
	}

	reg := NewRegistry()
	f := newFleet(t, 2, 2, ExecutorOptions{Registry: reg, Dynamic: true, Obs: obs.NewRegistry()}, WorkerOptions{Registry: reg})
	rt := core.NewRuntime(core.RuntimeOptions{MaxPool: 2, Executor: f.ex})
	got := make([]string, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		job := rt.NewJob(core.JobOptions{Name: fmt.Sprintf("wj%d", i), Seed: seed})
		wg.Add(1)
		go func(i int, job *core.Tuner) {
			defer wg.Done()
			defer job.Close()
			got[i], errs[i] = warmDump(job, fmt.Sprintf("wj%d", i), rounds, 1, nil)
		}(i, job)
	}
	wg.Wait()
	for i := range seeds {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if got[i] != solo[i] {
			t.Errorf("job %d diverged from its solo run:\nfleet:\n%s\nsolo:\n%s", i, got[i], solo[i])
		}
	}
	if n := f.ex.fm.fallbackNack.Value(); n != 0 {
		t.Errorf("healthy run produced %d nacks", n)
	}
}

// noFallbacks fails t for every delta-fallback cause fm has counted.
func noFallbacks(t *testing.T, fm *fleetMetrics) {
	t.Helper()
	for cause, c := range map[string]*obs.Counter{
		"base": fm.fallbackBase, "ratio": fm.fallbackRatio, "nack": fm.fallbackNack,
	} {
		if n := c.Value(); n != 0 {
			t.Errorf("%d %s fallbacks: every ship after a worker's first should be a delta", n, cause)
		}
	}
}

// placementWorker is a dworker with no connection behind it: enough state for
// pickLocked and holds, which only read it.
func placementWorker(ex *NetExecutor, name string, slots, busy int, sent ...sentVer) *dworker {
	w := &dworker{ex: ex, name: name, slots: slots,
		inflight: make(map[uint64]*call), sent: make(map[uint64][]sentVer)}
	for i := 0; i < busy; i++ {
		w.inflight[uint64(i)] = &call{}
	}
	if len(sent) > 0 {
		w.sent[1] = sent
	}
	return w
}

// TestPlacementRule pins Execute's choice of worker: affinity is a preference
// among free workers, never a reason to wait for a busy one.
func TestPlacementRule(t *testing.T) {
	// The round samples under version 5 of job 1; deltas reach it from 3 on.
	rs := &roundState{job: 1, snap: &snapVersion{hash: 0x55, seq: 5, reach: 3}}
	exact := sentVer{seq: 5, hash: 0x55}
	base := sentVer{seq: 4, hash: 0x44}
	stale := sentVer{seq: 2, hash: 0x22}

	type wk struct {
		name           string
		slots, busy    int
		sent           []sentVer
		draining, dead bool
	}
	for _, tc := range []struct {
		name    string
		workers []wk
		noSnap  bool
		want    []string // by rotation cursor; one entry = the same for every cursor
	}{
		{name: "free holder beats free non-holder whatever the cursor",
			workers: []wk{{name: "cold", slots: 1}, {name: "warm", slots: 1, sent: []sentVer{exact}}, {name: "cold2", slots: 1}},
			want:    []string{"warm"}},
		{name: "a delta-reachable base makes a holder",
			workers: []wk{{name: "cold", slots: 1}, {name: "base", slots: 1, sent: []sentVer{base}}},
			want:    []string{"base"}},
		{name: "a version behind the retained bases does not",
			workers: []wk{{name: "stale", slots: 1, sent: []sentVer{stale}}, {name: "base", slots: 1, sent: []sentVer{base}}},
			want:    []string{"base"}},
		{name: "free non-holder beats busy holder",
			workers: []wk{{name: "warm", slots: 2, busy: 2, sent: []sentVer{exact}}, {name: "cold", slots: 1}},
			want:    []string{"cold"}},
		{name: "holders are taken in rotation order",
			workers: []wk{{name: "a", slots: 1, sent: []sentVer{exact}}, {name: "b", slots: 1, sent: []sentVer{base}}},
			want:    []string{"a", "b"}},
		{name: "nothing free queues",
			workers: []wk{{name: "warm", slots: 1, busy: 1, sent: []sentVer{exact}}, {name: "cold", slots: 3, busy: 3}},
			want:    []string{""}},
		{name: "draining and dead workers are never chosen",
			workers: []wk{{name: "drain", slots: 1, sent: []sentVer{exact}, draining: true},
				{name: "dead", slots: 1, sent: []sentVer{exact}, dead: true}, {name: "cold", slots: 1}},
			want: []string{"cold"}},
		{name: "only draining workers free queues",
			workers: []wk{{name: "drain", slots: 1, draining: true}, {name: "busy", slots: 1, busy: 1}},
			want:    []string{""}},
		{name: "a round without a snapshot rotates over free workers",
			workers: []wk{{name: "a", slots: 1, sent: []sentVer{exact}}, {name: "b", slots: 1, busy: 1}, {name: "c", slots: 1}},
			noSnap:  true,
			want:    []string{"a", "c", "c"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ex := NewExecutor(ExecutorOptions{Registry: NewRegistry()})
			for _, k := range tc.workers {
				w := placementWorker(ex, k.name, k.slots, k.busy, k.sent...)
				w.draining, w.dead = k.draining, k.dead
				ex.workers = append(ex.workers, w)
			}
			round := rs
			if tc.noSnap {
				round = &roundState{job: 1}
			}
			for cursor := 0; cursor < 2*len(tc.workers); cursor++ {
				want := tc.want[cursor%len(tc.want)]
				ex.mu.Lock()
				ex.rr = cursor
				w := ex.pickLocked(round)
				ex.mu.Unlock()
				got := ""
				if w != nil {
					got = w.name
				}
				if got != want {
					t.Errorf("cursor %d: picked %q, want %q", cursor, got, want)
				}
			}
		})
	}
}

// queueBacking returns the queue's whole backing array, vacated slots
// included.
func queueBacking(ex *NetExecutor) []*call {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.queue[:cap(ex.queue)]
}

// TestNoOvertakeAndVacatedSlots checks the one case where a free slot does
// not get the new sample: a call is already waiting (its writer has not woken
// yet), so the newcomer queues behind it. It then cancels the newcomer and
// checks the slot it vacated no longer references the call.
func TestNoOvertakeAndVacatedSlots(t *testing.T) {
	ex := NewExecutor(ExecutorOptions{Registry: NewRegistry()})
	free := placementWorker(ex, "free", 1, 0)
	ex.workers = append(ex.workers, free)
	rs := &roundState{id: 1, job: 1}
	earlier := &call{id: 100, r: rs, done: make(chan callOutcome, 1)}
	ex.queue = append(ex.queue, earlier)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := ex.Execute(ctx, rs, 1, 1)
		errc <- err
	}()
	waitFor(t, "the later call to queue", func() bool {
		ex.mu.Lock()
		defer ex.mu.Unlock()
		return len(ex.queue) == 2
	})
	ex.mu.Lock()
	if ex.queue[0] != earlier || len(free.inflight) != 0 {
		t.Errorf("later call overtook the waiting one: head=%v inflight=%d", ex.queue[0] == earlier, len(free.inflight))
	}
	ex.mu.Unlock()

	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("cancelled Execute returned %v", err)
	}
	q := queueBacking(ex)
	if len(q) < 2 || q[0] != earlier {
		t.Fatalf("queue after cancel: %d slots, head kept=%v", len(q), len(q) > 0 && q[0] == earlier)
	}
	for i, c := range q[1:] {
		if c != nil {
			t.Errorf("vacated queue slot %d still references call %d", i+1, c.id)
		}
	}
}

// TestQueueIsFIFO holds a one-slot worker busy, queues three more samples in a
// known order, and checks the worker runs them in that order.
func TestQueueIsFIFO(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	reg := NewRegistry()
	f := newFleet(t, 1, 1, ExecutorOptions{Registry: reg, Dynamic: true}, WorkerOptions{Registry: reg})
	var mu sync.Mutex
	var order []int
	gate := make(chan struct{})
	body := func(sp *core.SP) error {
		mu.Lock()
		order = append(order, sp.Index())
		mu.Unlock()
		<-gate
		return nil
	}
	started := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(order)
	}
	h, err := f.ex.BeginRound(core.RoundTask{Job: 1, Region: "fifo", Seed: 1, N: 4,
		Spec: core.RegionSpec{Name: "fifo", Samples: 4}, Body: body})
	if err != nil {
		t.Fatalf("BeginRound: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := f.ex.Execute(context.Background(), h, g, 1); err != nil {
				t.Errorf("Execute(%d): %v", g, err)
			}
		}(g)
		if g == 0 {
			waitFor(t, "the first sample to start", func() bool { return started() == 1 })
		} else {
			waitFor(t, fmt.Sprintf("sample %d to queue", g), func() bool {
				f.ex.mu.Lock()
				defer f.ex.mu.Unlock()
				return len(f.ex.queue) == g
			})
		}
	}
	for g := 0; g < 4; g++ {
		gate <- struct{}{}
	}
	wg.Wait()
	f.ex.EndRound(h)
	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Errorf("samples ran in order %v, want [0 1 2 3]", order)
	}
	for i, c := range queueBacking(f.ex) {
		if c != nil {
			t.Errorf("drained queue slot %d still references call %d", i, c.id)
		}
	}
}

// TestAffinityOutcome pins what the affinity counters mean: a hit is a claim
// its worker could start without a full snapshot ship, a miss one that cost
// the full encoding — with the delta fallback cause that explains it.
func TestAffinityOutcome(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	const job = 3
	body := func(sp *core.SP) error {
		sp.Commit("k", sp.Load("knob").(float64))
		return nil
	}
	for _, tc := range []struct {
		name string
		// skip is how many versions the store advances unseen by the worker
		// between its first sample and its second.
		skip                   int
		wantHit                bool
		wantBase               int64
		wantDelta, wantFullTwo bool
	}{
		{name: "delta-reachable", skip: 1, wantHit: true, wantDelta: true},
		{name: "stale after eviction", skip: maxSnapVersions + 1, wantBase: 1, wantFullTwo: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			f := newFleet(t, 1, 1, ExecutorOptions{Registry: reg, Dynamic: true, Obs: obs.NewRegistry()},
				WorkerOptions{Registry: reg})
			fm := f.ex.fm
			e := store.NewExposed()
			e.Set("global", "blob", make([]float64, 1024))
			e.Set("global", "knob", 0.0)
			sample := func(want float64) {
				t.Helper()
				h, err := f.ex.BeginRound(core.RoundTask{Job: job, Region: "aff", Seed: 1, N: 1,
					Spec: core.RegionSpec{Name: "aff", Samples: 1}, Body: body, Exposed: e})
				if err != nil {
					t.Fatalf("BeginRound: %v", err)
				}
				defer f.ex.EndRound(h)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				res, err := f.ex.Execute(ctx, h, 0, 1)
				if err != nil || res.Err != "" {
					t.Fatalf("Execute: %v %q", err, res.Err)
				}
				if len(res.Commits) != 1 || res.Commits[0].Value != want {
					t.Fatalf("sample read knob %v, want %v", res.Commits, want)
				}
			}

			sample(0) // cold: the first claim of a job on a worker is a miss
			if h, m := fm.affHits.Value(), fm.affMisses.Value(); h != 0 || m != 1 {
				t.Fatalf("cold claim counted %d hits, %d misses, want 0, 1", h, m)
			}
			full := fm.snapBytesFull.Value()
			if fm.fallbackBase.Value()+fm.fallbackRatio.Value() != 0 {
				t.Fatal("a cold ship is not a delta fallback")
			}

			for i := 1; i <= tc.skip; i++ {
				e.Set("global", "knob", float64(i))
				if _, err := f.ex.snapshotFor(job, e); err != nil {
					t.Fatalf("snapshotFor: %v", err)
				}
			}
			sample(float64(tc.skip))
			hits, misses := fm.affHits.Value(), fm.affMisses.Value()
			if tc.wantHit && (hits != 1 || misses != 1) || !tc.wantHit && (hits != 0 || misses != 2) {
				t.Errorf("second claim left %d hits, %d misses (want hit=%v)", hits, misses, tc.wantHit)
			}
			if got := fm.fallbackBase.Value(); got != tc.wantBase {
				t.Errorf("base fallbacks = %d, want %d", got, tc.wantBase)
			}
			if got := fm.snapBytesDelta.Value() > 0; got != tc.wantDelta {
				t.Errorf("delta shipped = %v, want %v", got, tc.wantDelta)
			}
			if got := fm.snapBytesFull.Value() > full; got != tc.wantFullTwo {
				t.Errorf("second full ship = %v, want %v", got, tc.wantFullTwo)
			}
			f.ex.EndJob(job)
		})
	}
}

// BenchmarkFleetRound times the fleet_delta shape over pipe loopback workers:
// one iteration is one 32-sample round with its own Expose. Beside samples/s
// it reports the mean share of a round's samples its busiest worker took —
// 1/workers when placement uses the whole fleet, 1 when one worker takes
// whole rounds.
func BenchmarkFleetRound(b *testing.B) {
	for _, cfg := range []struct{ workers, slots int }{{2, 1}, {2, 2}} {
		b.Run(fmt.Sprintf("workers=%d,slots=%d", cfg.workers, cfg.slots), func(b *testing.B) {
			reg := NewRegistry()
			f := newFleet(b, cfg.workers, cfg.slots, ExecutorOptions{Registry: reg, Dynamic: true, Obs: obs.NewRegistry()},
				WorkerOptions{Registry: reg})
			split := newClaimSplit(f.ex)
			job := core.New(core.Options{MaxPool: 1, Seed: 1, Executor: f.ex})
			busiest := 0.0
			b.ResetTimer()
			err := warmProgram(job, "bench", b.N, 1, func(round int, res *core.Result) {
				top := uint64(0)
				for _, n := range split.round() {
					top = max(top, n)
				}
				busiest += float64(top) / 32
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)*32/b.Elapsed().Seconds(), "samples/s")
			b.ReportMetric(busiest/float64(b.N), "busiest-share")
		})
	}
}
