package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/dist"
	"repro/internal/leakcheck"
	"repro/internal/sched"
	"repro/internal/strategy"
)

// saturatedRounds runs back-to-back scored 256-sample regions with a
// trivial body on a pool of the given size and returns everything the rounds
// produced: aggregates (order-insensitive ones, so the dump does not depend
// on who finished first), per-sample parameters and scores. each, if set,
// sees the scheduler counters around every round.
func saturatedRounds(t *testing.T, tuner *Tuner, rounds int, each func(round int, before, after sched.Stats)) string {
	t.Helper()
	const samples = 256
	spec := RegionSpec{
		Name:      "sat",
		Samples:   samples,
		Strategy:  strategy.MCMC(strategy.MCMCOptions{}), // later rounds depend on earlier scores
		Aggregate: map[string]agg.Kind{"y": agg.Max, "z": agg.Min},
		Score:     func(sp *SP) float64 { return sp.MustGet("y").(float64) },
	}
	d := dist.Uniform(0, 1)
	var dump strings.Builder
	run(t, tuner, func(p *P) error {
		for r := 0; r < rounds; r++ {
			before := tuner.Metrics().Scheduler
			res, err := p.Region(spec, func(sp *SP) error {
				a, b := sp.Float("a", d), sp.Float("b", d)
				sp.Commit("y", a+b)
				sp.Commit("z", a*b)
				return nil
			})
			if err != nil {
				return err
			}
			if each != nil {
				each(r, before, tuner.Metrics().Scheduler)
			}
			fmt.Fprintf(&dump, "round %d max=%v min=%v best=%d\n", r, res.Aggregated("y"), res.Aggregated("z"), res.BestIndex())
			for g := 0; g < res.N(); g++ {
				fmt.Fprintf(&dump, " %d %v %v\n", g, res.Params(g), res.Score(g))
			}
		}
		return nil
	})
	return dump.String()
}

// TestSaturatedRoundDoesNotQueuePerSample is the regression gate of the
// slot-holding launch loop (DESIGN §8): in a round with more samples than
// slots the finishing sampling processes renew their admission and run the
// next sample themselves, so the scheduler's wait list sees the round's
// launcher and the tuning process's re-entry — not one request per sample —
// while admissions, the pool bound and every result stay what they were.
//
// Admitted counts every admission the scheduler grants. That includes the
// launcher's when a renewing worker claims the round's last pair in the
// instant the launcher is admitted: the launcher then releases its slot
// unused, and the tuner counts it in idleLaunches.
func TestSaturatedRoundDoesNotQueuePerSample(t *testing.T) {
	defer leakcheck.Check(t)()
	const rounds = 64
	tuner := New(Options{MaxPool: 2, Seed: 20})
	idle := int64(0) // idleLaunches before the round
	got := saturatedRounds(t, tuner, rounds, func(r int, before, after sched.Stats) {
		if d := after.Waited - before.Waited; d > 8 {
			t.Errorf("round %d queued %d requests, want <= 8 (per-sample queuing would be ~254)", r, d)
		}
		// 256 sampling processes, the tuning process's re-entry and any
		// launcher admission released unused.
		d, unused := after.Admitted-before.Admitted, tuner.ctr.idleLaunches.Load()-idle
		idle += unused
		if d != 257+unused {
			t.Errorf("round %d admitted %d, want 257 processes and %d unused launches", r, d, unused)
		}
	})
	t.Logf("%d launcher admissions released unused", idle)
	st := tuner.Metrics().Scheduler
	if st.PeakInUse > 2 {
		t.Errorf("pool of 2 peaked at %d", st.PeakInUse)
	}
	if st.Admitted != 1+rounds*257+idle {
		t.Errorf("Admitted = %d, want %d", st.Admitted, 1+rounds*257+idle)
	}
	if n := tuner.sched.InUse(); n != 0 {
		t.Errorf("InUse = %d after Run", n)
	}
	if want := saturatedRounds(t, New(Options{MaxPool: 256, Seed: 20}), rounds, nil); got != want {
		t.Errorf("pool of 2 and pool of 256 disagree at the same seed:\n%s", firstDiff(got, want))
	}
}

// firstDiff names the first line two dumps differ in.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  got  %s\n  want %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("%d lines against %d", len(al), len(bl))
}

// slotTime samples how many slots each job holds until stop is closed and
// returns the per-job sums.
func slotTime(jobs []*Tuner, stop <-chan struct{}) []float64 {
	sums := make([]float64, len(jobs))
	for {
		select {
		case <-stop:
			return sums
		default:
		}
		for i, j := range jobs {
			sums[i] += float64(j.SlotsInUse())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestRenewKeepsWeightedShares: two jobs with shares 1:3 saturate one
// runtime with 4096-sample regions. Slots are no longer handed back between
// samples, so fairness now rests on Renew declining whenever the other job is
// strictly lighter per share; the slot-time split must still converge to the
// shares, within the tolerance sched.TestWeightedFairConvergence uses.
func TestRenewKeepsWeightedShares(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based property test")
	}
	defer leakcheck.Check(t)()
	const pool = 8
	shares := []int{1, 3}
	rt := NewRuntime(RuntimeOptions{MaxPool: pool})
	jobs := make([]*Tuner, len(shares))
	for i, sh := range shares {
		jobs[i] = rt.NewJob(JobOptions{Name: fmt.Sprintf("s%d", sh), Seed: int64(i), Share: sh})
		defer jobs[i].Close()
	}

	// One region per job, long enough (4096 samples of ~1 ms on at most 6
	// slots) to outlast the window: neither job leaves its region — and so
	// idles at the tuning-process re-entry — while the other is measured.
	// Both tuning processes are admitted before either region starts: a
	// tuning process never displaces a sampling one (Algorithm 1), so a job
	// arriving at a saturated pool would wait out the other's whole region.
	var admitted, inRegion sync.WaitGroup
	admitted.Add(len(jobs))
	inRegion.Add(len(jobs))
	var closing atomic.Bool
	var wg sync.WaitGroup
	for _, job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var entered sync.Once
			err := job.Run(func(p *P) error {
				admitted.Done()
				admitted.Wait()
				_, err := p.Region(RegionSpec{Name: "r", Samples: 4096}, func(sp *SP) error {
					entered.Do(inRegion.Done)
					if !closing.Load() {
						time.Sleep(time.Millisecond)
					}
					return nil
				})
				return err
			})
			if err != nil {
				t.Errorf("Run: %v", err)
			}
		}()
	}
	inRegion.Wait()
	time.Sleep(50 * time.Millisecond) // warm-up, as in the sched test
	stop := make(chan struct{})
	time.AfterFunc(400*time.Millisecond, func() { close(stop) })
	sums := slotTime(jobs, stop)
	closing.Store(true)
	wg.Wait()

	total, sumShares := 0.0, 0.0
	for i, sh := range shares {
		total += sums[i]
		sumShares += float64(sh)
	}
	if total == 0 {
		t.Fatal("no occupancy observed; pool never saturated")
	}
	for i, sh := range shares {
		got, want := sums[i]/total, float64(sh)/sumShares
		if got < want*0.6 || got > want*1.6 {
			t.Errorf("job with share %d held %.1f%% of observed slot-time, want ~%.1f%%", sh, 100*got, 100*want)
		}
	}
	if rt.InUse() != 0 {
		t.Errorf("runtime InUse = %d after both jobs finished", rt.InUse())
	}
}

// TestRenewYieldsToArrivingJob: a job whose first sampling request arrives
// while another job's region holds every slot must not wait for that region
// to end — the incumbent's holders decline their renewals as soon as the
// newcomer is queued, so it starts at most pool further samples first.
func TestRenewYieldsToArrivingJob(t *testing.T) {
	defer leakcheck.Check(t)()
	const pool = 4
	rt := NewRuntime(RuntimeOptions{MaxPool: pool})
	incumbent := rt.NewJob(JobOptions{Name: "incumbent", Seed: 1})
	newcomer := rt.NewJob(JobOptions{Name: "newcomer", Seed: 2})
	defer incumbent.Close()
	defer newcomer.Close()

	var starts atomic.Int64  // incumbent samples started
	var atFirst atomic.Int64 // starts when the newcomer's first sample ran; -1 until then
	atFirst.Store(-1)
	gate := make(chan struct{})     // holds the incumbent's first samples in their bodies
	arrive := make(chan struct{})   // lets the newcomer enter its region
	admitted := make(chan struct{}) // the newcomer's tuning process holds its slot

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		err := newcomer.Run(func(p *P) error {
			close(admitted)
			<-arrive
			_, err := p.Region(RegionSpec{Name: "new", Samples: 8}, func(sp *SP) error {
				atFirst.CompareAndSwap(-1, starts.Load())
				return nil
			})
			return err
		})
		if err != nil {
			t.Errorf("newcomer: %v", err)
		}
	}()
	<-admitted
	go func() {
		defer wg.Done()
		err := incumbent.Run(func(p *P) error {
			_, err := p.Region(RegionSpec{Name: "inc", Samples: 4096}, func(sp *SP) error {
				starts.Add(1)
				<-gate
				if atFirst.Load() < 0 {
					time.Sleep(2 * time.Millisecond) // a sample long enough for the hand-over to land
				}
				return nil
			})
			return err
		})
		if err != nil {
			t.Errorf("incumbent: %v", err)
		}
	}()

	// The newcomer's tuning process holds one slot, so the incumbent's region
	// first fills the other three; when the newcomer enters its region it hands
	// that slot back and the incumbent takes it too. Then both launchers are
	// queued behind a pool the incumbent holds entirely.
	waitFor(t, "the incumbent to fill the pool beside the newcomer's tuning process", func() bool { return starts.Load() == pool-1 })
	close(arrive)
	waitFor(t, "the incumbent to hold every slot with both launchers queued", func() bool {
		return starts.Load() == pool && rt.Load().Queued == 2
	})
	before := starts.Load()
	close(gate)
	wg.Wait()

	if got := atFirst.Load(); got < 0 || got-before > pool {
		t.Errorf("incumbent started %d further samples before the newcomer's first ran, want <= %d", got-before, pool)
	}
	if rt.InUse() != 0 {
		t.Errorf("runtime InUse = %d after both jobs finished", rt.InUse())
	}
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
