package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/strategy"
)

// TestChunkedRoundSyncHandsBack: a bare round claims its pairs in chunks, and
// a body that reaches Sync must not leave the unstarted rest of its worker's
// chunk parked behind it — the barrier would wait for pairs nobody runs. One
// region name runs rounds without Sync (so they chunk), then rounds whose
// bodies all Sync, on pools from 1 to 4: every barrier must see the whole
// round, and no slot may stay held.
func TestChunkedRoundSyncHandsBack(t *testing.T) {
	const samples, rounds = 64, 3
	watchdog := time.After(20 * time.Second)
	for pool := 1; pool <= 4; pool++ {
		t.Run(fmt.Sprintf("pool%d", pool), func(t *testing.T) {
			tuner := New(Options{MaxPool: pool, Seed: int64(pool)})
			var counts []int
			var calls atomic.Int64
			done := make(chan error, 1)
			go func() {
				done <- tuner.Run(func(p *P) error {
					for r := 0; r < 2*rounds; r++ {
						syncs := r >= rounds
						res, err := p.Region(RegionSpec{Name: "handback", Samples: samples}, func(sp *SP) error {
							x := sp.Float("x", dist.Uniform(0, 1))
							if syncs {
								sp.Sync(func(v *SyncView) {
									calls.Add(1)
									counts = append(counts, v.Count())
								})
							}
							sp.Commit("v", x)
							return nil
						})
						if err != nil {
							return err
						}
						if res.N() != samples || res.Len("v") != samples {
							return fmt.Errorf("round %d: N() = %d, %d committed, want %d", r, res.N(), res.Len("v"), samples)
						}
					}
					return nil
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-watchdog:
				t.Fatal("the Sync rounds did not finish within 20 s: a chunk is parked behind a waiting body")
			}
			if calls.Load() != rounds {
				t.Errorf("barrier callback ran %d times, want %d", calls.Load(), rounds)
			}
			for i, c := range counts {
				if c != samples {
					t.Errorf("barrier %d saw %d processes, want %d", i, c, samples)
				}
			}
			if n := tuner.sched.InUse(); n != 0 {
				t.Errorf("InUse = %d after Run", n)
			}
		})
	}
}

// claimState builds the claim side of a round of n groups of k folds on a
// fresh tuner, the way runRound sets it up.
func claimState(t *testing.T, opts Options, n, k int, ctx context.Context) *regionState {
	t.Helper()
	tuner := New(opts)
	t.Cleanup(tuner.Close)
	rs := &regionState{
		t:       tuner,
		spec:    RegionSpec{Strategy: strategy.Rand()},
		n:       n,
		k:       k,
		total:   n * k,
		groups:  make([]group, n),
		ctx:     ctx,
		timeout: opts.Fault.SampleTimeout,
	}
	if k > 1 {
		rs.shared = make([]*svgShared, n)
	}
	rs.watched = ctx.Done() != nil || rs.timeout > 0
	rs.barrier = newBarrier(rs)
	return rs
}

// claimSizes claims a round's pairs the way its launch loop does until none
// is left and returns the size of each claim.
func claimSizes(t *testing.T, rs *regionState) []int {
	t.Helper()
	var sizes []int
	for next := 0; ; {
		rs.mu.Lock()
		i, c := rs.claimLocked(false)
		rs.mu.Unlock()
		if c == 0 {
			break
		}
		if i != next {
			t.Fatalf("claim %d starts at pair %d, want %d", len(sizes), i, next)
		}
		next += c
		sizes = append(sizes, c)
	}
	return sizes
}

// TestClaimChunkSizes pins which rounds claim their pairs in chunks: a bare
// round, in guided chunks that shrink as it drains, and every round where a
// claimed pair could be cut, abandoned or parked before it starts, or where
// the claim decides something per pair, one pair a claim.
func TestClaimChunkSizes(t *testing.T) {
	bg := context.Background()
	width2 := Options{MaxPool: 2, Seed: 1}

	sizes := claimSizes(t, claimState(t, width2, 256, 1, bg))
	sum := 0
	for j, c := range sizes {
		sum += c
		if c > chunkCap || (j > 0 && c > sizes[j-1]) {
			t.Fatalf("bare 256-pair round at width 2 claimed %v: want non-increasing sizes <= %d", sizes, chunkCap)
		}
	}
	if sum != 256 || len(sizes) > 40 || sizes[0] != chunkCap {
		t.Errorf("bare 256-pair round at width 2 claimed %v (%d pairs in %d claims), want 256 in <= 40 starting at %d",
			sizes, sum, len(sizes), chunkCap)
	}

	cancellable, cancel := context.WithCancel(bg)
	defer cancel()
	for _, row := range []struct {
		name string
		opts Options
		n, k int
		ctx  context.Context
		set  func(rs *regionState)
	}{
		{"8-pair round", width2, 8, 1, bg, nil},
		{"cross-validation", width2, 64, 3, bg, nil},
		{"work budget", Options{MaxPool: 2, Seed: 1, Budget: 1e12}, 256, 1, bg, nil},
		{"sample timeout", Options{MaxPool: 2, Seed: 1, Fault: FaultPolicy{SampleTimeout: time.Minute}}, 256, 1, bg, nil},
		{"cancellable context", width2, 256, 1, cancellable, nil},
		{"executor handle", width2, 256, 1, bg, func(rs *regionState) { rs.execH = struct{}{} }},
		{"after a Sync arrival", width2, 256, 1, bg, func(rs *regionState) { rs.handBack(&spSlot{}) }},
	} {
		rs := claimState(t, row.opts, row.n, row.k, row.ctx)
		if row.set != nil {
			row.set(rs)
		}
		sizes := claimSizes(t, rs)
		if len(sizes) != row.n*row.k {
			t.Errorf("%s: %d pairs claimed in %d claims %v, want one pair a claim", row.name, row.n*row.k, len(sizes), sizes)
		}
	}
}
