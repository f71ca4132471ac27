package core

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dist"
)

// Property: for any sample count and pruning mask, the aggregation store
// holds exactly the unpruned samples' commits, at the right indices, and
// Result's pruned flags match the mask — rule [AGGR-S] of Fig. 8 (DESIGN.md
// §2).
func TestPropertyRegionCommitsMatchMask(t *testing.T) {
	f := func(nRaw uint8, mask uint16, seed int64) bool {
		n := int(nRaw%12) + 1
		tuner := New(Options{MaxPool: 8, Seed: seed})
		ok := true
		err := tuner.Run(func(p *P) error {
			res, err := p.Region(RegionSpec{Name: "prop", Samples: n}, func(sp *SP) error {
				sp.Check(mask>>(sp.Index()%16)&1 == 0)
				sp.Commit("v", float64(sp.Index()))
				return nil
			})
			if err != nil {
				return err
			}
			want := 0
			for i := 0; i < n; i++ {
				pruned := mask>>(i%16)&1 == 1
				if res.Pruned(i) != pruned {
					ok = false
				}
				if !pruned {
					want++
					if v, has := res.Value("v", i); !has || v.(float64) != float64(i) {
						ok = false
					}
				} else if _, has := res.Value("v", i); has {
					ok = false
				}
			}
			if res.Len("v") != want {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: pruned processes never count toward a @sync barrier, whenever
// they are pruned. The barrier callback runs once and sees exactly the
// survivors, or never runs when every process was pruned, and only the
// survivors commit afterwards — rules [CHECK] and [SYNC-T] of Fig. 8.
func TestPropertySyncCountsSurvivors(t *testing.T) {
	f := func(nRaw uint8, mask uint16, seed int64) bool {
		n := int(nRaw%12) + 1
		want := 0
		for i := 0; i < n; i++ {
			if mask>>(i%16)&1 == 0 {
				want++
			}
		}
		var mu sync.Mutex
		var counts []int
		err := New(Options{MaxPool: 4, Seed: seed}).Run(func(p *P) error {
			res, err := p.Region(RegionSpec{Name: "prop", Samples: n}, func(sp *SP) error {
				sp.Check(mask>>(sp.Index()%16)&1 == 0)
				sp.Sync(func(v *SyncView) {
					mu.Lock()
					counts = append(counts, v.Count())
					mu.Unlock()
				})
				sp.Commit("v", 1.0)
				return nil
			})
			if err == nil && res.Len("v") != want {
				err = fmt.Errorf("%d commits, want %d", res.Len("v"), want)
			}
			return err
		})
		if want == 0 {
			return err == nil && len(counts) == 0
		}
		return err == nil && len(counts) == 1 && counts[0] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: under cross-validation, every fold of every group runs exactly
// once and all folds of a group share identical parameter draws.
func TestPropertyCVFoldsCompleteAndShared(t *testing.T) {
	f := func(nRaw, kRaw uint8, seed int64) bool {
		n := int(nRaw%5) + 1
		k := int(kRaw%3) + 2
		tuner := New(Options{MaxPool: 16, Seed: seed})
		type draw struct {
			group, fold int
			x           float64
		}
		var mu sync.Mutex
		var draws []draw
		err := tuner.Run(func(p *P) error {
			_, err := p.Region(RegionSpec{
				Name: "cvprop", Samples: n, CV: k, Minimize: true,
				Score: func(sp *SP) float64 { return 0 },
			}, func(sp *SP) error {
				x := sp.Float("x", dist.Uniform(0, 1))
				fold, _ := sp.Fold()
				mu.Lock()
				draws = append(draws, draw{sp.Index(), fold, x})
				mu.Unlock()
				return nil
			})
			return err
		})
		if err != nil {
			return false
		}
		if len(draws) != n*k {
			return false
		}
		seen := map[string]bool{}
		groupX := map[int]float64{}
		for _, d := range draws {
			key := fmt.Sprintf("%d/%d", d.group, d.fold)
			if seen[key] {
				return false // fold ran twice
			}
			seen[key] = true
			if x, ok := groupX[d.group]; ok {
				if x != d.x {
					return false // folds of one SVG drew different values
				}
			} else {
				groupX[d.group] = d.x
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: total work equals the sum of per-sample work plus serial work,
// regardless of pruning (pruned samples still account the work they did
// before the check).
func TestPropertyWorkAccounting(t *testing.T) {
	f := func(nRaw uint8, serialRaw, perRaw uint8) bool {
		n := int(nRaw%8) + 1
		serial := float64(serialRaw%50) + 1
		per := float64(perRaw%20) + 1
		tuner := New(Options{MaxPool: 8, Seed: 1})
		err := tuner.Run(func(p *P) error {
			p.Work(serial)
			_, err := p.Region(RegionSpec{Name: "w", Samples: n}, func(sp *SP) error {
				sp.Work(per)
				return nil
			})
			return err
		})
		if err != nil {
			return false
		}
		want := serial + float64(n)*per
		got := tuner.WorkUsed()
		return got > want-0.1 && got < want+0.1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
