package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/leakcheck"
)

// The recorder encodes each journal entry once and splices per-path logs at
// capture. Its oracle is the capture it replaced: the journal kept as two maps
// keyed by (path, seq), the loaded entries overwritten by live ones, scanned
// for the keys below the frontier, sorted, and encoded whole by EncodeBytes.
// The oracle sees what the recorder journals live (journalShadow), not what
// it replays, so replay's bookkeeping is checked too. Every capture the
// recorder makes must be the bytes EncodeBytes writes for the oracle's state
// with the same header (ID, counters) and exposed store.

// journalOracle is a journalShadow holding the journal as maps.
type journalOracle struct {
	mu      sync.Mutex
	events  map[pathSeq]checkpoint.Event
	rounds  map[pathSeq]*checkpoint.Round
	mutate  func(st *checkpoint.State) bool // corrupts a capture before the check; false skips it
	checked int
	errs    []error
}

// newJournalOracle starts from the journal a job resumes with (nil for a
// cold start).
func newJournalOracle(loaded *checkpoint.State) *journalOracle {
	o := &journalOracle{events: map[pathSeq]checkpoint.Event{}, rounds: map[pathSeq]*checkpoint.Round{}}
	if loaded != nil {
		for _, ev := range loaded.Events {
			o.events[pathSeq{ev.Path, ev.Seq}] = ev
		}
		for i := range loaded.Rounds {
			jr := loaded.Rounds[i]
			o.rounds[pathSeq{jr.Path, jr.Seq}] = &jr
		}
	}
	return o
}

// shadow attaches the oracle to a recording job.
func (o *journalOracle) shadow(job *Tuner) *Tuner {
	job.rec.shadow = o
	return job
}

func (o *journalOracle) event(ev checkpoint.Event) {
	o.events[pathSeq{ev.Path, ev.Seq}] = ev
}

func (o *journalOracle) round(jr *checkpoint.Round) {
	c := *jr
	c.Aggregated = slices.Clone(jr.Aggregated)
	c.Groups = slices.Clone(jr.Groups)
	for i := range c.Groups {
		c.Groups[i].Params = slices.Clone(c.Groups[i].Params)
		c.Groups[i].Commits = slices.Clone(c.Groups[i].Commits)
	}
	o.rounds[pathSeq{jr.Path, jr.Seq}] = &c
}

func (o *journalOracle) captured(r *recorder, data []byte) {
	err := o.check(r, data)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.checked++
	if err != nil {
		o.errs = append(o.errs, err)
	}
}

// check compares one capture with the oracle's.
func (o *journalOracle) check(r *recorder, data []byte) error {
	got, err := checkpoint.DecodeBytes(data)
	if err != nil {
		return err
	}
	if o.mutate != nil {
		if !o.mutate(got) {
			return nil
		}
		if data, err = checkpoint.EncodeBytes(got); err != nil {
			return err
		}
	}
	// The header and the exposed store are the capture's own: only the
	// frontier and the journal are the oracle's.
	want := &checkpoint.State{ID: got.ID, Seed: got.Seed, MinSlots: got.MinSlots, Complete: got.Complete,
		Counters: got.Counters, Exposed: got.Exposed, Frontier: map[string]uint64{}}
	for p, pl := range r.paths {
		if pl.count > 0 {
			want.Frontier[p] = pl.count
		}
	}
	for k, ev := range o.events {
		if k.seq < want.Frontier[k.path] {
			want.Events = append(want.Events, ev)
		}
	}
	sort.Slice(want.Events, func(i, j int) bool {
		if want.Events[i].Path != want.Events[j].Path {
			return want.Events[i].Path < want.Events[j].Path
		}
		return want.Events[i].Seq < want.Events[j].Seq
	})
	for k, jr := range o.rounds {
		if k.seq < want.Frontier[k.path] {
			want.Rounds = append(want.Rounds, *jr)
		}
	}
	sort.Slice(want.Rounds, func(i, j int) bool {
		if want.Rounds[i].Path != want.Rounds[j].Path {
			return want.Rounds[i].Path < want.Rounds[j].Path
		}
		return want.Rounds[i].Seq < want.Rounds[j].Seq
	})
	wantData, err := checkpoint.EncodeBytes(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(data, wantData) {
		return fmt.Errorf("capture of %d bytes (%d events, %d rounds) differs from the oracle's %d bytes (%d events, %d rounds)",
			len(data), len(got.Events), len(got.Rounds), len(wantData), len(want.Events), len(want.Rounds))
	}
	return nil
}

// verdict reports how many captures were checked and the first mismatch.
func (o *journalOracle) verdict() (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.checked, errors.Join(o.errs...)
}

// journalScenarios runs every journal scenario with each job's oracle built
// by mk, and returns the oracles it used.
func journalScenarios(t *testing.T, mk func(loaded *checkpoint.State) *journalOracle) map[string]*journalOracle {
	t.Helper()
	oracles := map[string]*journalOracle{}
	shadowed := func(name string, job *Tuner, loaded *checkpoint.State) *Tuner {
		o := mk(loaded)
		oracles[name] = o
		return o.shadow(job)
	}
	every := func(cs checkpoint.Store) *CheckpointPolicy { return &CheckpointPolicy{Store: cs, Every: 1} }

	// Split children, with a checkpoint at every round boundary.
	cs := &captureStore{}
	src := shadowed("split", New(Options{MaxPool: 4, Seed: 42, Checkpoint: every(cs)}), nil)
	want, err := ckptProgram(src)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	snaps := cs.snapshots()

	// A resume taken mid-run, checkpointed again while it replays and after
	// it goes live.
	midCapture := len(snaps) / 2
	mid, err := checkpoint.DecodeBytes(snaps[midCapture])
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewRuntime(RuntimeOptions{MaxPool: 4}).ResumeJob(JobOptions{Name: "resumed", Checkpoint: every(&captureStore{})}, mid)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := ckptProgram(shadowed("resume", job, mid)); err != nil || out != want {
		t.Fatalf("resume: %v, output equal: %v", err, out == want)
	}
	job.Close()

	// A migration: CheckpointState between two rounds, resumed elsewhere.
	var moved *checkpoint.State
	migrate := func(job *Tuner, capture bool) error {
		return job.Run(func(p *P) error {
			for r := 0; r < 4; r++ {
				p.Expose("round", r)
				if _, err := p.Region(RegionSpec{Name: "m", Samples: 3}, func(sp *SP) error {
					sp.Commit("v", float64(sp.Index()))
					return nil
				}); err != nil {
					return err
				}
				if capture && r == 1 {
					var err error
					if moved, err = job.CheckpointState(); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
	if err := migrate(shadowed("migrate", New(Options{MaxPool: 4, Seed: 9, Checkpoint: &CheckpointPolicy{}}), nil), true); err != nil {
		t.Fatalf("migrate source: %v", err)
	}
	job, err = NewRuntime(RuntimeOptions{MaxPool: 4}).ResumeJob(JobOptions{Name: "moved", Seed: 9, Checkpoint: every(&captureStore{})}, moved)
	if err != nil {
		t.Fatal(err)
	}
	if err := migrate(shadowed("migrated", job, moved), false); err != nil {
		t.Fatalf("migrated: %v", err)
	}
	job.Close()

	// A divergence: the resumed program names another region where the
	// journal has one, then captures anyway. It resumes from the first
	// capture (bar the one resumed above) whose root path journals that
	// region: which one that is depends on the split's scheduling.
	var early *checkpoint.State
	for i, data := range snaps {
		s, err := checkpoint.DecodeBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		if i != midCapture && !s.Complete &&
			slices.ContainsFunc(s.Rounds, func(r checkpoint.Round) bool { return r.Region == "root" }) {
			early = s
			break
		}
	}
	if early == nil {
		t.Fatal("no capture of the split run journals its root region")
	}
	job, err = NewRuntime(RuntimeOptions{MaxPool: 4}).ResumeJob(JobOptions{Name: "diverged", Checkpoint: every(nil)}, early)
	if err != nil {
		t.Fatal(err)
	}
	shadowed("diverged", job, early)
	err = job.Run(func(p *P) error {
		p.Expose("bias", 0.5)
		p.Split(func(c *P) error { return nil })
		p.Work(1)
		_, rerr := p.Region(RegionSpec{Name: "other", Samples: 2}, func(sp *SP) error { return nil })
		if !errors.Is(rerr, ErrCheckpointDiverged) {
			return fmt.Errorf("region after a divergence: %v", rerr)
		}
		_, err := job.CheckpointState()
		if err := p.Wait(); err != nil {
			return err
		}
		return err
	})
	if err != nil && !errors.Is(err, ErrCheckpointDiverged) {
		t.Fatalf("diverged: %v", err)
	}
	job.Close()
	return oracles
}

// TestJournalMatchesMapOracle: every checkpoint the recorder captures — split
// children, a resumed run, a migration, a divergence — is the bytes the map
// journal's capture encodes to.
func TestJournalMatchesMapOracle(t *testing.T) {
	defer leakcheck.Check(t)()
	for name, o := range journalScenarios(t, newJournalOracle) {
		n, err := o.verdict()
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if n == 0 {
			t.Errorf("%s: no capture was checked", name)
		}
	}
}

// TestJournalOracleCatchesLostOrder: the oracle rejects a capture that lost
// one journal entry or holds two in the wrong order.
func TestJournalOracleCatchesLostOrder(t *testing.T) {
	defer leakcheck.Check(t)()
	mutations := map[string]func(st *checkpoint.State) bool{
		"dropped event": func(st *checkpoint.State) bool {
			if len(st.Events) == 0 {
				return false
			}
			st.Events = slices.Delete(st.Events, len(st.Events)/2, len(st.Events)/2+1)
			return true
		},
		"swapped rounds": func(st *checkpoint.State) bool {
			if len(st.Rounds) < 2 {
				return false
			}
			st.Rounds[0], st.Rounds[1] = st.Rounds[1], st.Rounds[0]
			return true
		},
	}
	for what, mutate := range mutations {
		oracles := journalScenarios(t, func(loaded *checkpoint.State) *journalOracle {
			o := newJournalOracle(loaded)
			o.mutate = mutate
			return o
		})
		if _, err := oracles["split"].verdict(); err == nil {
			t.Errorf("%s: the oracle accepted every capture", what)
		}
	}
}
