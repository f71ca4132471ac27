package core

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/strategy"
)

// Checkpoint/resume errors. Resume validation failures wrap the typed
// sentinels so callers can distinguish "try another runtime" (capacity)
// from "this checkpoint is spent" (completed, duplicate).
var (
	// ErrNotRecording reports a Checkpoint call on a job created without
	// Options.Checkpoint or Options.Resume.
	ErrNotRecording = errors.New("core: job is not recording checkpoints")
	// ErrCheckpointDiverged reports a resumed run whose re-execution did
	// not reproduce the journaled history — the tuning program is not
	// deterministic in its seed (wall-clock branches, unseeded randomness,
	// iteration over Go maps feeding tuning decisions).
	ErrCheckpointDiverged = errors.New("core: resumed run diverged from its checkpoint journal")
	// ErrResumeCapacity reports a resume into a Runtime whose scheduler
	// capacity is below the checkpoint's MinSlots floor.
	ErrResumeCapacity = errors.New("core: runtime capacity below checkpoint requirement")
	// ErrResumeCompleted reports a resume of a final (Complete) checkpoint.
	ErrResumeCompleted = errors.New("core: checkpoint marks a completed job")
	// ErrResumeDuplicate reports a second resume of the same checkpoint
	// capture in this process.
	ErrResumeDuplicate = errors.New("core: checkpoint already resumed")
)

// CheckpointPolicy configures periodic auto-checkpointing of a job. A job
// with a policy (or a resume state) records its round journal; every Every
// completed rounds the runtime quiesces the job at a round boundary and
// writes a checkpoint to Store under Label.
type CheckpointPolicy struct {
	// Store receives the checkpoints. Nil records the journal without
	// auto-saving (Job.Checkpoint still works).
	Store checkpoint.Store
	// Every is the auto-checkpoint period in completed rounds. Zero means 1.
	Every int
	// Label keys the checkpoint in Store. Empty means "job".
	Label string
	// MinSlots is the scheduler-capacity floor recorded in the checkpoint;
	// a Runtime with less capacity refuses to resume it. Zero means 2.
	MinSlots int
}

// SnapshotPrimer is implemented by executors that cache content-hashed
// exposed-store snapshots on remote workers. A resumed job primes the
// fleet with its restored store so the first rounds after a
// migration hit a warm cache instead of re-shipping.
type SnapshotPrimer interface {
	PrimeSnapshot(job uint64, e *store.Exposed) error
}

// resumedIDs guards against double-resume of one checkpoint capture:
// two live jobs replaying the same history would race their side effects
// (stores, metrics, auto-checkpoint labels).
var (
	resumedMu sync.Mutex
	resumedID = make(map[[16]byte]bool)
)

// pathSeq keys the loaded journal: one P path's seq-th event.
type pathSeq struct {
	path string
	seq  uint64
}

// pathLog is one P path's part of the recorder: its event counter this life,
// the replay frontier it resumed with, and its journal below the counter,
// each entry encoded once, in seq order, when the path reaches it.
type pathLog struct {
	count    uint64
	frontier uint64
	journal  checkpoint.Journal
}

// recorder is a job's checkpoint state: per-path event counters, replay
// frontiers and encoded journals, and the loaded journal replay reads. All
// mutable fields are touched only inside gate callbacks, which the gate mutex
// serializes, so the recorder needs no lock of its own.
type recorder struct {
	t      *Tuner
	policy CheckpointPolicy
	gate   sched.Quiesce

	runOnce atomic.Bool // a recorded job supports a single Run
	writing atomic.Bool // one auto-checkpoint writer at a time
	// runCtx is the Run's context. Once it ends, a round it cut short is
	// journaled like any other, so no further auto-checkpoint is written.
	runCtx context.Context

	// Gate-serialized state.
	paths map[string]*pathLog
	// The journal a resumed job loaded, which replay reads; an entry leaves
	// it for its path's journal when replay reaches it.
	events      map[pathSeq]checkpoint.Event
	rounds      map[pathSeq]*checkpoint.Round
	roundsSince int           // live rounds since the last auto-checkpoint
	due         bool          // an auto-checkpoint is owed
	diverged    error         // sticky ErrCheckpointDiverged detail
	journalErr  error         // sticky: a journal entry with no encoding fails every capture
	shadow      journalShadow // nil outside tests

	saveMu  sync.Mutex
	saveErr error // last auto-checkpoint write failure (soft)
}

// newRecorder attaches recording to t, seeding the journal and the tuner's
// restored state from st when resuming. Callers have already validated st.
func newRecorder(t *Tuner, pol *CheckpointPolicy, st *checkpoint.State) *recorder {
	r := &recorder{
		t:      t,
		paths:  make(map[string]*pathLog),
		events: make(map[pathSeq]checkpoint.Event),
		rounds: make(map[pathSeq]*checkpoint.Round),
	}
	if pol != nil {
		r.policy = *pol
	}
	if r.policy.Every <= 0 {
		r.policy.Every = 1
	}
	if r.policy.Label == "" {
		r.policy.Label = "job"
	}
	if r.policy.MinSlots <= 0 {
		r.policy.MinSlots = 2
	}
	if st == nil {
		return r
	}
	for p, c := range st.Frontier {
		r.path(p).frontier = c
	}
	for _, ev := range st.Events {
		r.events[pathSeq{ev.Path, ev.Seq}] = ev
	}
	for i := range st.Rounds {
		jr := st.Rounds[i]
		r.rounds[pathSeq{jr.Path, jr.Seq}] = &jr
	}
	c := st.Counters
	t.ctr.regions.Store(c.Regions)
	t.ctr.rounds.Store(c.Rounds)
	t.ctr.samples.Store(c.Samples)
	t.ctr.pruned.Store(c.Pruned)
	t.ctr.panics.Store(c.Panics)
	t.ctr.timeouts.Store(c.Timeouts)
	t.ctr.retried.Store(c.Retried)
	t.ctr.degraded.Store(c.Degraded)
	t.ctr.splits.Store(c.Splits)
	t.ctr.peakRetained.Store(c.PeakRetained)
	t.ctr.workSer.Store(c.WorkSerialMilli)
	t.ctr.workPar.Store(c.WorkParaMilli)
	atomic.StoreInt64(&t.workMilli, c.WorkMilli)
	kvs := make([]store.ExposedKV, len(st.Exposed))
	for i, en := range st.Exposed {
		kvs[i] = store.ExposedKV{Scope: en.Scope, Name: en.Name, V: en.V}
	}
	t.exposed.SetEntries(kvs)
	t.obsv.noteResume()
	if pr, ok := t.opts.Executor.(SnapshotPrimer); ok {
		// Best effort: a cold worker cache only costs one snapshot re-ship.
		_ = pr.PrimeSnapshot(t.jobID, t.exposed)
	}
	return r
}

// journalShadow sees, under the gate mutex, every entry a recorder journals
// live and every checkpoint it captures. Only tests set one: the journal's
// byte oracle keeps the journal as maps beside the encoded logs.
type journalShadow interface {
	event(ev checkpoint.Event)
	round(jr *checkpoint.Round)
	captured(r *recorder, data []byte)
}

// path returns the recorder state of one P path.
func (r *recorder) path(name string) *pathLog {
	pl := r.paths[name]
	if pl == nil {
		pl = &pathLog{}
		r.paths[name] = pl
	}
	return pl
}

// reach moves the loaded journal's entries at (path, seq), which replay has
// just reached, into the path's journal: a capture keeps every entry below
// the counter, whether this life recorded it or loaded it.
func (r *recorder) reach(pl *pathLog, path string, seq uint64) {
	k := pathSeq{path, seq}
	if ev, ok := r.events[k]; ok {
		pl.journal.AddEvent(&ev)
		delete(r.events, k)
	}
	if jr, ok := r.rounds[k]; ok {
		r.addRound(pl, jr)
		delete(r.rounds, k)
	}
}

// addRound appends a round to a path's journal, or remembers why it has no
// encoding: a round missing from the journal would make every later
// checkpoint unresumable, so every later capture fails instead.
func (r *recorder) addRound(pl *pathLog, jr *checkpoint.Round) {
	if err := pl.journal.AddRound(jr); err != nil && r.journalErr == nil {
		r.journalErr = err
	}
}

// setDiverged records the first divergence; later rounds fail fast on it.
func (r *recorder) setDiverged(detail string) {
	if r.diverged == nil {
		r.diverged = fmt.Errorf("%w: %s", ErrCheckpointDiverged, detail)
	}
}

// divergence reports the sticky divergence error, if any.
func (r *recorder) divergence() error {
	var err error
	r.gate.Mutate(func() { err = r.diverged })
	return err
}

// noteEvent journals (or, below the frontier, replays) one non-round event
// on p's path. It reports whether the event's side effects must be
// suppressed: a replayed event already contributed to the restored
// counters, metrics, and trace before the checkpoint was taken.
func (r *recorder) noteEvent(p *P, kind uint8, arg uint64, name string) (suppress bool) {
	r.gate.Mutate(func() {
		pl := r.path(p.path)
		seq := pl.count
		pl.count++
		if seq < pl.frontier {
			suppress = true
			want, ok := r.events[pathSeq{p.path, seq}]
			if !ok || want.Kind != kind || want.Name != name {
				r.setDiverged(fmt.Sprintf("path %s event %d: replay produced kind %d name %q, journal has kind %d name %q (missing=%v)",
					p.path, seq, kind, name, want.Kind, want.Name, !ok))
			}
			r.reach(pl, p.path, seq)
			return
		}
		ev := checkpoint.Event{Path: p.path, Seq: seq, Kind: kind, Arg: arg, Name: name}
		pl.journal.AddEvent(&ev)
		if r.shadow != nil {
			r.shadow.event(ev)
		}
	})
	return suppress
}

// enterRound admits one round on p's path: below the frontier it returns
// the journaled round for replay (the gate never registers it in flight);
// at or past the frontier it registers a live round, later retired by
// exitRound. A journal mismatch or a prior divergence fails the round.
func (r *recorder) enterRound(p *P, region string, round, n, k int) (rep *checkpoint.Round, seq uint64, err error) {
	r.gate.EnterRound(func() (live bool) {
		if r.diverged != nil {
			err = r.diverged
			return false
		}
		pl := r.path(p.path)
		seq = pl.count
		pl.count++
		if seq < pl.frontier {
			jr, ok := r.rounds[pathSeq{p.path, seq}]
			r.reach(pl, p.path, seq)
			if !ok || jr.Region != region || jr.Round != round || jr.N != n || jr.K != k {
				r.setDiverged(fmt.Sprintf("path %s event %d: replay reached round %s/%d n=%d k=%d, journal disagrees (missing=%v)",
					p.path, seq, region, round, n, k, !ok))
				err = r.diverged
				return false
			}
			rep = jr
			return false
		}
		return true
	})
	return rep, seq, err
}

// exitRound retires a live round: it journals the round's complete outcome
// under (path, seq) and advances the auto-checkpoint clock. The entry is
// built in a pooled scratch round before the gate is taken; the journal
// keeps only its encoding.
func (r *recorder) exitRound(p *P, seq uint64, round int, fbHash uint64, rs *regionState, res *Result) {
	jr := journalRounds.Get().(*checkpoint.Round)
	buildJournalRound(jr, p.path, seq, round, fbHash, rs, res)
	r.gate.ExitRound(func() {
		r.addRound(r.path(p.path), jr)
		if r.shadow != nil {
			r.shadow.round(jr)
		}
		r.roundsSince++
		if r.policy.Store != nil && r.roundsSince >= r.policy.Every {
			r.due = true
		}
	})
	resetJournalRound(jr)
	journalRounds.Put(jr)
}

// journalRounds recycles the scratch rounds exitRound encodes from.
var journalRounds = sync.Pool{New: func() any { return new(checkpoint.Round) }}

// buildJournalRound fills jr, reusing its slices, with one finished round's
// journal entry; fbHash is the feedbackHash of the view the round launched
// with. Aggregates are recorded as final folded values, never refolded at
// replay: AVG float sums and DEDUP order fold in completion order, so
// re-aggregation would not be deterministic. Each group's commits are written
// in name order.
func buildJournalRound(jr *checkpoint.Round, path string, seq uint64, round int, fbHash uint64, rs *regionState, res *Result) {
	jr.Path, jr.Seq, jr.Region, jr.Round = path, seq, rs.spec.Name, round
	jr.N, jr.K, jr.FBHash = rs.n, rs.k, fbHash
	names := make([]string, 0, 8)
	for x := range res.aggregated {
		names = append(names, x)
	}
	sort.Strings(names)
	for _, x := range names {
		jr.Aggregated = append(jr.Aggregated, checkpoint.KV{Name: x, V: res.aggregated[x]})
	}
	vars := res.varIDs()
	jr.Groups = slices.Grow(jr.Groups[:0], rs.n)[:rs.n]
	for g := range res.groups {
		gr, jg := &res.groups[g], &jr.Groups[g]
		if gr.haveParams {
			jg.HaveParams = true
			s := gr.params
			for _, kv := range res.arena[s.off : s.off+s.n] {
				jg.Params = append(jg.Params, checkpoint.Param{Name: rs.syms.Name(kv.id), V: kv.v})
			}
		}
		jg.ScoreSum = gr.scoreSum
		jg.ScoreCnt = int(gr.scoreCnt)
		jg.Pruned = gr.pruned
		jg.ErrKind, jg.ErrMsg = encodeGroupErr(gr.err)
		for _, id := range vars {
			if v, ok := res.get(id, g); ok {
				jg.Commits = append(jg.Commits, checkpoint.KV{Name: rs.syms.Name(id), V: v})
			}
		}
	}
}

// resetJournalRound empties a scratch round for reuse, keeping its slices'
// capacity and dropping every value it referenced.
func resetJournalRound(jr *checkpoint.Round) {
	clear(jr.Aggregated)
	for i := range jr.Groups {
		g := &jr.Groups[i]
		clear(g.Params)
		clear(g.Commits)
		*g = checkpoint.Group{Params: g.Params[:0], Commits: g.Commits[:0]}
	}
	*jr = checkpoint.Round{Aggregated: jr.Aggregated[:0], Groups: jr.Groups[:0]}
}

// encodeGroupErr flattens a group error for the journal, keeping the
// distinguished timeout/budget classification Result.TimedOut depends on.
func encodeGroupErr(err error) (uint8, string) {
	switch {
	case err == nil:
		return checkpoint.ErrNone, ""
	case errors.Is(err, ErrSampleTimeout):
		return checkpoint.ErrTimeout, err.Error()
	case errors.Is(err, ErrRegionBudget):
		return checkpoint.ErrBudget, err.Error()
	default:
		return checkpoint.ErrGeneric, err.Error()
	}
}

// replayErr reconstructs a journaled group error: the original message,
// plus an Is hook so errors.Is keeps classifying timeouts and budget cuts.
type replayErr struct {
	msg string
	is  error
}

func (e *replayErr) Error() string { return e.msg }

func (e *replayErr) Is(target error) bool { return e.is != nil && target == e.is }

// decodeGroupErr rebuilds a journaled group error.
func decodeGroupErr(kind uint8, msg string) error {
	switch kind {
	case checkpoint.ErrNone:
		return nil
	case checkpoint.ErrTimeout:
		return &replayErr{msg: msg, is: ErrSampleTimeout}
	case checkpoint.ErrBudget:
		return &replayErr{msg: msg, is: ErrRegionBudget}
	default:
		return &replayErr{msg: msg}
	}
}

// feedbackHash fingerprints the feedback a round launched with: replay
// recomputes the feedback through re-executed Split/Wait merges, and a
// hash mismatch is the earliest reliable divergence signal.
func feedbackHash(fb []strategy.Feedback) uint64 {
	h := fnv.New64a()
	var b [8]byte
	names := make([]string, 0, 8)
	for _, f := range fb {
		names = names[:0]
		for n := range f.Params {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			h.Write([]byte(n))
			binary.BigEndian.PutUint64(b[:], math.Float64bits(f.Params[n]))
			h.Write(b[:])
		}
		binary.BigEndian.PutUint64(b[:], math.Float64bits(f.Score))
		h.Write(b[:])
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// replayRound rebuilds a journaled round's Result and feedback without
// launching any sampling process. The reconstructed Result is
// observationally identical to the live one: same store contents, scores
// (identical division), params through the Result API, aggregates, and
// error classification — so the tuning program's decisions downstream of
// the round replay bit for bit.
func (r *recorder) replayRound(p *P, spec *RegionSpec, jr *checkpoint.Round) (*Result, error) {
	t := r.t
	fb := p.feedbackFor(spec.Name, spec.Minimize)
	if h := feedbackHash(fb); h != jr.FBHash {
		var derr error
		r.gate.Mutate(func() {
			r.setDiverged(fmt.Sprintf("path %s round %s/%d: replayed feedback hash %016x != journaled %016x",
				p.path, jr.Region, jr.Round, h, jr.FBHash))
			derr = r.diverged
		})
		return nil, derr
	}
	shape := t.shape(spec.Name)
	n := jr.N
	res := &Result{
		syms:     shape.syms,
		groups:   make([]group, n),
		minimize: spec.Minimize,
	}
	if len(jr.Aggregated) > 0 {
		res.aggregated = make(map[string]any, len(jr.Aggregated))
	}
	for _, kv := range jr.Aggregated {
		res.aggregated[kv.Name] = kv.V
	}
	failed, timeouts := 0, 0
	for g := 0; g < n && g < len(jr.Groups); g++ {
		jg, gr := &jr.Groups[g], &res.groups[g]
		if jg.HaveParams {
			gr.haveParams = true
			off := len(res.arena)
			for _, pp := range jg.Params {
				res.arena = append(res.arena, pkv{id: shape.syms.Intern(pp.Name), v: pp.V})
			}
			gr.params = span{int32(off), int32(len(res.arena) - off)}
		}
		gr.scoreSum, gr.scoreCnt = jg.ScoreSum, int32(jg.ScoreCnt)
		gr.pruned = jg.Pruned
		gr.err = decodeGroupErr(jg.ErrKind, jg.ErrMsg)
		if gr.err != nil {
			failed++
			if jg.ErrKind == checkpoint.ErrTimeout || jg.ErrKind == checkpoint.ErrBudget {
				timeouts++
			}
		}
		off := len(res.commits)
		for _, kv := range jg.Commits {
			res.commits = append(res.commits, commitVal{id: shape.syms.Intern(kv.Name), store: true, v: kv.V})
		}
		gr.commits = span{int32(off), int32(len(res.commits) - off)}
	}
	res.degraded = failed > 0
	res.timeouts = timeouts

	// As in finish(): the owning P's causal view advances exactly as it did
	// in the recorded life.
	p.addFeedback(spec.Name, spec.Minimize, n, res.Score, res.Params)

	t.obsv.noteReplayedRound()

	if failed == n && n > 0 && !t.opts.Fault.DegradeEmpty {
		return res, res.allFailed(spec.Name)
	}
	return res, nil
}

// maybeAuto writes an owed auto-checkpoint. It runs on the round-exit
// thread with no scheduler slot held; the CAS keeps concurrent round exits
// from stacking checkpoint writers. Write failures are soft — the run
// continues, the failure is remembered and counted — because a missed
// checkpoint only widens the replay window, while aborting the job would
// turn a full disk into lost work.
func (r *recorder) maybeAuto() {
	due := false
	r.gate.Mutate(func() { due = r.due })
	if !due || !r.writing.CompareAndSwap(false, true) {
		return
	}
	defer r.writing.Store(false)
	if err := r.writeCheckpoint(false); err != nil {
		r.saveMu.Lock()
		r.saveErr = err
		r.saveMu.Unlock()
		r.t.obsv.noteCheckpointError()
	}
}

// SaveErr reports the most recent auto-checkpoint write failure, if any.
func (t *Tuner) SaveErr() error {
	if t.rec == nil {
		return nil
	}
	t.rec.saveMu.Lock()
	defer t.rec.saveMu.Unlock()
	return t.rec.saveErr
}

// writeCheckpoint quiesces the job, captures its state, and saves it to
// the policy store. Once the Run's context has ended it writes no
// auto-checkpoint: the store keeps the last one whose rounds all ran whole,
// and a resume re-runs the cut round live.
func (r *recorder) writeCheckpoint(complete bool) error {
	t0 := time.Now()
	var data []byte
	var err error
	r.gate.Run(func() {
		// Under the gate: every round the context cut exits after it ended.
		if !complete && r.runCtx.Err() != nil {
			return
		}
		data, err = r.captureLocked(complete)
	})
	if err != nil || data == nil {
		return err
	}
	if err := r.policy.Store.Save(r.policy.Label, data); err != nil {
		return err
	}
	r.t.obsv.noteCheckpoint(len(data), time.Since(t0))
	return nil
}

// captureLocked encodes the job's round-boundary state. It runs under
// gate.Run: no round is in flight and no event can be journaled
// concurrently, so the counters, journal, and exposed store are mutually
// consistent. Each path's journal holds exactly its entries below its
// counter, the captured frontier, in seq order, so the capture splices the
// journals in sorted path order and encodes nothing but the header and the
// exposed store. Loaded entries replay has not reached yet stay out: they
// would be re-recorded identically.
func (r *recorder) captureLocked(complete bool) ([]byte, error) {
	t := r.t
	st := &checkpoint.State{
		Seed:     t.opts.Seed,
		MinSlots: r.policy.MinSlots,
		Complete: complete,
		Counters: checkpoint.Counters{
			Regions:         t.ctr.regions.Load(),
			Rounds:          t.ctr.rounds.Load(),
			Samples:         t.ctr.samples.Load(),
			Pruned:          t.ctr.pruned.Load(),
			Panics:          t.ctr.panics.Load(),
			Timeouts:        t.ctr.timeouts.Load(),
			Retried:         t.ctr.retried.Load(),
			Degraded:        t.ctr.degraded.Load(),
			Splits:          t.ctr.splits.Load(),
			PeakRetained:    t.ctr.peakRetained.Load(),
			WorkMilli:       atomic.LoadInt64(&t.workMilli),
			WorkSerialMilli: t.ctr.workSer.Load(),
			WorkParaMilli:   t.ctr.workPar.Load(),
		},
		Frontier: make(map[string]uint64, len(r.paths)),
	}
	if _, err := crand.Read(st.ID[:]); err != nil {
		panic("core: checkpoint id: " + err.Error())
	}
	names := make([]string, 0, len(r.paths))
	for name, pl := range r.paths {
		if pl.count > 0 {
			names = append(names, name)
			st.Frontier[name] = pl.count
		}
	}
	sort.Strings(names)
	js := make([]*checkpoint.Journal, len(names))
	for i, name := range names {
		js[i] = &r.paths[name].journal
	}
	for _, kv := range t.exposed.Entries() {
		st.Exposed = append(st.Exposed, checkpoint.Entry{Scope: kv.Scope, Name: kv.Name, V: kv.V})
	}
	r.due = false
	r.roundsSince = 0
	if r.journalErr != nil {
		return nil, r.journalErr
	}
	data, err := checkpoint.EncodeJournal(st, js)
	if err == nil && r.shadow != nil {
		r.shadow.captured(r, data)
	}
	return data, err
}

// CheckpointState quiesces the job at its next round boundary and returns
// its serializable state: the decoded bytes a checkpoint written at that
// boundary would hold. It fails with ErrNotRecording unless the job was
// created with a CheckpointPolicy or a resume state.
func (t *Tuner) CheckpointState() (*checkpoint.State, error) {
	data, err := t.checkpointBytes()
	if err != nil {
		return nil, err
	}
	return checkpoint.DecodeBytes(data)
}

// checkpointBytes quiesces the job at its next round boundary and encodes
// its state.
func (t *Tuner) checkpointBytes() ([]byte, error) {
	if t.rec == nil {
		return nil, ErrNotRecording
	}
	var data []byte
	var err error
	t.rec.gate.Run(func() { data, err = t.rec.captureLocked(false) })
	return data, err
}

// Checkpoint writes the job's round-boundary checkpoint to w — the
// migration entry point: checkpoint, Close (end-job frame), resume the
// bytes on another Runtime with ResumeJob.
func (t *Tuner) Checkpoint(w io.Writer) error {
	t0 := time.Now()
	data, err := t.checkpointBytes()
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	t.obsv.noteCheckpoint(len(data), time.Since(t0))
	return nil
}
