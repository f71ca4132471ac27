package bench

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/img"
	"repro/internal/kmeans"
	"repro/internal/phylip"
	"repro/internal/topn"
)

// init registers every opaque value type a benchmark program commits or
// exposes, so the checkpoint journal's gob fallback can carry them for any
// tuner a program runs on. New benchmarks that commit a new concrete type
// must add it here (an unregistered type surfaces as a soft checkpoint write
// failure via Tuner.SaveErr, never as a crash).
func init() {
	checkpoint.RegisterValue(img.Image{})     // Canny smoothed images, Watershed
	checkpoint.RegisterValue(&kmeans.State{}) // K-means run state
	checkpoint.RegisterValue(&topn.Model{})   // recommender similarity model
	checkpoint.RegisterValue(phylip.Tree{})   // phylogenetic trees
	checkpoint.RegisterValue([]fasta.Hit{})   // sequence-search hit lists
	checkpoint.RegisterValue([]int{})         // DBSCAN labels, speech words
}

// EnableCheckpointing gives every subsequent standard tuner (see WBTune) a
// file-backed checkpoint store under dir, writing an auto-checkpoint every
// `every` rounds. Runs are labelled sequentially (run001, run002, ...) in
// the order WBTune builds their tuners, which is deterministic for a fixed
// driver invocation — so a re-run of the same driver maps each job onto the
// same label.
//
// With resume set, a run whose label already has a non-final checkpoint in
// dir resumes from it instead of starting over; a final (complete)
// checkpoint is ignored and the run starts fresh. A checkpoint that exists
// but cannot be decoded — corruption, or a codec version this binary does
// not know — panics rather than silently discarding requested state, and so
// does a resumed run that diverges from its journal.
//
// It returns a restore func that reinstates the previous policy and closes
// the store. Like Observe, call it only between runs.
func EnableCheckpointing(dir string, every int, resume bool) (restore func(), err error) {
	store, err := checkpoint.NewDirStore(dir)
	if err != nil {
		return nil, err
	}
	prev := tuning.ckpt
	tuning.ckpt = &ckptRuns{store: store, every: every, resume: resume}
	return func() {
		tuning.ckpt = prev
		store.Close()
	}, nil
}

// ckptRuns is the checkpoint policy EnableCheckpointing sets.
type ckptRuns struct {
	store  checkpoint.Store
	every  int
	resume bool
	runs   int // standard tuners built so far
}

// apply labels the next run and sets its checkpoint policy and, when
// resuming, its resume state.
func (c *ckptRuns) apply(o *core.Options) {
	c.runs++
	label := fmt.Sprintf("run%03d", c.runs)
	o.Checkpoint = &core.CheckpointPolicy{Store: c.store, Every: c.every, Label: label}
	if !c.resume {
		return
	}
	st, err := checkpoint.LoadFrom(c.store, label)
	if err != nil {
		panic(fmt.Sprintf("bench: cannot resume %s: %v", label, err))
	}
	if st != nil && !st.Complete {
		o.Resume = st
	}
}
