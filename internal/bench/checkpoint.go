package bench

import (
	"fmt"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/img"
	"repro/internal/kmeans"
	"repro/internal/phylip"
	"repro/internal/topn"
)

// registerCommitTypes registers every opaque value type a benchmark
// program commits or exposes, so the checkpoint journal's gob fallback can
// carry them. New benchmarks that commit a new concrete type must add it
// here (an unregistered type surfaces as a soft checkpoint write failure
// via Tuner.SaveErr, never as a crash).
var registerCommitTypes = sync.OnceFunc(func() {
	checkpoint.RegisterValue(img.Image{})     // Canny smoothed images, Watershed
	checkpoint.RegisterValue(&kmeans.State{}) // K-means run state
	checkpoint.RegisterValue(&topn.Model{})   // recommender similarity model
	checkpoint.RegisterValue(phylip.Tree{})   // phylogenetic trees
	checkpoint.RegisterValue([]fasta.Hit{})   // sequence-search hit lists
	checkpoint.RegisterValue([]int{})         // DBSCAN labels, speech words
})

// EnableCheckpointing installs an OptionsHook that gives every subsequent
// white-box tuning run a file-backed checkpoint store under dir, writing an
// auto-checkpoint every `every` rounds. Runs are labelled sequentially
// (run001, run002, ...) in the order this package starts them, which is
// deterministic for a fixed driver invocation — so a re-run of the same
// driver maps each job onto the same label.
//
// With resume set, a run whose label already has a non-final checkpoint in
// dir resumes from it instead of starting over; a final (complete)
// checkpoint is ignored and the run starts fresh. A checkpoint that exists
// but cannot be decoded — corruption, or a codec version this binary does
// not know — panics rather than silently discarding requested state.
//
// Like Observe, it composes with any OptionsHook already installed and
// returns a restore func, which also closes the store; call it only between
// sequential runs.
func EnableCheckpointing(dir string, every int, resume bool) (restore func(), err error) {
	registerCommitTypes()
	store, err := checkpoint.NewDirStore(dir)
	if err != nil {
		return nil, err
	}
	prev := OptionsHook
	runs := 0
	OptionsHook = func(o core.Options) core.Options {
		if prev != nil {
			o = prev(o)
		}
		runs++
		label := fmt.Sprintf("run%03d", runs)
		o.Checkpoint = &core.CheckpointPolicy{Store: store, Every: every, Label: label}
		if resume {
			st, err := checkpoint.LoadFrom(store, label)
			if err != nil {
				panic(fmt.Sprintf("bench: cannot resume %s: %v", label, err))
			}
			if st != nil && !st.Complete {
				o.Resume = st
			}
		}
		return o
	}
	return func() {
		OptionsHook = prev
		store.Close()
	}, nil
}
