package bench

import (
	"repro/internal/checkpoint"
	"repro/internal/fasta"
	"repro/internal/img"
	"repro/internal/kmeans"
	"repro/internal/phylip"
	"repro/internal/topn"
)

// init registers every opaque value type a benchmark program commits or
// exposes, so the checkpoint journal's gob fallback can carry them for any
// tuner a program runs on, a wbtuned job's included. New benchmarks that
// commit a new concrete type must add it here (an unregistered type surfaces
// as a soft checkpoint write failure via Tuner.SaveErr, never as a crash).
func init() {
	checkpoint.RegisterValue(img.Image{})     // Canny smoothed images, Watershed
	checkpoint.RegisterValue(&kmeans.State{}) // K-means run state
	checkpoint.RegisterValue(&topn.Model{})   // recommender similarity model
	checkpoint.RegisterValue(phylip.Tree{})   // phylogenetic trees
	checkpoint.RegisterValue([]fasta.Hit{})   // sequence-search hit lists
	checkpoint.RegisterValue([]int{})         // DBSCAN labels, speech words
}
