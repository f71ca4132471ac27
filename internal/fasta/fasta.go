// Package fasta implements local sequence alignment in the style of the
// FASTA suite (Pearson & Lipman): Smith-Waterman with affine gap penalties
// over a sequence database. The two tunable parameters are the gap-open and
// gap-extend penalties; good settings make the planted homolog of the query
// stand out from the decoy database (the paper's FASTA rows use a custom
// aggregation strategy, implemented here as "keep the hit with the largest
// separation").
package fasta

import (
	"math"
	"math/rand"

	"repro/internal/dist"
)

// Params are the alignment tunables.
type Params struct {
	GapOpen   float64 // penalty for opening a gap (positive)
	GapExtend float64 // penalty for extending a gap (positive)
}

// DefaultParams is the untuned configuration.
func DefaultParams() Params { return Params{GapOpen: 10, GapExtend: 10} }

// Work-unit costs: loading/indexing the database is the expensive stage.
const (
	WorkLoad     = 20.0
	WorkPerAlign = 0.1
)

// Alphabet is the nucleotide alphabet.
const Alphabet = "ACGT"

// Dataset is a homology-search workload: a query, a database, and the index
// of the planted homolog (ground truth, used only for quality reporting).
type Dataset struct {
	Query   []byte
	DB      [][]byte
	Homolog int // index into DB
}

// Gen builds a workload: random decoys plus one homolog derived from the
// query by substitutions and indels. The indel rate is what makes the gap
// penalties matter.
func Gen(seed int64, queryLen, dbSize int) Dataset {
	if queryLen < 16 || dbSize < 2 {
		panic("fasta: workload too small")
	}
	r := rand.New(rand.NewSource(int64(dist.Mix(uint64(seed), 0xFA57A))))
	randSeq := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = Alphabet[r.Intn(4)]
		}
		return s
	}
	query := randSeq(queryLen)
	ds := Dataset{Query: query}
	for i := 0; i < dbSize; i++ {
		ds.DB = append(ds.DB, randSeq(queryLen+r.Intn(queryLen/2)))
	}
	// Mutate a homolog: 15% substitutions, 8% indels.
	hom := make([]byte, 0, queryLen)
	for _, c := range query {
		switch {
		case r.Float64() < 0.08: // deletion or insertion
			if r.Intn(2) == 0 {
				continue // delete
			}
			hom = append(hom, c, Alphabet[r.Intn(4)]) // insert after
		case r.Float64() < 0.15:
			hom = append(hom, Alphabet[r.Intn(4)]) // substitute
		default:
			hom = append(hom, c)
		}
	}
	ds.Homolog = r.Intn(dbSize)
	ds.DB[ds.Homolog] = hom
	return ds
}

// Align computes the Smith-Waterman local alignment score of a and b with
// affine gaps (match +2, mismatch -1). Gotoh's three-matrix formulation.
func Align(a, b []byte, p Params) float64 {
	if !(p.GapOpen >= 0) || !(p.GapExtend >= 0) {
		panic("fasta: negative or NaN gap penalties")
	}
	const (
		match    = 2.0
		mismatch = -1.0
	)
	m := len(b)
	// H: best ending at (i,j); E: gap in a; F: gap in b. H[j] and F[j]
	// hold column j+1 of row i-1 until row i overwrites them; E looks only
	// left along row i, so it is one running value. Column 0 is all zeros.
	buf := make([]float64, 2*m)
	H, F := buf[:m], buf[m:]
	best := 0.0
	for _, ai := range a {
		diag, left, e := 0.0, 0.0, 0.0 // H[i-1][0], H[i][0] and E[i][0]
		for j, bj := range b {
			s := mismatch
			if ai == bj {
				s = match
			}
			up := H[j]
			e = max(e-p.GapExtend, left-p.GapOpen)
			f := max(F[j]-p.GapExtend, up-p.GapOpen)
			left = max(0, diag+s, e, f)
			diag, H[j], F[j] = up, left, f
			if left > best {
				best = left
			}
		}
	}
	return best
}

// Hit is one database search result.
type Hit struct {
	Index int
	Score float64
}

// Search aligns the query against every database sequence and returns the
// hits sorted best-first (stable order for equal scores).
func Search(ds Dataset, p Params) []Hit {
	hits := make([]Hit, len(ds.DB))
	for i, s := range ds.DB {
		hits[i] = Hit{Index: i, Score: Align(ds.Query, s, p)}
	}
	// Insertion sort by score descending, index ascending (small databases).
	for i := 1; i < len(hits); i++ {
		for j := i; j > 0 && (hits[j].Score > hits[j-1].Score ||
			hits[j].Score == hits[j-1].Score && hits[j].Index < hits[j-1].Index); j-- {
			hits[j], hits[j-1] = hits[j-1], hits[j]
		}
	}
	return hits
}

// Separation is the internal tuning score (no ground truth needed): how far
// the top hit stands above the rest of the database in units of the decoy
// score spread — a z-score of the best hit against the remaining hits.
// Higher means the search discriminates better.
func Separation(hits []Hit) float64 {
	if len(hits) < 3 {
		return 0
	}
	top := hits[0].Score
	rest := hits[1:]
	mean, m2 := 0.0, 0.0
	for _, h := range rest {
		mean += h.Score
	}
	mean /= float64(len(rest))
	for _, h := range rest {
		m2 += (h.Score - mean) * (h.Score - mean)
	}
	sd := math.Sqrt(m2 / float64(len(rest)))
	if sd == 0 {
		return 0
	}
	return (top - mean) / sd
}

// Quality reports whether the homolog is the top hit (1) or not (0), plus
// its separation when correct — the external score for the tables.
func Quality(ds Dataset, hits []Hit) float64 {
	if hits[0].Index != ds.Homolog {
		return 0
	}
	return Separation(hits)
}
