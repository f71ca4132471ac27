package fasta

import (
	"math"
	"math/rand"
	"testing"
)

func TestGenShape(t *testing.T) {
	ds := Gen(1, 64, 20)
	if len(ds.Query) != 64 || len(ds.DB) != 20 {
		t.Fatalf("shape: query %d, db %d", len(ds.Query), len(ds.DB))
	}
	if ds.Homolog < 0 || ds.Homolog >= 20 {
		t.Fatalf("homolog index %d", ds.Homolog)
	}
	for _, s := range ds.DB {
		for _, c := range s {
			if c != 'A' && c != 'C' && c != 'G' && c != 'T' {
				t.Fatalf("bad base %c", c)
			}
		}
	}
}

func TestGenDeterministic(t *testing.T) {
	a := Gen(3, 64, 10)
	b := Gen(3, 64, 10)
	if string(a.Query) != string(b.Query) || a.Homolog != b.Homolog {
		t.Fatal("Gen not deterministic")
	}
}

func TestAlignIdentity(t *testing.T) {
	s := []byte("ACGTACGTACGT")
	p := Params{GapOpen: 5, GapExtend: 1}
	if got := Align(s, s, p); got != float64(len(s)*2) {
		t.Fatalf("self alignment = %g, want %d", got, len(s)*2)
	}
}

func TestAlignNeverNegative(t *testing.T) {
	p := Params{GapOpen: 5, GapExtend: 1}
	if got := Align([]byte("AAAA"), []byte("TTTT"), p); got < 0 {
		t.Fatalf("local alignment score %g < 0", got)
	}
}

func TestAlignSymmetric(t *testing.T) {
	a := []byte("ACGTTTACGGA")
	b := []byte("ACGTAGGGA")
	p := Params{GapOpen: 4, GapExtend: 1}
	if Align(a, b, p) != Align(b, a, p) {
		t.Fatal("alignment not symmetric")
	}
}

func TestAffineGapsBeatLinearForIndels(t *testing.T) {
	// A mid-sequence deletion: with a moderate open and cheap extend the
	// alignment bridges the gap and scores both flanks; with expensive
	// gaps (the default) it can only keep one flank.
	a := []byte("ACGTTGCATGCA" + "GGGG" + "TTCAGCATGCAT")
	gapB := []byte("ACGTTGCATGCA" + "TTCAGCATGCAT") // a with GGGG deleted
	affine := Align(a, gapB, Params{GapOpen: 4, GapExtend: 0.5})
	costly := Align(a, gapB, Params{GapOpen: 10, GapExtend: 10})
	if affine <= costly {
		t.Fatalf("affine gaps should score the gapped homolog higher: %g vs %g", affine, costly)
	}
}

func TestAlignValidation(t *testing.T) {
	nan := math.NaN()
	for _, p := range []Params{
		{GapOpen: -1, GapExtend: 1},
		{GapOpen: 1, GapExtend: -1},
		{GapOpen: nan, GapExtend: 1},
		{GapOpen: 1, GapExtend: nan},
		{GapOpen: math.Inf(-1), GapExtend: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Align with %+v did not panic", p)
				}
			}()
			Align([]byte("ACGTACGTAC"), []byte("ACGTACGTAC"), p)
		}()
	}
}

func TestSearchSortedBestFirst(t *testing.T) {
	ds := Gen(4, 48, 12)
	hits := Search(ds, Params{GapOpen: 4, GapExtend: 1})
	if len(hits) != 12 {
		t.Fatalf("hits %d", len(hits))
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Fatal("hits not sorted")
		}
	}
}

func TestHomologIsTopHitWithGoodParams(t *testing.T) {
	wins := 0
	for seed := int64(0); seed < 5; seed++ {
		ds := Gen(seed, 64, 16)
		hits := Search(ds, Params{GapOpen: 4, GapExtend: 0.5})
		if hits[0].Index == ds.Homolog {
			wins++
		}
	}
	if wins < 4 {
		t.Fatalf("homolog found on only %d/5 workloads", wins)
	}
}

func TestSeparationOrdersParams(t *testing.T) {
	// Good gap parameters should separate the homolog more than terrible
	// ones, averaged over workloads.
	better := 0
	for seed := int64(0); seed < 5; seed++ {
		ds := Gen(seed, 64, 16)
		good := Separation(Search(ds, Params{GapOpen: 4, GapExtend: 0.5}))
		bad := Separation(Search(ds, Params{GapOpen: 0, GapExtend: 0}))
		if good > bad {
			better++
		}
	}
	if better < 4 {
		t.Fatalf("good params separated better on only %d/5 workloads", better)
	}
}

func TestQualityZeroWhenWrongTopHit(t *testing.T) {
	ds := Gen(6, 48, 10)
	hits := Search(ds, Params{GapOpen: 4, GapExtend: 1})
	// Force a wrong top hit.
	for i := range hits {
		if hits[i].Index != ds.Homolog {
			hits[0], hits[i] = hits[i], hits[0]
			break
		}
	}
	if Quality(ds, hits) != 0 {
		t.Fatal("Quality should be 0 for a wrong top hit")
	}
}

func TestSeparationDegenerate(t *testing.T) {
	if Separation([]Hit{{0, 1}, {1, 1}}) != 0 {
		t.Fatal("separation of tiny hit list should be 0")
	}
	same := []Hit{{0, 5}, {1, 5}, {2, 5}, {3, 5}}
	if Separation(same) != 0 {
		t.Fatal("zero spread should yield 0")
	}
}

func TestGenValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Gen(1, 4, 10)
}

// refAlign is the Align the single-buffer one replaced: two rolling rows
// each of H, E and F, indexed by i%2, combined with math.Max.
func refAlign(a, b []byte, p Params) float64 {
	const (
		match    = 2.0
		mismatch = -1.0
	)
	n, m := len(a), len(b)
	H := make([][]float64, 2)
	E := make([][]float64, 2)
	F := make([][]float64, 2)
	for k := 0; k < 2; k++ {
		H[k] = make([]float64, m+1)
		E[k] = make([]float64, m+1)
		F[k] = make([]float64, m+1)
	}
	best := 0.0
	for i := 1; i <= n; i++ {
		cur, prev := i%2, 1-i%2
		for j := 1; j <= m; j++ {
			s := mismatch
			if a[i-1] == b[j-1] {
				s = match
			}
			E[cur][j] = math.Max(E[cur][j-1]-p.GapExtend, H[cur][j-1]-p.GapOpen)
			F[cur][j] = math.Max(F[prev][j]-p.GapExtend, H[prev][j]-p.GapOpen)
			h := math.Max(0, H[prev][j-1]+s)
			h = math.Max(h, E[cur][j])
			h = math.Max(h, F[cur][j])
			H[cur][j] = h
			if h > best {
				best = h
			}
		}
	}
	return best
}

// TestAlignMatchesTwoRowOracle holds Align to refAlign bit for bit on
// random sequences of length 0-200, with gap penalties that include zero,
// an open cheaper than an extend, and +Inf.
func TestAlignMatchesTwoRowOracle(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	seq := func() []byte {
		s := make([]byte, r.Intn(201))
		for i := range s {
			s[i] = Alphabet[r.Intn(4)]
		}
		return s
	}
	inf := math.Inf(1)
	edges := []Params{
		{0, 0}, {0, 1}, {1, 0}, {0.5, 3}, {2, 2.5},
		{inf, 1}, {1, inf}, {inf, inf}, {inf, 0}, DefaultParams(),
	}
	for i := 0; i < 400; i++ {
		p := Params{GapOpen: 12 * r.Float64(), GapExtend: 6 * r.Float64()}
		if i < len(edges) {
			p = edges[i]
		}
		a, b := seq(), seq()
		if i%10 == 0 {
			b = a[:r.Intn(len(a)+1)] // a shared prefix: long exact runs
		}
		got, want := Align(a, b, p), refAlign(a, b, p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d (%+v, lengths %d and %d): Align %v, oracle %v", i, p, len(a), len(b), got, want)
		}
	}
}

func BenchmarkAlign(b *testing.B) {
	ds := Gen(1, 64, 16)
	p := Params{GapOpen: 4, GapExtend: 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range ds.DB {
			benchScore = Align(ds.Query, s, p)
		}
	}
}

var benchScore float64
