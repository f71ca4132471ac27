package agg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, k Kind) Incremental {
	t.Helper()
	a, err := New(k)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewCustomErrors(t *testing.T) {
	if _, err := New(Custom); err == nil {
		t.Fatal("New(Custom) should error")
	}
	if _, err := New(Kind("bogus")); err == nil {
		t.Fatal("New(bogus) should error")
	}
}

func TestMinMaxScalar(t *testing.T) {
	mn := mustNew(t, Min)
	mx := mustNew(t, Max)
	for _, v := range []float64{3, -1, 7, 2} {
		mn.Add(v)
		mx.Add(v)
	}
	if mn.Result() != -1.0 {
		t.Fatalf("Min = %v", mn.Result())
	}
	if mx.Result() != 7.0 {
		t.Fatalf("Max = %v", mx.Result())
	}
	if mn.Count() != 4 || mn.Retained() != 1 {
		t.Fatalf("Count/Retained = %d/%d", mn.Count(), mn.Retained())
	}
}

func TestMinAcceptsInts(t *testing.T) {
	mn := mustNew(t, Min)
	mn.Add(5)
	mn.Add(2)
	if mn.Result() != 2.0 {
		t.Fatalf("Min over ints = %v", mn.Result())
	}
}

func TestMinMaxVectorSelectsWholeSample(t *testing.T) {
	mx := mustNew(t, Max)
	a := []float64{1, 1, 0} // sum 2
	b := []float64{1, 1, 1} // sum 3
	mx.Add(a)
	mx.Add(b)
	got := mx.Result().([]float64)
	if &got[0] != &b[0] {
		t.Fatal("Max over vectors should select one committed vector, not a copy or blend")
	}
}

func TestEmptyAggregatorsReturnNil(t *testing.T) {
	for _, k := range []Kind{Min, Max, Avg, MV, Dedup} {
		if got := mustNew(t, k).Result(); got != nil {
			t.Fatalf("%s empty Result = %v, want nil", k, got)
		}
	}
}

func TestAvgScalar(t *testing.T) {
	a := mustNew(t, Avg)
	for _, v := range []float64{1, 2, 3, 4} {
		a.Add(v)
	}
	if got := a.Result().(float64); got != 2.5 {
		t.Fatalf("Avg = %g", got)
	}
}

func TestAvgVectorElementwise(t *testing.T) {
	a := mustNew(t, Avg)
	a.Add([]float64{0, 2})
	a.Add([]float64{2, 2})
	got := a.Result().([]float64)
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("Avg vector = %v", got)
	}
}

func TestAvgVectorLengthMismatchPanics(t *testing.T) {
	a := mustNew(t, Avg)
	a.Add([]float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Add([]float64{1})
}

func TestMixedScalarVectorPanics(t *testing.T) {
	for _, k := range []Kind{Min, Avg, MV} {
		a := mustNew(t, k)
		a.Add(1.0)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted mixed types", k)
				}
			}()
			a.Add([]float64{1})
		}()
	}
}

func TestUnsupportedTypePanics(t *testing.T) {
	a := mustNew(t, Avg)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Add("not a number")
}

func TestMajorityVectorPixelVote(t *testing.T) {
	m := mustNew(t, MV)
	m.Add([]float64{1, 1, 0})
	m.Add([]float64{1, 0, 0})
	m.Add([]float64{1, 1, 1})
	got := m.Result().([]float64)
	want := []float64{1, 1, 0} // pixel set iff set in majority of runs
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MV pixel %d = %g, want %g (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestMajorityVectorExactHalfIsUnset(t *testing.T) {
	m := mustNew(t, MV)
	m.Add([]float64{1})
	m.Add([]float64{0})
	if got := m.Result().([]float64); got[0] != 0 {
		t.Fatal("a strict majority is required to set a pixel")
	}
}

func TestMajorityScalarPlurality(t *testing.T) {
	m := mustNew(t, MV)
	for _, v := range []float64{3, 1, 3, 2, 3, 1} {
		m.Add(v)
	}
	if got := m.Result().(float64); got != 3 {
		t.Fatalf("plurality = %g", got)
	}
}

func TestMajorityScalarTieBreaksLow(t *testing.T) {
	m := mustNew(t, MV)
	m.Add(5.0)
	m.Add(2.0)
	if got := m.Result().(float64); got != 2 {
		t.Fatalf("tie should break to the smaller value, got %g", got)
	}
}

func TestDedup(t *testing.T) {
	d := mustNew(t, Dedup)
	d.Add(1.0)
	d.Add(2.0)
	d.Add(1.0)
	d.Add([]float64{1, 2})
	d.Add([]float64{1, 2})
	got := d.Result().([]any)
	if len(got) != 3 {
		t.Fatalf("Dedup kept %d values: %v", len(got), got)
	}
	if d.Count() != 5 {
		t.Fatalf("Count = %d, want 5 adds", d.Count())
	}
	if d.Retained() != 3 {
		t.Fatalf("Retained = %d", d.Retained())
	}
	if got[0] != 1.0 || got[1] != 2.0 {
		t.Fatalf("arrival order lost: %v", got)
	}
}

// Property: MIN <= AVG <= MAX over any nonempty scalar stream, and each
// incremental result equals the batch computation.
func TestPropertyScalarAggregatorsConsistent(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		r := rand.New(rand.NewSource(seed))
		mn, _ := New(Min)
		mx, _ := New(Max)
		av, _ := New(Avg)
		lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
		for i := 0; i < n; i++ {
			v := r.NormFloat64() * 10
			mn.Add(v)
			mx.Add(v)
			av.Add(v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			sum += v
		}
		gmin := mn.Result().(float64)
		gmax := mx.Result().(float64)
		gavg := av.Result().(float64)
		return gmin == lo && gmax == hi &&
			math.Abs(gavg-sum/float64(n)) < 1e-9 &&
			gmin <= gavg+1e-9 && gavg <= gmax+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MV over binary vectors returns a pixel iff strictly more than
// half the runs set it.
func TestPropertyMajorityVectorThreshold(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%9) + 1
		r := rand.New(rand.NewSource(seed))
		const w = 16
		m, _ := New(MV)
		counts := make([]int, w)
		for i := 0; i < n; i++ {
			v := make([]float64, w)
			for j := range v {
				if r.Intn(2) == 1 {
					v[j] = 1
					counts[j]++
				}
			}
			m.Add(v)
		}
		got := m.Result().([]float64)
		for j := range got {
			want := 0.0
			if 2*counts[j] > n {
				want = 1
			}
			if got[j] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyOfDistinguishesValues(t *testing.T) {
	if KeyOf(1.0) == KeyOf(2.0) {
		t.Fatal("scalar keys collide")
	}
	if KeyOf([]float64{1, 2}) == KeyOf([]float64{2, 1}) {
		t.Fatal("vector keys collide")
	}
	if KeyOf([]float64{1, 2}) != KeyOf([]float64{1, 2}) {
		t.Fatal("equal vectors must share a key")
	}
}
