package checkpoint

import (
	"bytes"
	"sort"
	"testing"
)

// journalsOf files st's entries into one Journal per path, each entry encoded
// on its own, and returns them in sorted path order.
func journalsOf(t *testing.T, st *State) []*Journal {
	t.Helper()
	byPath := map[string]*Journal{}
	get := func(p string) *Journal {
		if byPath[p] == nil {
			byPath[p] = &Journal{}
		}
		return byPath[p]
	}
	for i := range st.Events {
		get(st.Events[i].Path).AddEvent(&st.Events[i])
	}
	for i := range st.Rounds {
		if err := get(st.Rounds[i].Path).AddRound(&st.Rounds[i]); err != nil {
			t.Fatal(err)
		}
	}
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	js := make([]*Journal, len(paths))
	for i, p := range paths {
		js[i] = byPath[p]
	}
	return js
}

// TestEncodeJournalMatchesEncodeBytes: a state spliced from per-path journals
// of entries encoded one at a time is the bytes EncodeBytes writes for it.
func TestEncodeJournalMatchesEncodeBytes(t *testing.T) {
	st := sampleState()
	// A second path, with entries of both kinds, between and after "0".
	st.Frontier["0.1"] = 2
	st.Events = append(st.Events, Event{Path: "0.1", Seq: 0, Kind: EvRegion, Name: "c"})
	st.Rounds = append(st.Rounds, Round{Path: "0.1", Seq: 1, Region: "c", N: 1, K: 1,
		Groups: []Group{{Params: []Param{{Name: "x", V: 2}}, HaveParams: true, Commits: []KV{{Name: "o", V: testValue{A: 1}}}}}})
	want, err := EncodeBytes(st)
	if err != nil {
		t.Fatal(err)
	}
	spliced := *st
	spliced.Events, spliced.Rounds = nil, nil
	got, err := EncodeJournal(&spliced, journalsOf(t, st))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("spliced journal encodes to %d bytes that differ from EncodeBytes's %d", len(got), len(want))
	}
	j := journalsOf(t, st)[0]
	before := *j
	if err := j.AddRound(&Round{Aggregated: []KV{{Name: "f", V: func() {}}}}); err == nil {
		t.Fatal("AddRound of a value with no encoding succeeded")
	}
	if len(j.rounds) != len(before.rounds) || j.nRounds != before.nRounds {
		t.Fatal("a failed AddRound left bytes in the journal")
	}
}

// TestEncodeAllocsFlatInValues: encoding a native-typed value allocates
// nothing, so EncodeBytes's allocation count does not grow with the number
// of values in a state.
func TestEncodeAllocsFlatInValues(t *testing.T) {
	withValues := func(n int) *State {
		g := Group{Commits: make([]KV, n)}
		for i := range g.Commits {
			g.Commits[i] = KV{Name: "y", V: float64(i)}
		}
		return &State{Frontier: map[string]uint64{"0": 1},
			Rounds: []Round{{Path: "0", Region: "r", N: 1, K: 1, Groups: []Group{g}}}}
	}
	allocs := func(st *State) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := EncodeBytes(st); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(withValues(8)), allocs(withValues(512))
	if many > few {
		t.Fatalf("EncodeBytes allocates %.0f objects for 8 values and %.0f for 512: a value costs an allocation", few, many)
	}
}
