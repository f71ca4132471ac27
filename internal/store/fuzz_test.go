package store

import (
	"testing"
)

// FuzzStoreScopes drives the exposed store with an op-stream decoded from
// fuzz input and checks it against a naive model map: scoped exposure must
// isolate same-named variables across scopes, Delete must report presence,
// the version counter must move on every write and only then, and the
// derived views (Len, Snapshot, ChangedSince(0)) must stay consistent with
// the model. It also interns every name it touches into a Symbols table and
// checks the interning invariants the hot path depends on: an ID never
// changes once assigned, IDs are dense, and Lookup/Name round-trip.
func FuzzStoreScopes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte("set get clear overwrite"))
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f, 0x01, 0xfe, 0x10, 0x20, 0x30})

	scopes := []string{"global", "region", "fold", "round"}
	names := []string{"x", "y", "acc", "x"} // duplicate name on purpose

	f.Fuzz(func(t *testing.T, data []byte) {
		exposed := NewExposed()
		syms := NewSymbols()
		symModel := map[string]uint32{}
		intern := func(name string) {
			id := syms.Intern(name)
			if want, ok := symModel[name]; ok {
				if id != want {
					t.Fatalf("Intern(%q) changed: %d then %d", name, want, id)
				}
				return
			}
			if int(id) != len(symModel) {
				t.Fatalf("Intern(%q) = %d, want next dense ID %d", name, id, len(symModel))
			}
			symModel[name] = id
		}
		type skey struct{ scope, name string }
		expModel := map[skey]float64{}
		val := 0.0
		for pc := 0; pc+2 < len(data); pc += 3 {
			op, a, b := data[pc], data[pc+1], data[pc+2]
			scope := scopes[int(a)%len(scopes)]
			name := names[int(b)%len(names)]
			intern(name)
			val++
			switch op % 5 {
			case 0: // expose
				exposed.Set(scope, name, val)
				expModel[skey{scope, name}] = val
			case 1: // delete
				_, had := expModel[skey{scope, name}]
				before := exposed.Version()
				if got := exposed.Delete(scope, name); got != had {
					t.Fatalf("Delete(%q, %q) = %v, model has it: %v", scope, name, got, had)
				}
				if moved := exposed.Version() != before; moved != had {
					t.Fatalf("Delete(%q, %q) moved the version: %v, want %v", scope, name, moved, had)
				}
				delete(expModel, skey{scope, name})
			case 2: // every entry is a change since version 0, sorted
				ch, _ := exposed.ChangedSince(0)
				if len(ch) != len(expModel) {
					t.Fatalf("ChangedSince(0) has %d entries, model %d", len(ch), len(expModel))
				}
				for j, c := range ch {
					if want, ok := expModel[skey{c.Scope, c.Name}]; !ok || c.V.(float64) != want {
						t.Fatalf("ChangedSince(0)[%d] = %s/%s=%v, model (%v, %v)", j, c.Scope, c.Name, c.V, want, ok)
					}
					if j > 0 && (ch[j-1].Scope > c.Scope || ch[j-1].Scope == c.Scope && ch[j-1].Name >= c.Name) {
						t.Fatalf("ChangedSince(0) not sorted at %d", j)
					}
				}
			case 3: // a read moves nothing
				before := exposed.Version()
				exposed.Get(scope, name)
				if exposed.Version() != before {
					t.Fatalf("Get(%q, %q) moved the version", scope, name)
				}
			case 4: // point read of the exposed store
				got, ok := exposed.Get(scope, name)
				want, wantOK := expModel[skey{scope, name}]
				if ok != wantOK || (ok && got.(float64) != want) {
					t.Fatalf("Exposed.Get(%q, %q) = (%v, %v), model (%v, %v)", scope, name, got, ok, want, wantOK)
				}
			}
		}

		// Symbol table: dense IDs, stable assignment, round-trip intact.
		if syms.Len() != len(symModel) {
			t.Fatalf("Symbols.Len() = %d, model has %d", syms.Len(), len(symModel))
		}
		for name, want := range symModel {
			id, ok := syms.Lookup(name)
			if !ok || id != want {
				t.Fatalf("Lookup(%q) = (%d, %v), model %d", name, id, ok, want)
			}
			if got := syms.Name(id); got != name {
				t.Fatalf("Name(%d) = %q, want %q", id, got, name)
			}
		}

		// Exposed store: every model entry reads back, scoping intact.
		if exposed.Len() != len(expModel) {
			t.Fatalf("Exposed.Len() = %d, model has %d", exposed.Len(), len(expModel))
		}
		for k, want := range expModel {
			if got := exposed.MustGet(k.scope, k.name); got.(float64) != want {
				t.Fatalf("Exposed[%s/%s] = %v, model %v", k.scope, k.name, got, want)
			}
			// Same name in any *other* scope must never alias this entry.
			for _, other := range scopes {
				if other == k.scope {
					continue
				}
				if v, ok := exposed.Get(other, k.name); ok && v.(float64) == want && expModel[skey{other, k.name}] != want {
					t.Fatalf("scope leak: %s/%s visible as %s/%s", k.scope, k.name, other, k.name)
				}
			}
		}
		if got := len(exposed.Snapshot()); got != len(expModel) {
			t.Fatalf("Snapshot has %d entries, model %d", got, len(expModel))
		}

	})
}
