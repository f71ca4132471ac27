package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/store"
)

// The name memo (SP.sym) is checked the house way: against the slow obvious
// thing. Inside every sampling process a pair of maps keyed by name content is
// the oracle for what Float, Get and Load must return, and every scenario runs
// twice — once as shipped and once with the memo wiped before each primitive
// call, so that every resolution goes through the symbol table — and the two
// runs must produce the same bytes.

const (
	opFloat = iota
	opLoad
	opCommit
	opGet
)

// memoOp is one primitive call of a generated body. fresh passes a run-time
// copy of the name: equal content at a different address.
type memoOp struct {
	kind  int
	name  string
	fresh bool
}

// memoNames is the name universe: literals, the empty name, more generated
// names than the memo has slots, and two prefixes of one string, which share
// a data pointer — and therefore a slot — without being equal.
func memoNames() []string {
	const shared = "prefixes-of-one-string"
	names := []string{"alpha", "beta", "y", "", shared[:6], shared[:8]}
	for i := 0; i < memoSets*memoWays+8; i++ {
		names = append(names, fmt.Sprintf("n%02d", i))
	}
	return names
}

// memoScript draws n calls over a random subset of the universe: a body that
// names a few variables many times, like real ones, but never the same few.
func memoScript(rng *rand.Rand, n, distinct int) []memoOp {
	all := memoNames()
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	names := all[:distinct]
	ops := make([]memoOp, n)
	for i := range ops {
		ops[i] = memoOp{kind: rng.Intn(4), name: names[rng.Intn(len(names))], fresh: rng.Intn(3) == 0}
	}
	return ops
}

func exposedValue(name string) float64 { return float64(len(name)) + 0.5 }

// memoLog collects what every execution of a body saw, keyed by (sample,
// fold, attempt), and the oracle's complaints.
type memoLog struct {
	mu   sync.Mutex
	seen map[string]string
	errs []string
}

func (l *memoLog) errorf(format string, args ...any) {
	l.mu.Lock()
	l.errs = append(l.errs, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// dump is every execution's record, in key order.
func (l *memoLog) dump() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]string, 0, len(l.seen))
	for k := range l.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s: %s\n", k, l.seen[k])
	}
	return b.String()
}

// memoRun executes ops on one sampling process under the oracle. bypass wipes
// the memo before each call.
type memoRun struct {
	sp        *SP
	log       *memoLog
	bypass    bool
	drawn     map[string]float64
	committed map[string]any
	out       strings.Builder
}

func newMemoRun(sp *SP, log *memoLog, bypass bool) *memoRun {
	return &memoRun{sp: sp, log: log, bypass: bypass, drawn: map[string]float64{}, committed: map[string]any{}}
}

func (r *memoRun) exec(round int, ops []memoOp) {
	sp := r.sp
	for i, op := range ops {
		name := op.name
		if op.fresh {
			name = strings.Clone(name)
		}
		if r.bypass {
			clear(sp.memo[:])
		}
		switch op.kind {
		case opFloat:
			v := sp.Float(name, dist.Uniform(0, 1))
			if want, ok := r.drawn[name]; ok && want != v {
				r.log.errorf("round %d sample %d op %d: Float(%q) = %v, first draw was %v", round, sp.Index(), i, name, v, want)
			}
			r.drawn[name] = v
			fmt.Fprintf(&r.out, "F%q=%v ", name, v)
		case opLoad:
			if v := sp.Load(name); v != exposedValue(name) {
				r.log.errorf("round %d sample %d op %d: Load(%q) = %v, want %v", round, sp.Index(), i, name, v, exposedValue(name))
			}
		case opCommit:
			v := float64(round*1000+i) + 0.25
			sp.Commit(name, v)
			r.committed[name] = v
		case opGet:
			v, ok := sp.Get(name)
			want, wantOK := r.committed[name]
			if ok != wantOK || v != want {
				r.log.errorf("round %d sample %d op %d: Get(%q) = %v, %v; want %v, %v", round, sp.Index(), i, name, v, ok, want, wantOK)
			}
			fmt.Fprintf(&r.out, "G%q=%v ", name, v)
		}
	}
}

// finish checks the process's own view of its parameters against the oracle
// and files the execution's record.
func (r *memoRun) finish(round int) {
	sp := r.sp
	if got := sp.Params(); fmt.Sprint(got) != fmt.Sprint(r.drawn) {
		r.log.errorf("round %d sample %d: Params() = %v, oracle drew %v", round, sp.Index(), got, r.drawn)
	}
	fold, _ := sp.Fold()
	key := fmt.Sprintf("r%02d g%03d f%d a%d", round, sp.Index(), fold, sp.Attempt())
	r.log.mu.Lock()
	r.log.seen[key] = r.out.String()
	r.log.mu.Unlock()
}

// resultDump flattens what the region kept of a round.
func resultDump(res *Result) string {
	var b strings.Builder
	for g := 0; g < res.N(); g++ {
		fmt.Fprintf(&b, "g%d params=%v score=%v err=%v", g, res.Params(g), res.Score(g), res.Err(g))
		for _, x := range res.Vars() {
			if v, ok := res.Value(x, g); ok {
				fmt.Fprintf(&b, " %q=%v", x, v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// memoScenario is one way of running generated bodies through a tuner.
type memoScenario struct {
	name    string
	opts    Options
	spec    RegionSpec
	sync    bool // the body meets its siblings at a barrier halfway through
	flaky   bool // first attempts of odd samples fail retryably halfway through
	rounds  int
	scripts int // distinct bodies, used round-robin under the one region name
}

// run executes the scenario and returns everything it produced.
func (sc memoScenario) run(t *testing.T, bypass bool) string {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	scripts := make([][]memoOp, sc.scripts)
	for i := range scripts {
		// From three names (every call a hit) to more names than slots.
		scripts[i] = memoScript(rng, 120, []int{3, 9, memoSets*memoWays + 12}[i%3])
	}
	log := &memoLog{seen: map[string]string{}}
	var out strings.Builder
	err := New(sc.opts).Run(func(p *P) error {
		for _, name := range memoNames() {
			p.Expose(name, exposedValue(name))
		}
		for round := 0; round < sc.rounds; round++ {
			ops := scripts[round%len(scripts)]
			res, err := p.Region(sc.spec, func(sp *SP) error {
				r := newMemoRun(sp, log, bypass)
				r.exec(round, ops[:len(ops)/2])
				if sc.sync {
					sp.Sync(func(v *SyncView) {
						for i := 0; i < v.Count(); i++ {
							for _, op := range ops[:8] { // the tuning process reads through the same memo
								v.Value(i, op.name)
							}
						}
					})
				}
				if sc.flaky && sp.Index()%2 == 1 && sp.Attempt() == 1 {
					r.finish(round)
					return Transient(errors.New("flaky"))
				}
				r.exec(round, ops[len(ops)/2:])
				r.finish(round)
				return nil
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(&out, "round %d\n%s", round, resultDump(res))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	for _, e := range log.errs {
		t.Errorf("%s (bypass=%v): %s", sc.name, bypass, e)
	}
	return out.String() + log.dump()
}

// TestSymMemoMatchesOracle: random Float/Load/Commit/Get sequences, through
// every way a sampling process comes to run a body, behave as the maps say and
// produce the same bytes with the memo as without it.
func TestSymMemoMatchesOracle(t *testing.T) {
	score := func(sp *SP) float64 { return float64(len(sp.Params())) }
	scenarios := []memoScenario{
		// Six bodies under one region name: recycled processes meet names, and
		// slot contents, another body left behind.
		{name: "recycled", opts: Options{MaxPool: 4, Seed: 7},
			spec: RegionSpec{Name: "memo", Samples: 24}, rounds: 12, scripts: 6},
		{name: "retries", opts: Options{MaxPool: 4, Seed: 7, Fault: FaultPolicy{MaxAttempts: 3, Backoff: 50 * time.Microsecond}},
			spec: RegionSpec{Name: "memo", Samples: 16}, flaky: true, rounds: 6, scripts: 3},
		{name: "cv folds", opts: Options{MaxPool: 4, Seed: 7},
			spec: RegionSpec{Name: "memo", Samples: 8, CV: 3, Score: score}, rounds: 6, scripts: 3},
		{name: "sync", opts: Options{MaxPool: 2, Seed: 7},
			spec: RegionSpec{Name: "memo", Samples: 8}, sync: true, rounds: 6, scripts: 3},
		{name: "scored", opts: Options{MaxPool: 4, Seed: 7, Incremental: true},
			spec: RegionSpec{Name: "memo", Samples: 16, Score: score}, rounds: 6, scripts: 3},
	}
	for _, sc := range scenarios {
		memo, bypassed := sc.run(t, false), sc.run(t, true)
		if memo != bypassed {
			t.Errorf("%s: the run with the memo differs from the run without it:\n%s", sc.name, firstDiff(bypassed, memo))
		}
		if sc.name != "recycled" {
			continue
		}
		// The same program on a DetachedRunner — the worker side of a fleet,
		// with its own shapes, pools and memos — is the same bytes again.
		sc.opts.Executor = newFakeExec()
		if detached := sc.run(t, false); detached != memo {
			t.Errorf("detached run differs from the local one:\n%s", firstDiff(detached, memo))
		}
	}
}

// TestReadsDoNotGrowSymbolTable: Get, and Load of a name nobody exposed, only
// read the shape's symbol table. Probing many names that were never written
// answers "not there" every time and leaves the table, a copy-on-write
// structure that pays O(n) for every new name, the size the writes made it.
func TestReadsDoNotGrowSymbolTable(t *testing.T) {
	run(t, New(Options{MaxPool: 1, Seed: 1}), func(p *P) error {
		_, err := p.Region(RegionSpec{Name: "reads", Samples: 1}, func(sp *SP) error {
			sp.Float("x", dist.Uniform(0, 1))
			sp.Commit("y", 1.0)
			before := sp.rs.syms.Len()
			for i := 0; i < 2000; i++ {
				name := fmt.Sprintf("absent-%d", i%500)
				if v, ok := sp.Get(name); ok || v != nil {
					t.Errorf("Get(%q) = %v, %v for a name never committed", name, v, ok)
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("Load(%q) of an unexposed name did not panic", name)
						}
					}()
					sp.Load(name)
				}()
			}
			if v, ok := sp.Get("x"); ok { // drawn, never committed: known to the table
				t.Errorf("Get(x) = %v, true", v)
			}
			if v, ok := sp.Get("y"); !ok || v != 1.0 {
				t.Errorf("Get(y) = %v, %v", v, ok)
			}
			if after := sp.rs.syms.Len(); after != before {
				t.Errorf("reads grew the symbol table from %d to %d names", before, after)
			}
			return nil
		})
		return err
	})
}

var memoSink float64

// TestSteadyStateFloatCheaperThanLookup is the cost gate of the memo: reading
// an already drawn tunable must cost less than the string-keyed map probe it
// used to start with. Eight names of one length are interned, which is what
// takes Go's small-map lookup off its compare-without-hashing shortcut and is
// what any region with more than a handful of variables pays. Fixed loops and
// the best of three, not testing.Benchmark: six one-second benchmarks are too
// long for a unit test, and a gate wants the floor, not the mean.
func TestSteadyStateFloatCheaperThanLookup(t *testing.T) {
	if raceEnabled {
		t.Skip("timing gate; -race instruments the two sides differently")
	}
	const calls = 1 << 20
	d := dist.Uniform(0, 1)
	floatNs, lookupNs := math.Inf(1), math.Inf(1)
	run(t, New(Options{MaxPool: 1, Seed: 1}), func(p *P) error {
		_, err := p.Region(RegionSpec{Name: "gate", Samples: 1}, func(sp *SP) error {
			for i := 0; i < 8; i++ {
				sp.Float(fmt.Sprintf("tune%d", i), d)
			}
			name, syms := "tune5", sp.rs.syms
			for try := 0; try < 3; try++ {
				t0 := time.Now()
				for i := 0; i < calls; i++ {
					memoSink += sp.Float(name, d)
				}
				t1 := time.Now()
				for i := 0; i < calls; i++ {
					id, _ := syms.Lookup(name)
					memoSink += float64(id)
				}
				t2 := time.Now()
				floatNs = min(floatNs, float64(t1.Sub(t0).Nanoseconds())/calls)
				lookupNs = min(lookupNs, float64(t2.Sub(t1).Nanoseconds())/calls)
			}
			return nil
		})
		return err
	})
	t.Logf("steady-state Float %.2f ns, bare Symbols.Lookup %.2f ns", floatNs, lookupNs)
	if floatNs >= lookupNs {
		t.Errorf("a steady-state Float costs %.2f ns, a bare symbol-table lookup %.2f ns: the name is being hashed again", floatNs, lookupNs)
	}
}

// TestMemoKeepsAnyFourNames is the layout gate of the memo: whatever
// addresses a body's names have, up to four of them stay resident once each
// has been touched. Every draw clones each name onto the heap behind a
// prefix of random length and keeps the name's part, so its data pointer,
// and the set that picks, is arbitrary. After the first touch the shape's symbol table is
// swapped for an empty one: a name the memo no longer holds then reads as
// never committed, so a miss cannot hide behind the table.
func TestMemoKeepsAnyFourNames(t *testing.T) {
	const draws, passes = 1000, 8
	rng := rand.New(rand.NewSource(4))
	misses, worst := 0, ""
	run(t, New(Options{MaxPool: 1, Seed: 1}), func(p *P) error {
		_, err := p.Region(RegionSpec{Name: "layout", Samples: 1}, func(sp *SP) error {
			for c := 0; c < 32; c++ { // the table knows every name, as after a region's first round
				sp.Commit(fmt.Sprintf("name%02d", c), 0.0)
			}
			for d := 0; d < draws; d++ {
				k := 1 + rng.Intn(4)
				names := make([]string, k)
				for i, c := range rng.Perm(32)[:k] {
					pre := strings.Repeat("#", rng.Intn(64))
					names[i] = strings.Clone(pre + fmt.Sprintf("name%02d", c))[len(pre):]
				}
				for i, name := range names {
					sp.Commit(name, float64(d*4+i))
				}
				syms := sp.rs.syms
				sp.rs.syms = store.NewSymbols()
				for pass := 0; pass < passes; pass++ {
					for _, i := range rng.Perm(k) {
						if v, ok := sp.Get(names[i]); !ok || v != float64(d*4+i) {
							misses++
							worst = fmt.Sprintf("draw %d: %q missed among %q", d, names[i], names)
						}
					}
				}
				sp.rs.syms = syms
			}
			return nil
		})
		return err
	})
	if misses > 0 {
		t.Fatalf("%d memo misses after first touch over %d draws of at most 4 names (last: %s)", misses, draws, worst)
	}
}
