package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one harness-side interval around a call into a layer. Spans of
// one operation (a job, a tuner run, a Table I pass) share Op; Parent is the
// span that caused this one (0 for the operation's root). The layer a span
// belongs to is the part of Name before the first dot.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans of a traced run in memory until the run ends. A
// nil *recorder is the untraced run: every method is a no-op, so workload
// code is written once.
type recorder struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// start opens a span; pass the returned value to finish.
func (r *recorder) start(name string, op, parent uint64) span {
	if r == nil {
		return span{}
	}
	return span{Name: name, ID: r.next.Add(1), Parent: parent, Op: op, Start: r.now()}
}

func (r *recorder) finish(s span) {
	if r == nil {
		return
	}
	s.End = r.now()
	r.push(s)
}

// add records a span whose interval the caller measured or derived itself.
func (r *recorder) add(name string, op, parent uint64, start, end int64) {
	if r == nil {
		return
	}
	r.push(span{Name: name, ID: r.next.Add(1), Parent: parent, Op: op, Start: start, End: end})
}

func (r *recorder) push(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// traceView is a finished run's spans with their self times by span name.
// A span's self time is its duration minus the part of its interval that
// its child spans cover (children running in parallel are merged first, so
// overlap is not subtracted twice): what the operation's blocking path
// spends there and nowhere deeper.
type traceView struct {
	spans []span
	self  map[string]int64
	count map[string]int
}

func analyse(spans []span) traceView {
	children := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	tv := traceView{spans: spans, self: make(map[string]int64), count: make(map[string]int)}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		tv.count[s.Name]++
		if self := s.End - s.Start - covered; self > 0 {
			tv.self[s.Name] += self
		}
	}
	return tv
}

// layerSelf sums self time by layer. Sibling spans that overlap on
// different cores each count in full, so these are parts of the summed self
// time, not of wall time.
func (tv traceView) layerSelf() map[string]int64 {
	out := make(map[string]int64)
	for name, v := range tv.self {
		out[layerOf(name)] += v
	}
	return out
}

// layerShares normalises layerSelf to fractions of the total.
func (tv traceView) layerShares() map[string]float64 {
	self := tv.layerSelf()
	var total int64
	for _, v := range self {
		total += v
	}
	out := make(map[string]float64, len(self))
	for k, v := range self {
		out[k] = float64(v) / float64(max(total, 1))
	}
	return out
}

// durationsUS returns the durations, in microseconds, of every span with
// the given name.
func (tv traceView) durationsUS(name string) []float64 {
	out := make([]float64, 0, tv.count[name])
	for _, s := range tv.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfPerSpanUS is the mean self time of the spans with the given name.
func (tv traceView) selfPerSpanUS(name string) float64 {
	return float64(tv.self[name]) / 1e3 / float64(max(tv.count[name], 1))
}
