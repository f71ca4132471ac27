package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/obs"
)

// postSpec submits spec as JSON and returns the response.
func postSpec(t *testing.T, base string, spec core.JobSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func drainClose(t *testing.T, resp *http.Response) {
	t.Helper()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// TestServerStatusCodes drives every typed refusal through real HTTP
// requests and checks each maps to its own status code.
func TestServerStatusCodes(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	release := make(chan struct{})
	defer close(release)
	m := NewManager(Options{
		Runtime:    core.NewRuntime(core.RuntimeOptions{MaxPool: 4}),
		Programs:   testRegistry(release),
		MaxRunning: 1,
		MaxQueued:  1,
		Quotas:     map[string]TenantQuota{"capped": {RatePerSec: 0.001, Burst: 1}},
	})
	defer m.Close()
	srv := httptest.NewServer(NewServer(m, nil))
	defer srv.Close()
	closed := NewManager(Options{Runtime: core.NewRuntime(core.RuntimeOptions{MaxPool: 1}), Programs: testRegistry(nil)})
	closed.Close()
	closedSrv := httptest.NewServer(NewServer(closed, nil))
	defer closedSrv.Close()

	// Fill the running slot and the one queue slot.
	for _, name := range []string{"running", "queued"} {
		resp := postSpec(t, srv.URL, core.JobSpec{Name: name, Program: "wait", Tenant: "a"})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: status %d, want 202", name, resp.StatusCode)
		}
		drainClose(t, resp)
	}

	tests := []struct {
		name string
		spec core.JobSpec
		raw  string // posted as the body instead of spec when set
		url  string // the server posted to; srv when empty
		want int
	}{
		{name: "queue full", spec: core.JobSpec{Name: "overflow", Program: "wait", Tenant: "a"}, want: http.StatusServiceUnavailable},
		{name: "duplicate", spec: core.JobSpec{Name: "running", Program: "wait", Tenant: "a"}, want: http.StatusConflict},
		{name: "unknown program", spec: core.JobSpec{Name: "mystery", Program: "nope"}, want: http.StatusBadRequest},
		{name: "invalid spec", spec: core.JobSpec{Name: "", Program: "wait"}, want: http.StatusBadRequest},
		{name: "negative sample timeout", raw: `{"name": "neg", "program": "wait", "fault": {"sample_timeout": -5}}`, want: http.StatusBadRequest},
		{name: "oversize body", raw: `{"name": "` + strings.Repeat("x", 1<<20) + `"}`, want: http.StatusRequestEntityTooLarge},
		{name: "trailing data", raw: `{"name": "twice", "program": "wait"} {"name": "again", "program": "wait"}`, want: http.StatusBadRequest},
		{name: "unknown spec version", raw: `{"spec_version": 99, "name": "future", "program": "wait"}`, want: http.StatusBadRequest},
		{name: "manager closed", spec: core.JobSpec{Name: "late", Program: "wait"}, url: closedSrv.URL, want: http.StatusServiceUnavailable},
	}
	for _, tc := range tests {
		url := srv.URL
		if tc.url != "" {
			url = tc.url
		}
		var resp *http.Response
		if tc.raw == "" {
			resp = postSpec(t, url, tc.spec)
		} else {
			var err error
			if resp, err = http.Post(url+"/v1/jobs", "application/json", strings.NewReader(tc.raw)); err != nil {
				t.Fatal(err)
			}
		}
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if tc.want == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: missing Retry-After header on 503", tc.name)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
			t.Errorf("%s: refusal body not a JSON error envelope (err=%v)", tc.name, err)
		}
		resp.Body.Close()
	}

	// Rate quota: the capped tenant's single burst token goes to the first
	// submission (itself refused — the queue is full — but still charged);
	// the second trips the rate limit, which Submit checks before queue
	// capacity, so it maps to 429 rather than 503.
	drainClose(t, postSpec(t, srv.URL, core.JobSpec{Name: "capped-1", Program: "wait", Tenant: "capped"}))
	resp := postSpec(t, srv.URL, core.JobSpec{Name: "capped-2", Program: "wait", Tenant: "capped"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("quota exceeded: status %d, want 429", resp.StatusCode)
	}
	drainClose(t, resp)

	// Unknown job and malformed JSON.
	resp, err := http.Get(srv.URL + "/v1/jobs/ghost")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
	drainClose(t, resp)
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"name": `))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	drainClose(t, resp)
}

// TestServerSubmitStreamInspect is the happy path over HTTP: submit, stream
// every round over SSE to completion, inspect, list — and the final result
// matches a direct run byte for byte.
func TestServerSubmitStreamInspect(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	m := NewManager(Options{
		Runtime:  core.NewRuntime(core.RuntimeOptions{MaxPool: 4}),
		Programs: testRegistry(nil),
	})
	defer m.Close()
	srv := httptest.NewServer(NewServer(m, nil))
	defer srv.Close()

	spec := core.JobSpec{Name: "stream-me", Program: "tune", Seed: 99}
	resp := postSpec(t, srv.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	var submitted Status
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatalf("submit body: %v", err)
	}
	resp.Body.Close()
	if submitted.Spec.Name != "stream-me" {
		t.Fatalf("submit echoed spec name %q", submitted.Spec.Name)
	}

	// Stream rounds until the done event.
	resp, err := http.Get(srv.URL + "/v1/jobs/stream-me/rounds")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("rounds Content-Type = %q", ct)
	}
	var (
		rounds []Round
		final  Status
		done   bool
	)
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "round":
				var rd Round
				if err := json.Unmarshal([]byte(data), &rd); err != nil {
					t.Fatalf("round event data %q: %v", data, err)
				}
				rounds = append(rounds, rd)
			case "done":
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					t.Fatalf("done event data %q: %v", data, err)
				}
				done = true
			}
		}
		if done {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	if !done {
		t.Fatal("stream ended without a done event")
	}
	if len(rounds) != 3 {
		t.Fatalf("streamed %d rounds, want 3", len(rounds))
	}
	for i, rd := range rounds {
		if rd.Seq != i+1 || rd.Region != "svc" {
			t.Fatalf("round %d = %+v, want seq %d region svc", i, rd, i+1)
		}
	}
	if final.State != StateCompleted {
		t.Fatalf("done status state = %q, want completed", final.State)
	}

	// HTTP result must be byte-identical to the direct path at the same seed.
	want, _, err := RunDirect(context.Background(),
		core.NewRuntime(core.RuntimeOptions{MaxPool: 4}), testRegistry(nil), spec)
	if err != nil {
		t.Fatalf("RunDirect: %v", err)
	}
	if final.Result != want {
		t.Fatalf("HTTP result diverges from direct run:\n got %q\nwant %q", final.Result, want)
	}

	// Inspect and list agree.
	resp, err = http.Get(srv.URL + "/v1/jobs/stream-me")
	if err != nil {
		t.Fatal(err)
	}
	var got Status
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.State != StateCompleted || got.Result != want {
		t.Fatalf("GET job = %+v, want completed with direct-run result", got)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].Spec.Name != "stream-me" {
		t.Fatalf("list = %+v, want the one submitted job", list)
	}

	// Health endpoint.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	drainClose(t, resp)
}

// TestServerCancelRunning cancels a running job over HTTP and sees the
// cancelled state reflected.
func TestServerCancelRunning(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	release := make(chan struct{})
	defer close(release)
	m := NewManager(Options{
		Runtime:  core.NewRuntime(core.RuntimeOptions{MaxPool: 4}),
		Programs: testRegistry(release),
	})
	defer m.Close()
	srv := httptest.NewServer(NewServer(m, nil))
	defer srv.Close()

	drainClose(t, postSpec(t, srv.URL, core.JobSpec{Name: "victim", Program: "wait"}))
	waitCond(t, "victim running", func() bool {
		st, err := m.Get("victim")
		return err == nil && st.State == StateRunning
	})
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/victim", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d, want 202", resp.StatusCode)
	}
	drainClose(t, resp)
	waitCond(t, "victim cancelled", func() bool {
		st, err := m.Get("victim")
		return err == nil && st.State == StateCancelled
	})
}

// TestJobsMetricsExposition checks the jobs metric families reach the
// Prometheus endpoint: per-class queue gauges, the state counter, and the
// admission-wait histogram.
func TestJobsMetricsExposition(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	oreg := obs.NewRegistry()
	release := make(chan struct{})
	m := NewManager(Options{
		Runtime:    core.NewRuntime(core.RuntimeOptions{MaxPool: 4}),
		Programs:   testRegistry(release),
		MaxRunning: 1,
		Obs:        oreg,
	})
	defer m.Close()
	srv := httptest.NewServer(NewServer(m, oreg))
	defer srv.Close()

	// One running, one queued per class behind it.
	drainClose(t, postSpec(t, srv.URL, core.JobSpec{Name: "hold", Program: "wait"}))
	drainClose(t, postSpec(t, srv.URL, core.JobSpec{Name: "q-high", Program: "tune", Class: core.PriorityHigh}))
	drainClose(t, postSpec(t, srv.URL, core.JobSpec{Name: "q-low", Program: "tune", Class: core.PriorityLow}))
	close(release)
	waitCond(t, "all jobs completed", func() bool {
		for _, st := range m.List() {
			if !st.State.Terminal() {
				return false
			}
		}
		return true
	})

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		MetricJobsQueued + `{class="high"}`,
		MetricJobsQueued + `{class="low"}`,
		MetricJobsState + `{state="queued"}`,
		MetricJobsState + `{state="running"}`,
		MetricJobsState + `{state="completed"}`,
		MetricQueueWait + "_bucket",
		MetricQueueWait + "_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	// The completed-state counter should have retired all three jobs.
	if !strings.Contains(text, fmt.Sprintf(`%s{state="completed"} 3`, MetricJobsState)) {
		t.Errorf("expected 3 completed jobs in exposition:\n%s", text)
	}
}

// stallWriter is a streaming ResponseWriter whose first Flush — the rounds
// handler's header flush, right after it subscribed — reports in and then
// blocks until resume is closed.
type stallWriter struct {
	hdr     http.Header
	mu      sync.Mutex
	buf     bytes.Buffer
	once    sync.Once
	flushed chan struct{}
	resume  chan struct{}
}

func (w *stallWriter) Header() http.Header { return w.hdr }
func (w *stallWriter) WriteHeader(int)     {}
func (w *stallWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}
func (w *stallWriter) Flush() {
	w.once.Do(func() {
		close(w.flushed)
		<-w.resume
	})
}

// TestRoundsStreamDoneSurvivesEviction: a rounds stream ends with the job's
// final status even when the manager has forgotten the job by the time the
// handler gets to its closed channel — maxFinished later jobs finished while
// the handler was stalled on a slow client.
func TestRoundsStreamDoneSurvivesEviction(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	release := make(chan struct{})
	m := NewManager(Options{
		Runtime:  core.NewRuntime(core.RuntimeOptions{MaxPool: 4}),
		Programs: testRegistry(release), MaxRunning: 1,
	})
	defer m.Close()
	srv := NewServer(m, nil)
	mustSubmit(t, m, core.JobSpec{Name: "watched", Program: "wait"})

	w := &stallWriter{hdr: make(http.Header), flushed: make(chan struct{}), resume: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.ServeHTTP(w, httptest.NewRequest("GET", "/v1/jobs/watched/rounds", nil))
	}()
	<-w.flushed // the handler holds its subscription and is stalled

	close(release) // "watched" completes, and so does every wait job after it
	for i := 0; i < maxFinished; i++ {
		name := fmt.Sprintf("later-%d", i)
		mustSubmit(t, m, core.JobSpec{Name: name, Program: "wait"})
		if _, err := m.Wait(context.Background(), name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Get("watched"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(watched) = %v; the test needs it forgotten before the handler resumes", err)
	}

	close(w.resume)
	<-served
	out := w.buf.String()
	i := strings.Index(out, "event: done\n")
	if i < 0 {
		t.Fatalf("stream ended without a done event:\n%s", out)
	}
	var st Status
	data := strings.TrimPrefix(strings.SplitN(out[i:], "\n", 3)[1], "data: ")
	if err := json.Unmarshal([]byte(data), &st); err != nil {
		t.Fatalf("done event data %q: %v", data, err)
	}
	if st.State != StateCompleted || st.Result != "done" || st.Spec.Name != "watched" {
		t.Errorf("done event carries %+v, want watched completed with its result", st)
	}
}

// flushCounter is a streaming ResponseWriter that counts its flushes.
type flushCounter struct {
	hdr     http.Header
	buf     bytes.Buffer
	flushes int
}

func (w *flushCounter) Header() http.Header         { return w.hdr }
func (w *flushCounter) WriteHeader(int)             {}
func (w *flushCounter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *flushCounter) Flush()                      { w.flushes++ }

// TestRoundsStreamFlushesPerBatch: a subscriber that joins a finished
// 8-round job gets its whole history in at most two flushes — the past
// rounds with the headers, then the "done" event — not one per event.
func TestRoundsStreamFlushesPerBatch(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	reg := NewRegistry()
	reg.Register("tune8", func(spec core.JobSpec) (RunFunc, error) {
		return tuneProgram(8, 0, nil), nil
	})
	m := NewManager(Options{Runtime: core.NewRuntime(core.RuntimeOptions{MaxPool: 4}), Programs: reg})
	defer m.Close()
	mustSubmit(t, m, core.JobSpec{Name: "eight", Program: "tune8", Seed: 3})
	if st, err := m.Wait(context.Background(), "eight"); err != nil || st.State != StateCompleted {
		t.Fatalf("Wait: %+v, %v", st, err)
	}
	w := &flushCounter{hdr: make(http.Header)}
	NewServer(m, nil).ServeHTTP(w, httptest.NewRequest("GET", "/v1/jobs/eight/rounds", nil))
	out := w.buf.String()
	if n := strings.Count(out, "event: round\n"); n != 8 {
		t.Fatalf("stream carried %d round events, want 8:\n%s", n, out)
	}
	if !strings.Contains(out, "event: done\n") {
		t.Fatalf("stream ended without a done event:\n%s", out)
	}
	if w.flushes > 2 {
		t.Fatalf("%d flushes for 9 ready events, want at most 2", w.flushes)
	}
}
