package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/leakcheck"
)

// TestSmokeWbtuned boots a full wbtuned daemon on a loopback port, submits
// a small Canny job over HTTP, streams its rounds over SSE to completion, and
// shuts the daemon down cleanly. That the result equals a direct run's is the
// determinism matrix's.
func TestSmokeWbtuned(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	cfg := config{
		httpAddr: "127.0.0.1:0",
		storeDir: t.TempDir(),
		pool:     4,
	}
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatalf("newDaemon: %v", err)
	}
	// The store directory has one writer: a second daemon on it is refused.
	if _, err := newDaemon(cfg); !errors.Is(err, checkpoint.ErrStoreLocked) {
		t.Fatalf("second daemon on the same -store: %v, want ErrStoreLocked", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- d.serve() }()
	base := "http://" + d.addr()

	// Liveness first: the listener is bound before serve, so one probe does.
	resp, err := http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %v, %v", resp, err)
	}
	resp.Body.Close()

	// A small Canny: tiny sample counts keep the smoke fast while still
	// exercising both pipeline stages and the split fan-out.
	spec := core.JobSpec{
		Name:    "smoke-canny",
		Program: "canny",
		Seed:    3,
		Args:    map[string]string{"stage1": "4", "stage2": "3"},
	}
	final, rounds := followJob(t, base, postJob(t, base, spec))
	if len(rounds) == 0 {
		t.Fatal("no round events streamed")
	}
	if final.State != jobs.StateCompleted {
		t.Fatalf("job finished in state %q (error %q), want completed", final.State, final.Error)
	}
	if !strings.Contains(final.Result, "tuned=true") {
		t.Fatalf("result does not report a tuned detector: %q", final.Result)
	}

	// Metrics endpoint carries the jobs families.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{jobs.MetricJobsQueued, jobs.MetricJobsState, jobs.MetricQueueWait} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Clean shutdown.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.shutdown(ctx)
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	// Shutdown released the directory for the next process.
	ds, err := checkpoint.NewDirStore(cfg.storeDir)
	if err != nil {
		t.Fatalf("store directory after shutdown: %v", err)
	}
	ds.Close()
}

// postJob submits spec to the service at base and returns its name.
func postJob(t *testing.T, base string, spec core.JobSpec) string {
	body, _ := json.Marshal(spec)
	call(t, "POST", base+"/v1/jobs", body, http.StatusAccepted)
	return spec.Name
}

// call sends one API request and returns the job status it answers,
// failing the test on any status code but want.
func call(t *testing.T, method, url string, body []byte, want int) jobs.Status {
	t.Helper()
	var st jobs.Status
	req, _ := http.NewRequest(method, url, bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if err = json.Unmarshal(b, &st); resp.StatusCode != want {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, b)
		}
	}
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return st
}

// followJob follows a job's SSE round stream at the service at base to the
// done event and returns the job's final status and the rounds streamed.
func followJob(t *testing.T, base, name string) (jobs.Status, []jobs.Round) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + name + "/rounds")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rounds []jobs.Round
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if kind, ok := strings.CutPrefix(line, "event: "); ok {
			event = kind
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var err error
		switch event {
		case "round":
			rounds = append(rounds, jobs.Round{})
			err = json.Unmarshal([]byte(data), &rounds[len(rounds)-1])
		case "done":
			var st jobs.Status
			if err = json.Unmarshal([]byte(data), &st); err == nil {
				return st, rounds
			}
		}
		if err != nil {
			t.Fatalf("%s: %s event: %v", name, event, err)
		}
	}
	t.Fatalf("%s: stream ended without a done event: %v", name, sc.Err())
	return jobs.Status{}, nil
}

// TestQuotaFlagParsing covers the -quota grammar.
func TestQuotaFlagParsing(t *testing.T) {
	quotas := make(map[string]jobs.TenantQuota)
	if err := parseQuota("acme=running:2,queued:8,rate:5,burst:2", quotas); err != nil {
		t.Fatal(err)
	}
	want := jobs.TenantQuota{MaxRunning: 2, MaxQueued: 8, RatePerSec: 5, Burst: 2}
	if quotas["acme"] != want {
		t.Fatalf("parsed %+v, want %+v", quotas["acme"], want)
	}
	if err := parseQuota("solo=running:1", quotas); err != nil {
		t.Fatal(err)
	}
	if quotas["solo"] != (jobs.TenantQuota{MaxRunning: 1}) {
		t.Fatalf("parsed %+v", quotas["solo"])
	}
	for _, bad := range []string{"", "=running:1", "x", "x=", "x=running", "x=running:-1", "x=zap:3", "x=rate:nope", "x=rate:NaN", "x=rate:Inf"} {
		if err := parseQuota(bad, quotas); err == nil {
			t.Errorf("parseQuota(%q) accepted garbage", bad)
		}
	}
}

// TestConfigCheck covers the flag checks main exits 2 on. fleetMin is 1
// when -fleet-min is not given.
func TestConfigCheck(t *testing.T) {
	for _, c := range []struct {
		cfg config
		err string
	}{
		{config{fleetMin: 1}, ""},
		{config{fleetMin: 1, fleetMax: 4}, ""},
		{config{fleetMin: 4, fleetMax: 4}, ""},
		{config{fleetMin: 0, fleetMax: 4}, ""},
		{config{fleetMin: 1, pool: 8, maxRunning: 2, queueLimit: 16}, ""},
		{config{fleetMin: 2}, "-fleet-min requires -fleet-max"},
		{config{fleetMin: 0}, "-fleet-min requires -fleet-max"},
		{config{fleetMin: 5, fleetMax: 4}, "-fleet-min exceeds -fleet-max"},
		{config{fleetMin: 1, pool: -1}, "-pool -1: want a non-negative integer"},
		{config{fleetMin: 1, maxRunning: -1}, "-max-running -1: want a non-negative integer"},
		{config{fleetMin: 1, queueLimit: -3}, "-queue-limit -3: want a non-negative integer"},
		{config{fleetMin: -1, fleetMax: 2}, "-fleet-min -1: want a non-negative integer"},
		{config{fleetMin: 1, fleetMax: -2}, "-fleet-max -2: want a non-negative integer"},
	} {
		err := c.cfg.check()
		if got := fmt.Sprint(err); c.err == "" && err != nil || c.err != "" && got != c.err {
			t.Errorf("%+v: check() = %v, want %q", c.cfg, err, c.err)
		}
	}
}
