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

	"repro/internal/bench"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/leakcheck"
)

// TestSmokeWbtuned boots a full wbtuned daemon on a loopback port, submits
// a small Canny job over HTTP, streams its rounds over SSE to completion,
// checks the result is byte-identical to a direct run of the same spec, and
// shuts the daemon down cleanly.
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

	// Liveness first.
	waitUp(t, base+"/healthz")

	// A small Canny: tiny sample counts keep the smoke fast while still
	// exercising both pipeline stages and the split fan-out.
	spec := core.JobSpec{
		Name:    "smoke-canny",
		Program: "canny",
		Seed:    3,
		Args:    map[string]string{"stage1": "4", "stage2": "3"},
	}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// Stream rounds until done.
	resp, err = http.Get(base + "/v1/jobs/smoke-canny/rounds")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var final jobs.Status
	rounds, done := 0, false
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() && !done {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			switch event {
			case "round":
				rounds++
			case "done":
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &final); err != nil {
					t.Fatalf("done event: %v", err)
				}
				done = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("SSE stream: %v", err)
	}
	if !done {
		t.Fatal("stream ended without a done event")
	}
	if rounds == 0 {
		t.Fatal("no round events streamed")
	}
	if final.State != jobs.StateCompleted {
		t.Fatalf("job finished in state %q (error %q), want completed", final.State, final.Error)
	}
	if !strings.Contains(final.Result, "tuned=true") {
		t.Fatalf("result does not report a tuned detector: %q", final.Result)
	}

	// Determinism across the control plane: the HTTP-submitted run equals a
	// direct run of the same spec, byte for byte.
	reg := jobs.NewRegistry()
	bench.RegisterPrograms(reg)
	want, _, err := jobs.RunDirect(context.Background(),
		core.NewRuntime(core.RuntimeOptions{MaxPool: 4}), reg, spec)
	if err != nil {
		t.Fatalf("RunDirect: %v", err)
	}
	if final.Result != want {
		t.Fatalf("HTTP result diverges from direct run:\n got %q\nwant %q", final.Result, want)
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

// TestConfigCheck covers the fleet flag checks main exits 2 on. fleetMin is 1
// when -fleet-min is not given.
func TestConfigCheck(t *testing.T) {
	for _, c := range []struct {
		min, max int
		err      string
	}{
		{1, 0, ""},
		{1, 4, ""},
		{4, 4, ""},
		{0, 4, ""},
		{2, 0, "-fleet-min requires -fleet-max"},
		{0, 0, "-fleet-min requires -fleet-max"},
		{5, 4, "-fleet-min exceeds -fleet-max"},
	} {
		err := config{fleetMin: c.min, fleetMax: c.max}.check()
		if got := fmt.Sprint(err); c.err == "" && err != nil || c.err != "" && got != c.err {
			t.Errorf("-fleet-min %d -fleet-max %d: check() = %v, want %q", c.min, c.max, err, c.err)
		}
	}
}

func waitUp(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server at %s never came up: %v", url, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
