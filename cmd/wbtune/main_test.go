package main

import (
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/jobs"
)

// TestConfigCheck pins the flag combinations main refuses with exit 2. A
// budget that is negative, NaN or infinite never stops a black-box search
// (it would run to OpenTuner's evaluation cap), so it is refused up front. A
// client-mode flag without -server would be silently ignored by a local run.
func TestConfigCheck(t *testing.T) {
	ok := config{seed: 1}
	with := func(f func(*config)) config {
		c := ok
		f(&c)
		return c
	}
	for _, tc := range []struct {
		name string
		cfg  config
		want string // "" = accepted; else a substring of the error
	}{
		{"defaults", ok, ""},
		{"positive budget", with(func(c *config) { c.budget = 200 }), ""},
		{"negative budget", with(func(c *config) { c.budget = -1 }), "-budget"},
		{"NaN budget", with(func(c *config) { c.budget = math.NaN() }), "-budget"},
		{"+Inf budget", with(func(c *config) { c.budget = math.Inf(1) }), "-budget"},
		{"-Inf budget", with(func(c *config) { c.budget = math.Inf(-1) }), "-budget"},
		{"checkpoint every round", with(func(c *config) { c.server, c.ckptEvery = "http://h", 1 }), ""},
		{"negative checkpoint-every", with(func(c *config) { c.server, c.ckptEvery = "http://h", -1 }), "-checkpoint-every -1"},
		{"server", with(func(c *config) { c.server = "http://h" }), ""},
		{"client flags with server", with(func(c *config) {
			c.server = "http://h"
			c.client = []string{"program", "arg", "tenant", "class", "job-name", "checkpoint-every"}
		}), ""},
		{"program without server", with(func(c *config) { c.client = []string{"program"} }), "-program requires -server"},
		{"arg without server", with(func(c *config) { c.client = []string{"arg"} }), "-arg requires -server"},
		{"tenant without server", with(func(c *config) { c.client = []string{"tenant"} }), "-tenant requires -server"},
		{"class without server", with(func(c *config) { c.client = []string{"class"} }), "-class requires -server"},
		{"job-name without server", with(func(c *config) { c.client = []string{"job-name"} }), "-job-name requires -server"},
		{"checkpoint-every without server", with(func(c *config) { c.client = []string{"checkpoint-every"} }), "-checkpoint-every requires -server"},
	} {
		err := tc.cfg.check()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestClientStreamsItsOwnJob submits jobs whose names a URL path cannot
// carry raw ("#" starts a fragment, "?" a query, "%" an escape) to a wbtuned
// server and checks the client follows each job's own round stream to its
// result, which equals a direct run of the same spec.
func TestClientStreamsItsOwnJob(t *testing.T) {
	reg := jobs.NewRegistry()
	bench.RegisterPrograms(reg)
	rt := core.NewRuntime(core.RuntimeOptions{MaxPool: 4})
	m := jobs.NewManager(jobs.Options{Runtime: rt, Programs: reg})
	defer m.Close()
	srv := httptest.NewServer(jobs.NewServer(m, nil))
	defer srv.Close()

	for i, name := range []string{"a#b", "a?b", "a%zz", "a b"} {
		spec := core.JobSpec{Name: name, Program: "synthetic", Seed: int64(i + 1)}
		want, _, err := jobs.RunDirect(context.Background(), rt, reg, spec)
		if err != nil {
			t.Fatalf("%q: RunDirect: %v", name, err)
		}
		var out strings.Builder
		if code := runServerMode(&out, srv.URL, spec); code != 0 {
			t.Errorf("%q: exit %d\n%s", name, code, out.String())
			continue
		}
		if got := out.String(); !strings.HasSuffix(got, "result:\n"+want) {
			t.Errorf("%q: client printed\n%s\nwant the result\n%s", name, got, want)
		}
	}
}
