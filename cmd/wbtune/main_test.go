package main

import (
	"math"
	"strings"
	"testing"
)

// TestConfigCheck pins the flag combinations main refuses with exit 2. A
// budget that is negative, NaN or infinite never stops a black-box search
// (it would run to OpenTuner's evaluation cap), so it is refused up front.
func TestConfigCheck(t *testing.T) {
	ok := config{seed: 1, ckptEvery: 8, fleetMin: 1}
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
		{"fleet", with(func(c *config) { c.fleetMin, c.fleetMax = 2, 4 }), ""},
		{"fleet-min without fleet-max", with(func(c *config) { c.fleetMin = 2 }), "-fleet-min requires -fleet-max"},
		{"fleet-min above fleet-max", with(func(c *config) { c.fleetMin, c.fleetMax = 3, 2 }), "-fleet-min exceeds -fleet-max"},
		{"checkpoint and resume", with(func(c *config) { c.ckptDir, c.resume = "d", true }), ""},
		{"resume without checkpoint-dir", with(func(c *config) { c.resume = true }), "-resume requires -checkpoint-dir"},
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
