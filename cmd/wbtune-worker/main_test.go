package main

import (
	"fmt"
	"testing"
)

// TestConfigCheck covers the flag checks main exits 2 on.
func TestConfigCheck(t *testing.T) {
	for _, c := range []struct {
		cfg config
		err string
	}{
		{config{}, ""},
		{config{slots: 4}, ""},
		{config{slots: -1}, "-slots -1: want a non-negative integer"},
	} {
		err := c.cfg.check()
		if got := fmt.Sprint(err); c.err == "" && err != nil || c.err != "" && got != c.err {
			t.Errorf("%+v: check() = %v, want %q", c.cfg, err, c.err)
		}
	}
}
