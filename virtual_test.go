package repro

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// raceFlags holds -race when this test binary was built with it (race_test.go),
// so the bubbles run under the race detector whenever the suite does.
var raceFlags []string

// TestSynctestSuite runs every TestVirtual* test — the fault layer, the
// scheduler queue, the fleet controller and the job quotas, asserted at exact
// instants of a synctest bubble's clock — under plain `go test ./...`. Their
// files build only with GOEXPERIMENT=synctest, so it re-runs their packages
// with it and reports each of their tests as a subtest here. By hand:
//
//	GOEXPERIMENT=synctest go test -run '^TestVirtual' ./internal/core/ ./internal/sched/ ./internal/remote/ ./internal/jobs/
func TestSynctestSuite(t *testing.T) {
	pkgs := []string{"core", "sched", "remote", "jobs"}
	args := append([]string{"test", "-count=1", "-json", "-run", "^TestVirtual"}, raceFlags...)
	for _, p := range pkgs {
		args = append(args, "./internal/"+p+"/")
	}
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "GOEXPERIMENT=synctest")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, runErr := cmd.Output()

	// Each top-level test's final action and output, in the order they ran.
	type result struct{ action, output string }
	results := map[string]*result{}
	var order []string
	ran := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev struct{ Action, Package, Test, Output string }
		if json.Unmarshal(sc.Bytes(), &ev) != nil || ev.Test == "" {
			continue
		}
		top, _, nested := strings.Cut(ev.Test, "/")
		pkg := strings.TrimPrefix(ev.Package, "repro/internal/")
		key := pkg + "/" + top
		if results[key] == nil {
			results[key] = &result{}
			order = append(order, key)
			ran[pkg] = true
		}
		results[key].output += ev.Output
		if !nested && (ev.Action == "pass" || ev.Action == "fail") {
			results[key].action = ev.Action
		}
	}
	for _, p := range pkgs {
		if !ran[p] {
			t.Errorf("internal/%s ran no TestVirtual test", p)
		}
	}
	failed := false
	for _, key := range order {
		r := results[key]
		t.Run(key, func(t *testing.T) {
			if r.action != "pass" {
				failed = true
				t.Errorf("%s\n%s", r.action, r.output)
			}
		})
	}
	if runErr != nil && !failed {
		t.Fatalf("go %s: %v\n%s%s", strings.Join(args, " "), runErr, stderr.Bytes(), out)
	}
}
