package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// goldenTraceRun executes the reference faulty tuning program: one pool slot
// (so completion order is launch order), a logical trace clock, and a seeded
// fault schedule covering transient-retry, panic containment, timeout
// abandonment, and result corruption. Everything that reaches the trace is a
// pure function of the seeds.
func goldenTraceRun(t *testing.T) []byte {
	t.Helper()
	inj := faultinject.New(1234, faultinject.Config{
		HangRate: 0.10, PanicRate: 0.15, TransientRate: 0.25, CorruptRate: 0.15,
	})
	tr := NewTrace()
	tr.setClock(counterClock())
	tuner := New(Options{
		MaxPool: 1, Seed: 1234, Trace: tr,
		Fault: FaultPolicy{
			SampleTimeout: 25 * time.Millisecond,
			MaxAttempts:   3,
			Backoff:       100 * time.Microsecond,
			DegradeEmpty:  true,
		},
	})
	run(t, tuner, func(p *P) error {
		_, err := p.Region(RegionSpec{
			Name: "golden", Samples: 10,
			Score: func(sp *SP) float64 { return sp.MustGet("v").(float64) },
		}, func(sp *SP) error {
			f := inj.At("golden", sp.Index(), sp.Attempt())
			if err := faultinject.Apply(sp.Context(), "golden", f); err != nil {
				return err
			}
			sp.Commit("v", f.CorruptFloat(float64(sp.Index())))
			return nil
		})
		return err
	})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTraceDeterminism pins the fault layer's replay guarantee: the
// same tuner seed and the same fault-injection seed produce a byte-identical
// JSONL trace — across runs in this process and against the checked-in
// golden file (which proves it holds across machines and Go versions too).
// Regenerate with GOLDEN_UPDATE=1 go test -run TestGoldenTraceDeterminism.
func TestGoldenTraceDeterminism(t *testing.T) {
	got := goldenTraceRun(t)
	if again := goldenTraceRun(t); !bytes.Equal(got, again) {
		t.Fatalf("two in-process runs diverged:\n--- first\n%s--- second\n%s", got, again)
	}

	path := filepath.Join("testdata", "golden_trace.jsonl")
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden trace updated: %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace diverged from golden %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
