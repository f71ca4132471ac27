package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/remote"
)

// outcomeBits renders an Outcome at full precision, so two renderings are
// equal exactly when the outcomes are bit-equal (NaN scores included).
func outcomeBits(o Outcome) string {
	return fmt.Sprintf("%x %x %x %x %x %d\n",
		math.Float64bits(o.Score), math.Float64bits(o.Internal), math.Float64bits(o.Work),
		math.Float64bits(o.WorkSerial), math.Float64bits(o.WorkParallel), o.Samples)
}

// TestCheckpointChild is the subprocess body of the crash-replay suite: it
// tunes Canny at seed 1 on a pool of 8 and writes the outcome's bits,
// optionally checkpointing to WBTUNE_CKPT_DIR (resuming when
// WBTUNE_CKPT_RESUME is set) and optionally dispatching sampling to a
// two-worker loopback fleet (WBTUNE_CKPT_MODE=net). The parent injects kills
// via WBTUNE_CRASH, so this process may never reach the output write — that
// is the point.
func TestCheckpointChild(t *testing.T) {
	if os.Getenv("WBTUNE_CKPT_CHILD") == "" {
		t.Skip("crash-replay child; driven by TestCheckpointResumeTable1Parity")
	}
	opts := core.RuntimeOptions{MaxPool: 8}
	var rt *core.Runtime
	if os.Getenv("WBTUNE_CKPT_MODE") == "net" {
		frt, stop, err := remote.StartLoopbackFleet(2, 2, opts)
		if err != nil {
			t.Fatalf("loopback fleet: %v", err)
		}
		defer stop()
		rt = frt
	} else {
		rt = core.NewRuntime(opts)
	}
	jo := core.JobOptions{Seed: 1}
	var resume *checkpoint.State
	if dir := os.Getenv("WBTUNE_CKPT_DIR"); dir != "" {
		store, err := checkpoint.NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		jo.Checkpoint = &core.CheckpointPolicy{Store: store, Every: 1, Label: "run001"}
		if os.Getenv("WBTUNE_CKPT_RESUME") != "" {
			if resume, err = checkpoint.LoadFrom(store, "run001"); err != nil {
				t.Fatal(err)
			}
		}
	}
	tu := (*core.Tuner)(nil)
	if resume == nil {
		tu = rt.NewJob(jo)
	} else {
		var err error
		if tu, err = rt.ResumeJob(jo, resume); err != nil {
			t.Fatalf("ResumeJob: %v", err)
		}
	}
	defer tu.Close()
	out, err := CannyBench{}.Tune(context.Background(), tu, 1)
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if err := os.WriteFile(os.Getenv("WBTUNE_CKPT_OUT"), []byte(outcomeBits(out)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// childRun re-execs this test binary as a TestCheckpointChild process.
func childRun(t *testing.T, mode, dir string, resume bool, crash, out string) error {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCheckpointChild$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		"WBTUNE_CKPT_CHILD=1",
		"WBTUNE_CKPT_MODE="+mode,
		"WBTUNE_CKPT_DIR="+dir,
		"WBTUNE_CKPT_OUT="+out,
	)
	if resume {
		cmd.Env = append(cmd.Env, "WBTUNE_CKPT_RESUME=1")
	}
	if crash != "" {
		cmd.Env = append(cmd.Env, "WBTUNE_CRASH="+crash)
	}
	var output bytes.Buffer
	cmd.Stdout, cmd.Stderr = &output, &output
	err := cmd.Run()
	if err != nil && crash == "" {
		t.Fatalf("child (mode=%s dir=%s resume=%v) failed: %v\n%s", mode, dir, resume, err, output.String())
	}
	return err
}

// TestCheckpointResumeTable1Parity is the headline crash-recovery gate: a
// Canny Table I tuning process SIGKILLed at a seeded auto-checkpoint — on
// either side of the store's record write — then resumed in a fresh process
// must produce an outcome bit-equal to an uninterrupted process's. Both the
// in-process executor and a loopback worker fleet are proven.
func TestCheckpointResumeTable1Parity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process crash-replay suite; skipped in -short")
	}
	for _, mode := range []string{"local", "net"} {
		t.Run(mode, func(t *testing.T) {
			base := t.TempDir()
			controlOut := filepath.Join(base, "control.out")
			childRun(t, mode, "", false, "", controlOut)
			control, err := os.ReadFile(controlOut)
			if err != nil {
				t.Fatalf("control output: %v", err)
			}

			// The total save count is timing-dependent (round exits skip an
			// auto-checkpoint while a write is in flight, and the last save
			// is the final complete one), but the first save is always the
			// first round's auto-checkpoint and a second save always
			// follows. So kill after the first write (survivor: save 1) or
			// before the second save's write (survivor: still save 1) — the
			// surviving checkpoint is partial in every timing.
			for site, k := range map[string]int{"ckpt-pre-write": 2, "ckpt-post-write": 1} {
				dir := filepath.Join(base, mode+"-"+site)
				crashOut := filepath.Join(dir, "crash.out")

				err := childRun(t, mode, dir, false, fmt.Sprintf("%s:%d", site, k), crashOut)
				var ee *exec.ExitError
				if !errors.As(err, &ee) {
					t.Fatalf("%s:%d: crash child exited cleanly; kill not injected", site, k)
				}
				ws, ok := ee.Sys().(syscall.WaitStatus)
				if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
					t.Fatalf("%s:%d: crash child died with %v, want SIGKILL", site, k, err)
				}
				if _, err := os.Stat(crashOut); err == nil {
					t.Fatalf("%s:%d: crash child produced output despite dying", site, k)
				}
				// The kill must have left a parseable, resumable checkpoint:
				// either the previous save (pre-write) or the k-th one.
				ds, err := checkpoint.NewDirStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				st, err := checkpoint.LoadFrom(ds, "run001")
				ds.Close() // the resume child is the directory's next writer
				if err != nil || st == nil {
					t.Fatalf("%s:%d: no checkpoint survived the kill: %v", site, k, err)
				}
				if st.Complete {
					t.Fatalf("%s:%d: kill at save %d left a complete checkpoint", site, k, k)
				}

				resumeOut := filepath.Join(dir, "resume.out")
				childRun(t, mode, dir, true, "", resumeOut)
				resumed, err := os.ReadFile(resumeOut)
				if err != nil {
					t.Fatalf("resume output: %v", err)
				}
				if !bytes.Equal(resumed, control) {
					t.Errorf("%s (%s:%d): resumed run diverged from uninterrupted run\n--- uninterrupted ---\n%s--- resumed ---\n%s",
						mode, site, k, control, resumed)
				}
			}
		})
	}
}

// tuneParity is the bench layer's determinism table: for each Table I
// program at seed 1, the outcome of Tune is bit-equal to WBTune's on a
// runtime in-process and on a two-worker loopback fleet. With recorded set,
// every job is also recorded every round to a MemStore, and every checkpoint
// write must succeed, which pins that every value type a program commits
// stays representable (see the registrations in checkpoint.go).
func tuneParity(t *testing.T, recorded bool) {
	t.Helper()
	t.Cleanup(leakcheck.Check(t))
	opts := core.RuntimeOptions{MaxPool: 8}
	fleet, stop, err := remote.StartLoopbackFleet(2, 2, opts)
	if err != nil {
		t.Fatalf("loopback fleet: %v", err)
	}
	t.Cleanup(stop)
	runtimes := []struct {
		name string
		rt   *core.Runtime
	}{{"local", core.NewRuntime(opts)}, {"fleet", fleet}}

	for _, b := range All() {
		t.Run(b.Name(), func(t *testing.T) {
			want := outcomeBits(b.WBTune(1, 0))
			for _, r := range runtimes {
				jo := core.JobOptions{Seed: 1}
				if recorded {
					jo.Checkpoint = &core.CheckpointPolicy{Store: &checkpoint.MemStore{}, Every: 1}
				}
				tu := r.rt.NewJob(jo)
				out, err := b.Tune(context.Background(), tu, 1)
				tu.Close()
				if err != nil {
					t.Errorf("%s: Tune: %v", r.name, err)
				}
				if got := outcomeBits(out); got != want {
					t.Errorf("%s: outcome %q, WBTune %q", r.name, got, want)
				}
				if err := tu.SaveErr(); err != nil {
					t.Errorf("%s: checkpoint write failed: %v", r.name, err)
				}
			}
		})
	}
}

// TestCheckpointAllBenchmarksParity pins that recording never perturbs a
// run: every Table I program, recorded every round to a MemStore in-process
// and on a loopback fleet, ends bit-equal to its unrecorded WBTune outcome,
// and every checkpoint write succeeds.
func TestCheckpointAllBenchmarksParity(t *testing.T) {
	if testing.Short() {
		t.Skip("13 programs three times over; skipped in -short")
	}
	tuneParity(t, true)
}
