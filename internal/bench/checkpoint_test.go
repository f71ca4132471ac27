package bench

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/remote"
)

// cannyRow renders the Canny Table I row at seed 1 — the workload of the
// crash-replay suite. One row keeps the child runs short while still
// exercising the full white-box pipeline: expose, two-stage sampling,
// pruning, splits, custom aggregation, and opaque image commits.
func cannyRow() string {
	var buf bytes.Buffer
	WriteTable1(&buf, []Table1Row{Table1(CannyBench{}, 1)})
	return buf.String()
}

// ckptFleet hooks every white-box run onto a two-worker loopback fleet,
// as in TestDistributedTable1Parity. It returns a teardown func.
func ckptFleet() (teardown func(), err error) {
	reg := remote.NewRegistry()
	vals := remote.NewValueTable()
	ex := remote.NewExecutor(remote.ExecutorOptions{Registry: reg, Dynamic: true, Values: vals})
	var workers []*remote.Worker
	for i := 0; i < 2; i++ {
		w := remote.NewWorker(remote.WorkerOptions{
			Name: fmt.Sprintf("ckpt-w%d", i), Slots: 4, Registry: reg, Values: vals,
		})
		a, b := net.Pipe()
		go w.ServeConn(a)
		if err := ex.AddConn(b); err != nil {
			return nil, err
		}
		workers = append(workers, w)
	}
	prev := OptionsHook
	OptionsHook = func(o core.Options) core.Options {
		if prev != nil {
			o = prev(o)
		}
		o.Executor = ex
		return o
	}
	return func() {
		OptionsHook = prev
		ex.Close()
		for _, w := range workers {
			w.Close()
		}
	}, nil
}

// TestCheckpointChild is the subprocess body of the crash-replay suite: it
// renders the Canny Table I row, optionally checkpointing to
// WBTUNE_CKPT_DIR (resuming when WBTUNE_CKPT_RESUME is set) and optionally
// dispatching sampling to a loopback worker fleet (WBTUNE_CKPT_MODE=net).
// The parent injects kills via WBTUNE_CRASH, so this process may never
// reach the output write — that is the point.
func TestCheckpointChild(t *testing.T) {
	if os.Getenv("WBTUNE_CKPT_CHILD") == "" {
		t.Skip("crash-replay child; driven by TestCheckpointResumeTable1Parity")
	}
	if os.Getenv("WBTUNE_CKPT_MODE") == "net" {
		teardown, err := ckptFleet()
		if err != nil {
			t.Fatalf("loopback fleet: %v", err)
		}
		defer teardown()
	}
	if dir := os.Getenv("WBTUNE_CKPT_DIR"); dir != "" {
		restore, err := EnableCheckpointing(dir, 1, os.Getenv("WBTUNE_CKPT_RESUME") != "")
		if err != nil {
			t.Fatalf("EnableCheckpointing: %v", err)
		}
		defer restore()
	}
	out := cannyRow()
	if err := os.WriteFile(os.Getenv("WBTUNE_CKPT_OUT"), []byte(out), 0o644); err != nil {
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
// Canny Table I row whose tuning process is SIGKILLed at a seeded
// auto-checkpoint — on either side of the store's record write — then
// resumed in a fresh process must render byte for byte what an
// uninterrupted process renders. Both the in-process executor and a
// loopback worker fleet are proven.
func TestCheckpointResumeTable1Parity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process crash-replay suite; skipped in -short")
	}
	registerCommitTypes() // this process decodes the crashed checkpoints
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

// TestCheckpointAllBenchmarksParity records the full Table I sweep with
// per-round auto-checkpoints to an in-memory store and requires (a) the
// rendered table to match the unrecorded sweep byte for byte — recording
// must never perturb a run — and (b) every job's checkpoint writes to have
// succeeded, which pins that every value type any benchmark commits stays
// representable (the gob registry in EnableCheckpointing is complete).
func TestCheckpointAllBenchmarksParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table I sweep twice; skipped in -short")
	}
	plain := renderTable1(1)

	registerCommitTypes()
	var tuners []*core.Tuner
	prevO, prevT := OptionsHook, TunerHook
	OptionsHook = func(o core.Options) core.Options {
		o.Checkpoint = &core.CheckpointPolicy{Store: &checkpoint.MemStore{}, Every: 1}
		return o
	}
	TunerHook = func(tu *core.Tuner) { tuners = append(tuners, tu) }
	defer func() { OptionsHook, TunerHook = prevO, prevT }()

	recorded := renderTable1(1)
	if recorded != plain {
		t.Errorf("recording perturbed Table I\n--- plain ---\n%s--- recorded ---\n%s", plain, recorded)
	}
	if len(tuners) == 0 {
		t.Fatal("no tuners created")
	}
	for i, tu := range tuners {
		if err := tu.SaveErr(); err != nil {
			t.Errorf("job %d: checkpoint write failed: %v", i, err)
		}
	}
}
