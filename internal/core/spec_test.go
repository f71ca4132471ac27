package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

func sampleSpec() *JobSpec {
	return &JobSpec{
		Name:        "canny-night",
		Tenant:      "vision",
		Class:       PriorityHigh,
		Program:     "canny",
		Args:        map[string]string{"scene": "night", "stage1": "3"},
		Seed:        42,
		Budget:      1500,
		Incremental: true,
		Share:       2,
		MaxParallel: 4,
		Fault: &FaultPolicy{
			SampleTimeout: 50 * time.Millisecond,
			RegionBudget:  time.Second,
			MaxAttempts:   3,
			Backoff:       time.Millisecond,
			BackoffFactor: 2,
			MaxBackoff:    100 * time.Millisecond,
			DegradeEmpty:  true,
		},
		Checkpoint: &CheckpointSpec{Every: 2, MinSlots: 3},
	}
}

func TestSpecRoundTrip(t *testing.T) {
	want := sampleSpec()
	data, err := EncodeSpec(want)
	if err != nil {
		t.Fatalf("EncodeSpec: %v", err)
	}
	got, err := DecodeSpec(data)
	if err != nil {
		t.Fatalf("DecodeSpec: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	// Minimal spec: only the required fields, nil policies.
	min := &JobSpec{Name: "j", Program: "p", Seed: 7}
	data, err = EncodeSpec(min)
	if err != nil {
		t.Fatalf("EncodeSpec(min): %v", err)
	}
	got, err = DecodeSpec(data)
	if err != nil {
		t.Fatalf("DecodeSpec(min): %v", err)
	}
	if !reflect.DeepEqual(got, min) {
		t.Fatalf("minimal round trip mismatch:\n got %+v\nwant %+v", got, min)
	}
}

func TestSpecEncodingCanonical(t *testing.T) {
	a := sampleSpec()
	b := sampleSpec()
	// Rebuild the args map in a different insertion order; the encoding
	// must not depend on it.
	b.Args = map[string]string{"stage1": "3", "scene": "night"}
	da, err := EncodeSpec(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := EncodeSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(da) != string(db) {
		t.Fatal("equal specs encoded to different bytes")
	}
}

func TestSpecDecodeRefusals(t *testing.T) {
	good, err := EncodeSpec(sampleSpec())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte("XXXX"), good[4:]...)
		if _, err := DecodeSpec(bad); !errors.Is(err, ErrSpecCorrupt) {
			t.Fatalf("got %v, want ErrSpecCorrupt", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[4] = SpecVersion + 1 // single-byte uvarint
		if _, err := DecodeSpec(bad); !errors.Is(err, ErrSpecVersion) {
			t.Fatalf("got %v, want ErrSpecVersion", err)
		}
	})
	t.Run("flipped body byte", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)/2] ^= 0x40
		if _, err := DecodeSpec(bad); !errors.Is(err, ErrSpecCorrupt) {
			t.Fatalf("got %v, want ErrSpecCorrupt", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(good); cut += 7 {
			if _, err := DecodeSpec(good[:cut]); err == nil {
				t.Fatalf("decode of %d/%d bytes succeeded", cut, len(good))
			}
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := DecodeSpec(nil); !errors.Is(err, ErrSpecCorrupt) {
			t.Fatalf("got %v, want ErrSpecCorrupt", err)
		}
	})
}

// FuzzSpecDecode throws arbitrary bytes at the WBJS decoder — the bytes a
// restarted wbtuned reads back from its store. Malformed input fails with
// ErrSpecCorrupt or ErrSpecVersion, never a panic; input that decodes is a
// valid spec, so it re-encodes, and decoding that gives the same spec and
// the same canonical bytes again.
func FuzzSpecDecode(f *testing.F) {
	for _, s := range []*JobSpec{sampleSpec(), {Name: "j", Program: "p", Seed: 7}} {
		data, err := EncodeSpec(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(data)
		if err != nil {
			if !errors.Is(err, ErrSpecCorrupt) && !errors.Is(err, ErrSpecVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		enc, err := EncodeSpec(s)
		if err != nil {
			t.Fatalf("re-encode of decoded spec: %v", err)
		}
		s2, err := DecodeSpec(enc)
		if err != nil || !reflect.DeepEqual(s2, s) {
			t.Fatalf("decode of re-encoded spec: %+v, %v; want %+v", s2, err, s)
		}
		if enc2, err := EncodeSpec(s2); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("canonical encoding is not a fixed point: %v", err)
		}
	})
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*JobSpec)
	}{
		{"empty name", func(s *JobSpec) { s.Name = "" }},
		{"path separator in name", func(s *JobSpec) { s.Name = "a/b" }},
		{"dotdot in name", func(s *JobSpec) { s.Name = "a..b" }},
		{"empty program", func(s *JobSpec) { s.Program = "" }},
		{"unknown class", func(s *JobSpec) { s.Class = 9 }},
		{"negative share", func(s *JobSpec) { s.Share = -1 }},
		{"negative max_parallel", func(s *JobSpec) { s.MaxParallel = -2 }},
		{"negative budget", func(s *JobSpec) { s.Budget = -1 }},
		{"negative checkpoint every", func(s *JobSpec) { s.Checkpoint = &CheckpointSpec{Every: -1} }},
		{"negative sample_timeout", func(s *JobSpec) { s.Fault.SampleTimeout = -5 }},
		{"negative region_budget", func(s *JobSpec) { s.Fault.RegionBudget = -time.Second }},
		{"negative backoff", func(s *JobSpec) { s.Fault.Backoff = -1 }},
		{"negative max_backoff", func(s *JobSpec) { s.Fault.MaxBackoff = -1 }},
		{"negative max_attempts", func(s *JobSpec) { s.Fault.MaxAttempts = -1 }},
		{"NaN backoff_factor", func(s *JobSpec) { s.Fault.BackoffFactor = math.NaN() }},
		{"+Inf backoff_factor", func(s *JobSpec) { s.Fault.BackoffFactor = math.Inf(1) }},
		{"-Inf backoff_factor", func(s *JobSpec) { s.Fault.BackoffFactor = math.Inf(-1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sampleSpec()
			tc.mut(s)
			err := s.Validate()
			if !errors.Is(err, ErrSpecInvalid) {
				t.Fatalf("Validate() = %v, want ErrSpecInvalid", err)
			}
			if _, err := EncodeSpec(s); err == nil {
				t.Fatal("EncodeSpec accepted an invalid spec")
			}
		})
	}
	if err := sampleSpec().Validate(); err != nil {
		t.Fatalf("valid spec refused: %v", err)
	}
}

func TestPriorityClassJSON(t *testing.T) {
	for _, c := range []PriorityClass{PriorityLow, PriorityNormal, PriorityHigh} {
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("marshal %v: %v", c, err)
		}
		var got PriorityClass
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if got != c {
			t.Fatalf("JSON round trip: got %v, want %v", got, c)
		}
	}
	var c PriorityClass
	if err := json.Unmarshal([]byte(`""`), &c); err != nil || c != PriorityNormal {
		t.Fatalf("empty class: got %v, %v; want normal", c, err)
	}
	if err := json.Unmarshal([]byte(`"urgent"`), &c); !errors.Is(err, ErrSpecInvalid) {
		t.Fatalf("unknown class: got %v, want ErrSpecInvalid", err)
	}
}

func TestNewJobFromSpec(t *testing.T) {
	rt := NewRuntime(RuntimeOptions{MaxPool: 4})
	job, err := rt.NewJobFromSpec(JobSpec{
		Name:    "spec-job",
		Program: "anything", // program resolution is the jobs manager's concern
		Seed:    11,
		Share:   2,
	})
	if err != nil {
		t.Fatalf("NewJobFromSpec: %v", err)
	}
	defer job.Close()
	if job.jobName != "spec-job" {
		t.Fatalf("job name %q, want spec-job", job.jobName)
	}
	if job.opts.Seed != 11 {
		t.Fatalf("seed %d, want 11", job.opts.Seed)
	}
	if _, err := rt.NewJobFromSpec(JobSpec{Program: "p"}); !errors.Is(err, ErrSpecInvalid) {
		t.Fatalf("invalid spec: got %v, want ErrSpecInvalid", err)
	}
}

func TestNoteQueuedJobsLoadStats(t *testing.T) {
	rt := NewRuntime(RuntimeOptions{MaxPool: 2})
	rt.NoteQueuedJobs(false, 1)
	rt.NoteQueuedJobs(true, 1)
	rt.NoteQueuedJobs(true, 1)
	ls := rt.Load()
	if ls.JobsQueued != 3 || ls.HighJobsQueued != 2 {
		t.Fatalf("JobsQueued=%d HighJobsQueued=%d, want 3 and 2", ls.JobsQueued, ls.HighJobsQueued)
	}
	rt.NoteQueuedJobs(true, -2)
	rt.NoteQueuedJobs(false, -1)
	ls = rt.Load()
	if ls.JobsQueued != 0 || ls.HighJobsQueued != 0 {
		t.Fatalf("after drain: JobsQueued=%d HighJobsQueued=%d, want 0 and 0", ls.JobsQueued, ls.HighJobsQueued)
	}
}
