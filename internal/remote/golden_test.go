package remote

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/strategy"
)

// TestGoldenFormats pins the exact bytes of one message per binary format —
// a framed round recipe, a framed result batch crossing every native value
// tag, a WBCK checkpoint and a WBJS job spec — and of the snapshot frame in
// both its shapes: a full ship (the delta from the empty snapshot) and a
// delta from a shipped base, both built by the dispatcher's own path, so
// their entry identities are pinned too. The first four were generated
// before the three codecs moved onto internal/wire; a refactor of the shared
// primitives that moves a single byte on the wire or on disk fails here.
func TestGoldenFormats(t *testing.T) {
	framed := func(payload []byte) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, payload); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		return buf.Bytes()
	}
	results, err := encodeResults([]resultMsg{{ID: 300, Res: core.ExecResult{
		Scored: true, Retryable: true, Score: -0.5, WorkMilli: -1024, Err: "e",
		Params: []core.ParamKV{{Name: "sigma", Value: 1.5}},
		Commits: []core.CommitKV{
			{Name: "nil", Value: nil}, {Name: "b", Value: true}, {Name: "i", Value: -42},
			{Name: "f", Value: 2.25}, {Name: "s", Value: "hi"}, {Name: "bs", Value: []byte{0xaa, 0xbb}},
			{Name: "is", Value: []int{-1, 300}}, {Name: "fs", Value: []float64{1, -2}},
			{Name: "fss", Value: [][]float64{{1}, {}, {2, 3}}},
		},
	}}}, nil)
	if err != nil {
		t.Fatalf("encodeResults: %v", err)
	}

	st := &checkpoint.State{
		Seed: -9, MinSlots: 2, Complete: true,
		Counters: checkpoint.Counters{Regions: 1, Rounds: 2, Samples: 16, WorkMilli: 4096},
		Frontier: map[string]uint64{"0": 3, "0.1": 1},
		Events:   []checkpoint.Event{{Path: "0", Seq: 0, Kind: checkpoint.EvRegion, Arg: 1, Name: "edge"}},
		Rounds: []checkpoint.Round{{
			Path: "0", Seq: 1, Region: "edge", Round: 1, N: 8, K: 2, FBHash: 0x0123456789abcdef,
			Aggregated: []checkpoint.KV{{Name: "best", V: []float64{0.5, 0.25}}},
			Groups: []checkpoint.Group{{
				Params: []checkpoint.Param{{Name: "sigma", V: 1.5}}, HaveParams: true,
				ScoreSum: 3, ScoreCnt: 2, ErrKind: checkpoint.ErrTimeout, ErrMsg: "slow",
				Commits: []checkpoint.KV{
					{Name: "n", V: 7}, {Name: "big", V: int64(1 << 40)}, {Name: "ok", V: true},
					{Name: "raw", V: []byte{1, 2}}, {Name: "m", V: [][]float64{{1, 2}, {3}}},
					{Name: "mix", V: []any{nil, "x", 1.0}},
				},
			}},
		}},
		Exposed: []checkpoint.Entry{{Scope: "global", Name: "bias", V: 0.25}, {Scope: "s", Name: "tag", V: "blue"}},
	}
	for i := range st.ID {
		st.ID[i] = byte(0xf0 + i)
	}
	wbck, err := checkpoint.EncodeBytes(st)
	if err != nil {
		t.Fatalf("checkpoint.EncodeBytes: %v", err)
	}

	wbjs, err := core.EncodeSpec(&core.JobSpec{
		Name: "canny-night", Tenant: "vision", Class: core.PriorityLow, Program: "canny",
		Args: map[string]string{"stage1": "3", "scene": "night"},
		Seed: -42, Budget: 1500, Incremental: true, Share: 2, MaxParallel: 300,
		Fault:      &core.FaultPolicy{SampleTimeout: 50 * time.Millisecond, MaxAttempts: 3, BackoffFactor: 2, DegradeEmpty: true},
		Checkpoint: &core.CheckpointSpec{Every: 2, MinSlots: 3},
	})
	if err != nil {
		t.Fatalf("core.EncodeSpec: %v", err)
	}

	ex := NewExecutor(ExecutorOptions{Registry: Builtins()})
	defer ex.Close()
	e := store.NewExposed()
	e.Set("global", "bias", 0.25)
	e.Set("s", "tag", "blue")
	v1, err := ex.snapshotFor(7, e)
	if err != nil {
		t.Fatalf("snapshotFor: %v", err)
	}
	e.Set("global", "bias", -1)
	e.Delete("s", "tag")
	if _, err := ex.snapshotFor(7, e); err != nil {
		t.Fatalf("snapshotFor(next): %v", err)
	}

	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"round frame", framed(encodeRound(roundMsg{
			ID: 300, Job: 7, Region: "edge", Dyn: 0, Seed: -7, Round: 2, N: 8, SnapHash: 0xfeedfacecafebeef,
			Feedback: []strategy.Feedback{{Score: 2.5, Params: map[string]float64{"sigma": 1.5, "lo": -1}}},
		})), goldenRoundFrame},
		{"results frame", framed(results), goldenResultsFrame},
		{"WBCK state", wbck, goldenWBCK},
		{"WBJS spec", wbjs, goldenWBJS},
		{"full ship frame", framed(v1.encoded()), goldenFullShipFrame},
		{"base delta frame", framed(ex.snaps[7].bases[0].delta), goldenBaseDeltaFrame},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s bytes moved:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

const (
	goldenRoundFrame   = "0000003803ac02070465646765000d0208feedfacecafebeef01400400000000000002026c6fbff0000000000000057369676d613ff8000000000000"
	goldenResultsFrame = "000000840501ac0214bfe0000000000000ff0f016501057369676d613ff800000000000009036e696c00016201010169025301660340020000000000000173040268690262730502aabb026973060201d80402667307023ff0000000000000c000000000000000036673730803013ff0000000000000000240000000000000004008000000000000"
	goldenWBCK         = "5742434b01000000f2f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff11020102042000000000000000804000000201300303302e310101013000020104656467650101300104656467650210040123456789abcdef01046265737405023fe00000000000003fd00000000000000101057369676d613ff800000000000001400800000000000004000204736c6f7706016e020e0362696707808080808040026f6b04010372617706020102016d0802023ff00000000000004000000000000000014008000000000000036d6978090300030178013ff00000000000000206676c6f62616c0462696173013fd00000000000000173037461670304626c7565bdae51ca9166c4a4"
	goldenWBJS         = "57424a530100000053010b63616e6e792d6e6967687406766973696f6e010563616e6e7902057363656e65056e696768740673746167653101335340977000000000000102ac020180c2d72f000300400000000000000000010102037878e819980738af"
)

// The snapshot frame in protocol 6: one full ship and one base delta.
const (
	goldenFullShipFrame  = "0000003c0b0700000000000000004c7aeb9c59e54b240406676c6f62616c046269617301730374616702000109033fd00000000000000203060404626c756500"
	goldenBaseDeltaFrame = "0000002e0b074c7aeb9c59e54b24c3d5290a6d49dca00406676c6f62616c0462696173017303746167010001020201010203"
)
