package checkpoint

import (
	"errors"
	"testing"
)

// FuzzCheckpointDecode throws arbitrary bytes at the decoder. The contract
// under fuzzing: malformed input fails with a typed error (ErrCorrupt or
// ErrCheckpointVersion), never a panic; input that decodes must re-encode
// and decode again (the decoded state contains only codec-representable
// values).
func FuzzCheckpointDecode(f *testing.F) {
	valid, err := EncodeBytes(sampleState())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(magic)+1])
	skew := append([]byte(nil), valid...)
	skew[len(magic)] = Version + 1
	f.Add(skew)
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0x10
	f.Add(flip)

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeBytes(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrCheckpointVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Valid input: the decoded state must survive a re-encode cycle.
		enc, err := EncodeBytes(st)
		if err != nil {
			t.Fatalf("re-encode of decoded state: %v", err)
		}
		if _, err := DecodeBytes(enc); err != nil {
			t.Fatalf("decode of re-encoded state: %v", err)
		}
	})
}
