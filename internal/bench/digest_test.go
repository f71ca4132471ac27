package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// table1OutcomeDigest pins Table I's outcomes at full precision: the
// rendered table prints three decimals and cannot see a low-bit drift in an
// application kernel. A kernel rewrite that changes any float operation's
// operands or order changes this digest.
const table1OutcomeDigest = "731dd3fb2e26c0cf7a0feaabb5097b85ea21d3ff5e8b1c0b9efa659cf0d69644"

func TestTable1OutcomeDigest(t *testing.T) {
	h := sha256.New()
	put := func(o Outcome) {
		var buf [8]byte
		for _, v := range []float64{o.Score, o.Internal, o.Work, o.WorkSerial, o.WorkParallel} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(o.Samples))
		h.Write(buf[:])
	}
	for _, b := range All() {
		var wb Outcome
		for seed := int64(1); seed <= 4; seed++ {
			o := b.WBTune(seed, 0)
			if seed == 1 {
				wb = o
			}
			put(o)
		}
		put(b.OTTune(1, wb.Work))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != table1OutcomeDigest {
		t.Fatalf("Table I outcome digest %s, pinned %s", got, table1OutcomeDigest)
	}
}
