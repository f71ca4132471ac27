// Package remote implements the distributed sampling executor: a network
// dispatcher (NetExecutor) that satisfies core.Executor by shipping sampling
// processes to a fleet of worker processes (Worker, cmd/wbtune-worker) over
// a length-prefixed binary protocol on TCP.
//
// The layering borrows from store-and-forward messaging systems: a small
// self-delimiting frame layer, typed messages on top, and batched result
// delivery so a worker's finished samples ride home together. The paper's
// load-once reuse of @load state extends across the wire as content-hashed
// snapshots of the exposed store, shipped to each worker at most once per
// content version and cached there. Work distribution is pull-based: each
// worker connection takes a queued sampling process whenever it has a free
// slot, so an idle worker steals work a busy one has not claimed, and a dead
// worker's in-flight samples re-enter the queue through the core retry
// machinery (seeded samplers make the replay bit-identical wherever it
// lands).
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/wire"
)

// frameHeader is the 4-byte big-endian payload length prefixed to every
// frame. Encode buffers from getFrameBuf reserve it up front so the header
// is patched in place and the whole frame goes out in one Write.
const frameHeader = 4

// maxMessage bounds one logical message (a reassembled chunk stream or a
// single-frame payload). Snapshots dominate message size; 64MiB comfortably
// holds every benchmark's exposed store. The cap is enforced symmetrically:
// encode-side writes beyond it fail with ErrMessageTooBig before any bytes
// leave the process, and decode-side violations drop the connection.
const maxMessage = 64 << 20

// maxFrame bounds one frame's payload on decode, keeping a malformed length
// prefix from looking like an allocation request. The writer never produces
// a frame beyond chunkThreshold plus chunk framing, but the reader stays
// permissive up to the message cap so the limit has a single owner.
const maxFrame = maxMessage

// readBufSize sizes the bufio.Reader each read loop wraps around its conn:
// large enough that a header + small frame arrives in one Read, small enough
// that an idle connection holds no meaningful memory.
const readBufSize = 32 << 10

// ErrMessageTooBig reports an encode-side rejection: the message exceeds
// maxMessage, so writing it would only make the peer drop the connection.
// Callers surface it per sample (result batches), per round (snapshots fall
// back to the in-process path), or per frame, instead of losing the link.
var ErrMessageTooBig = errors.New("remote: message exceeds 64MiB wire limit")

// errFrameTooBig reports a length prefix beyond maxFrame — a corrupt or
// hostile peer, never a legitimate frame.
var errFrameTooBig = errors.New("remote: frame exceeds size limit")

// readFrame reads one frame payload into a pooled buffer, reusing buf when
// it is large enough (recycling it otherwise). It returns io.EOF only on a
// clean frame boundary. The returned slice is valid payload only when err is
// nil, but it is returned on every path — wire.Grow may already have recycled
// buf's array, so the caller must adopt the return value unconditionally to
// keep its recycling single-owner. The header lands in the same pooled
// buffer, keeping the steady read path allocation-free.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = wire.Grow(buf, frameHeader)
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	n := binary.BigEndian.Uint32(buf)
	if n > maxFrame {
		return buf, errFrameTooBig
	}
	buf = wire.Grow(buf, int(n))
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, fmt.Errorf("remote: truncated frame: %w", err)
	}
	return buf, nil
}
