package remote

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// Mux framing: one connection multiplexes many jobs, and a multi-megabyte
// snapshot ship must not stall the small round/task/result frames queued
// behind it. Any message longer than chunkThreshold is cut into chunk frames
//
//	mChunk | uvarint streamID | flags | [uvarint total, first chunk only] | data
//
// and the writer releases the connection lock between chunks, so other
// goroutines' frames interleave into the gaps. The receiver reassembles each
// stream into a pooled buffer sized from the announced total and hands the
// completed message to the normal dispatch switch. Chunks of distinct
// streams may interleave freely; bytes within one stream arrive in order
// because frames of one connection do.

const (
	chunkFirst byte = 1 << iota // carries the uvarint total message length
	chunkLast                   // completes the stream
)

// chunkThreshold is the largest message written as a single frame. A var so
// tests can shrink it to force chunking on small messages.
var chunkThreshold = 256 << 10

// maxStreams bounds concurrently reassembling chunk streams per connection;
// the writer side opens far fewer, so hitting it means a hostile peer trying
// to hold maxMessage bytes per stream.
const maxStreams = 16

// maxPooledFrameBuf keeps frame buffers that grew to snapshot size from
// pinning their arrays in the frame pool.
const maxPooledFrameBuf = 1 << 20

var framePool = sync.Pool{New: func() any {
	return &wire.Writer{B: make([]byte, frameHeader, 4<<10)}
}}

// getFrameBuf returns a pooled encode buffer with frameHeader bytes reserved
// for the length prefix; append the message after them and hand the buffer
// to muxWriter.writeBuf, then return it with putFrameBuf.
func getFrameBuf() *wire.Writer {
	wb := framePool.Get().(*wire.Writer)
	resetFrame(wb)
	return wb
}

func putFrameBuf(wb *wire.Writer) {
	if cap(wb.B) > maxPooledFrameBuf {
		return
	}
	framePool.Put(wb)
}

// resetFrame rewinds a frame buffer to just the reserved header.
func resetFrame(wb *wire.Writer) { wb.B = wb.B[:frameHeader] }

// muxWriter is one connection's write half. Whole frames are serialized by mu;
// messages beyond chunkThreshold go out as interleavable chunk frames. Every
// frame is a single Write call, so a fault-injected dropped write still
// loses exactly one frame and the stream stays parseable.
type muxWriter struct {
	mu      sync.Mutex
	w       io.Writer
	streams atomic.Uint64
}

func newMuxWriter(w io.Writer) *muxWriter { return &muxWriter{w: w} }

// writeBuf frames and writes the message encoded in wb (after its reserved
// header). The caller keeps ownership of wb.
func (wr *muxWriter) writeBuf(wb *wire.Writer) error {
	payload := len(wb.B) - frameHeader
	if payload > maxMessage {
		return fmt.Errorf("%w (%d bytes)", ErrMessageTooBig, payload)
	}
	if payload > chunkThreshold {
		return wr.writeChunks(payload, [][]byte{wb.B[frameHeader:]})
	}
	binary.BigEndian.PutUint32(wb.B[:frameHeader], uint32(payload))
	wr.mu.Lock()
	_, err := wr.w.Write(wb.B)
	wr.mu.Unlock()
	return err
}

// writeMsg frames and writes the concatenation of segs as one message,
// without materializing the concatenation when it must be chunked anyway.
func (wr *muxWriter) writeMsg(segs ...[]byte) error {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	if total > maxMessage {
		return fmt.Errorf("%w (%d bytes)", ErrMessageTooBig, total)
	}
	if total > chunkThreshold {
		return wr.writeChunks(total, segs)
	}
	wb := getFrameBuf()
	for _, s := range segs {
		wb.Raw(s)
	}
	err := wr.writeBuf(wb)
	putFrameBuf(wb)
	return err
}

// writeChunks cuts the logical message (the concatenation of segs, total
// bytes) into chunk frames on a fresh stream id. The connection lock is
// released between chunks so concurrent small frames interleave.
func (wr *muxWriter) writeChunks(total int, segs [][]byte) error {
	sid := wr.streams.Add(1)
	wb := getFrameBuf()
	defer putFrameBuf(wb)
	sent, si, so := 0, 0, 0
	for first := true; sent < total; first = false {
		n := total - sent
		if n > chunkThreshold {
			n = chunkThreshold
		}
		resetFrame(wb)
		wb.U8(mChunk)
		wb.Uv(sid)
		var flags byte
		if first {
			flags |= chunkFirst
		}
		if sent+n == total {
			flags |= chunkLast
		}
		wb.U8(flags)
		if first {
			wb.Uv(uint64(total))
		}
		for rem := n; rem > 0; {
			seg := segs[si][so:]
			take := rem
			if take > len(seg) {
				take = len(seg)
			}
			wb.Raw(seg[:take])
			so += take
			rem -= take
			if so == len(segs[si]) {
				si++
				so = 0
			}
		}
		sent += n
		binary.BigEndian.PutUint32(wb.B[:frameHeader], uint32(len(wb.B)-frameHeader))
		wr.mu.Lock()
		_, err := wr.w.Write(wb.B)
		wr.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// muxStream is one message mid-reassembly.
type muxStream struct {
	buf   []byte // pooled; len = bytes received so far
	total int
}

// demux reassembles chunk streams on the read side of a connection. Not
// safe for concurrent use; each read loop owns one.
type demux struct {
	streams map[uint64]*muxStream
}

func newDemux() *demux { return &demux{streams: make(map[uint64]*muxStream)} }

// feed hands one frame payload to the demux. Non-chunk frames pass through
// unchanged. For chunk frames it returns (nil, false, nil) while the stream
// is incomplete and the reassembled message once the last chunk lands;
// pooled reports that msg is pool-owned and the caller must wire.Free it after
// decoding. Any error is a protocol violation: the caller must drop the
// connection, since stream state may be inconsistent.
func (d *demux) feed(payload []byte) (msg []byte, pooled bool, err error) {
	if len(payload) == 0 || payload[0] != mChunk {
		return payload, false, nil
	}
	r := wire.NewReader(payload[1:])
	sid := r.Uv()
	flags := r.U8()
	s := d.streams[sid]
	if flags&chunkFirst != 0 {
		total := r.Uv()
		if r.Err() != nil {
			return nil, false, codecErr(r.Err())
		}
		if s != nil {
			return nil, false, fmt.Errorf("%w: chunk stream %d reopened", errCodec, sid)
		}
		if total == 0 || total > maxMessage {
			return nil, false, fmt.Errorf("%w: chunk stream length %d", errCodec, total)
		}
		if len(d.streams) >= maxStreams {
			return nil, false, fmt.Errorf("%w: more than %d concurrent chunk streams", errCodec, maxStreams)
		}
		s = &muxStream{buf: wire.Alloc(int(total))[:0], total: int(total)}
		d.streams[sid] = s
	}
	if r.Err() != nil {
		return nil, false, codecErr(r.Err())
	}
	if s == nil {
		return nil, false, fmt.Errorf("%w: chunk for unknown stream %d", errCodec, sid)
	}
	data := r.Rest()
	if len(s.buf)+len(data) > s.total {
		return nil, false, fmt.Errorf("%w: chunk stream %d overflows announced length", errCodec, sid)
	}
	s.buf = append(s.buf, data...)
	if flags&chunkLast == 0 {
		return nil, false, nil
	}
	delete(d.streams, sid)
	if len(s.buf) != s.total {
		wire.Free(s.buf)
		return nil, false, fmt.Errorf("%w: chunk stream %d short of announced length", errCodec, sid)
	}
	return s.buf, true, nil
}

// close releases half-assembled streams' buffers; call when the connection
// dies.
func (d *demux) close() {
	for sid, s := range d.streams {
		wire.Free(s.buf)
		delete(d.streams, sid)
	}
}
