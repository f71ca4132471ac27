package remote

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"repro/internal/wire"
)

// Mux framing: one connection multiplexes many jobs, and a multi-megabyte
// snapshot ship must not stall the small round/task/result frames queued
// behind it. Any message longer than chunkThreshold is cut into chunk frames
//
//	mChunk | uvarint streamID | flags | [uvarint total, first chunk only] | data
//
// and the connection's writer sends other frames between a snapshot ship's
// chunks, so they need not wait out the transfer. The receiver reassembles each
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

// muxWriter is one connection end's write half. It holds no lock: after the
// hello exactly one goroutine — the connection's writer — calls it, and every
// other sender hands that goroutine its request instead. Messages beyond
// chunkThreshold go out as chunk frames. Every frame is a single Write call,
// so a fault-injected dropped write still loses exactly one frame and the
// stream stays parseable.
type muxWriter struct {
	w       io.Writer
	streams uint64 // the last chunk stream id opened
}

func newMuxWriter(w io.Writer) *muxWriter { return &muxWriter{w: w} }

// writeBuf frames and writes the message encoded in wb (after its reserved
// header). The caller keeps ownership of wb.
func (wr *muxWriter) writeBuf(wb *wire.Writer) error {
	payload := len(wb.B) - frameHeader
	if payload > chunkThreshold {
		return wr.writeMsg(wb.B[frameHeader:])
	}
	binary.BigEndian.PutUint32(wb.B[:frameHeader], uint32(payload))
	_, err := wr.w.Write(wb.B)
	return err
}

// writeMsg frames and writes payload as one message, chunked if it is large.
func (wr *muxWriter) writeMsg(payload []byte) error {
	m := outMsg{data: payload}
	for {
		if done, err := wr.writeNext(&m); done || err != nil {
			return err
		}
	}
}

// outMsg is a message its writer sends a frame at a time, so that other
// frames can go out between its chunks.
type outMsg struct {
	data []byte
	sid  uint64 // chunk stream id; 0 until the first chunk opens it
	off  int    // bytes already written
}

// writeNext writes m's next frame — all of m when it fits chunkThreshold, else
// its next chunk on a fresh stream id — and reports whether m is complete.
func (wr *muxWriter) writeNext(m *outMsg) (done bool, err error) {
	total := len(m.data)
	if total > maxMessage {
		return true, fmt.Errorf("%w (%d bytes)", ErrMessageTooBig, total)
	}
	wb := getFrameBuf()
	defer putFrameBuf(wb)
	if total <= chunkThreshold {
		wb.Raw(m.data)
		return true, wr.writeBuf(wb)
	}
	first := m.sid == 0
	if first {
		wr.streams++
		m.sid = wr.streams
	}
	n := min(total-m.off, chunkThreshold)
	wb.U8(mChunk)
	wb.Uv(m.sid)
	var flags byte
	if first {
		flags |= chunkFirst
	}
	if m.off+n == total {
		flags |= chunkLast
	}
	wb.U8(flags)
	if first {
		wb.Uv(uint64(total))
	}
	wb.Raw(m.data[m.off : m.off+n])
	m.off += n
	binary.BigEndian.PutUint32(wb.B[:frameHeader], uint32(len(wb.B)-frameHeader))
	_, err = wr.w.Write(wb.B)
	return flags&chunkLast != 0, err
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
