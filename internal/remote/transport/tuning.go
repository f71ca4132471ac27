package transport

import (
	"crypto/tls"
	"net"
	"time"
)

// Tuning carries per-transport connection knobs. The zero value means "use
// the protocol defaults" for every field, so existing call sites are
// untouched.
type Tuning struct {
	// KeepAlive sets the TCP keepalive probe period on stream-oriented
	// connections (tcp and tls; unix sockets and in-memory pipes ignore it).
	// Zero leaves the stack default; negative disables keepalives.
	KeepAlive time.Duration
	// MaxInflightChunks bounds, per connection, how many interleaved chunk
	// streams the demux will reassemble concurrently and how deep the
	// dispatcher's bulk snapshot lane may queue. Zero means the
	// protocol defaults (16 streams, 8 queued ships); values below 1 are
	// clamped up to 1.
	MaxInflightChunks int
}

// Tuned is implemented by transports that carry connection tuning. The
// remote dispatcher and worker query it when a connection is established and
// apply the knobs they own (the dispatcher its bulk-lane depth and demux
// bound, the worker its demux bound; keepalive applies on both sides at the
// socket).
type Tuned interface {
	Tuning() Tuning
}

// WithTuning wraps t so every dialed or accepted connection has tn applied:
// TCP keepalives are configured on the underlying socket (unwrapping TLS),
// and tn is reported through the Tuned interface for the protocol layers to
// pick up their bounds. The wrapped transport keeps t's name, so metric
// labels are unchanged.
func WithTuning(t Transport, tn Tuning) Transport {
	return &tunedTransport{inner: t, tn: tn}
}

type tunedTransport struct {
	inner Transport
	tn    Tuning
}

func (t *tunedTransport) Name() string   { return t.inner.Name() }
func (t *tunedTransport) Tuning() Tuning { return t.tn }

func (t *tunedTransport) Dial(addr string) (net.Conn, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	applyKeepAlive(c, t.tn.KeepAlive)
	return c, nil
}

func (t *tunedTransport) Listen(addr string) (net.Listener, error) {
	ln, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tunedListener{Listener: ln, tn: t.tn}, nil
}

// tunedListener applies the socket knobs to every accepted connection.
type tunedListener struct {
	net.Listener
	tn Tuning
}

func (l *tunedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	applyKeepAlive(c, l.tn.KeepAlive)
	return c, nil
}

// applyKeepAlive configures TCP keepalives on c if a *net.TCPConn is
// reachable underneath it (directly or through tls.Conn); other connection
// kinds (unix sockets, pipes) are left alone.
func applyKeepAlive(c net.Conn, period time.Duration) {
	if period == 0 {
		return
	}
	tc, ok := c.(*net.TCPConn)
	if !ok {
		if tlsConn, isTLS := c.(*tls.Conn); isTLS {
			tc, ok = tlsConn.NetConn().(*net.TCPConn)
		}
	}
	if !ok || tc == nil {
		return
	}
	if period < 0 {
		tc.SetKeepAlive(false)
		return
	}
	tc.SetKeepAlive(true)
	tc.SetKeepAlivePeriod(period)
}
