// Command wbtune-worker is one member of a distributed sampling fleet. It
// listens for a dispatcher (a tuner configured with remote.NetExecutor),
// runs the sampling processes it is handed against the built-in region
// registry, and streams results back in batches.
//
//	wbtune-worker -listen :7071 -slots 4 -name worker-a
//	wbtune-worker -transport unix -listen /run/wbtune/worker.sock
//	wbtune-worker -transport tls -listen :7071 -tls-cert c.pem -tls-key k.pem
//
// On SIGTERM or SIGINT the worker drains gracefully: it stops accepting
// work, finishes in-flight sampling processes, flushes pending result
// batches, says goodbye to its dispatchers, and exits.
package main

import (
	"context"
	"crypto/tls"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/remote"
	"repro/internal/remote/transport"
)

// config holds the flags main checks, kept separate so tests can check
// them without going through the flag parser.
type config struct {
	slots int
}

// check refuses the flags main cannot honour: a negative -slots, which a
// worker would otherwise take for the 2x GOMAXPROCS default.
func (c config) check() error {
	if c.slots < 0 {
		return fmt.Errorf("-slots %d: want a non-negative integer", c.slots)
	}
	return nil
}

func main() {
	var cfg config
	listen := flag.String("listen", "127.0.0.1:7071", "address to listen on (host:port, or a socket path for -transport unix)")
	trName := flag.String("transport", "tcp", "listener transport: tcp, unix, or tls")
	tlsCert := flag.String("tls-cert", "", "PEM certificate for -transport tls")
	tlsKey := flag.String("tls-key", "", "PEM private key for -transport tls")
	flag.IntVar(&cfg.slots, "slots", 0, "concurrent sampling processes (0 = 2x GOMAXPROCS)")
	name := flag.String("name", "", "worker name reported to dispatchers (default: listen address)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to finish in-flight samples on shutdown")
	flag.Parse()
	if err := cfg.check(); err != nil {
		fmt.Fprintf(os.Stderr, "wbtune-worker: %v\n", err)
		os.Exit(2)
	}

	tr, err := buildTransport(*trName, *tlsCert, *tlsKey)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wbtune-worker: %v\n", err)
		os.Exit(2)
	}
	ln, err := tr.Listen(*listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wbtune-worker: %v\n", err)
		os.Exit(1)
	}
	if *name == "" {
		*name = ln.Addr().String()
	}
	w := remote.NewWorker(remote.WorkerOptions{
		Name:     *name,
		Slots:    cfg.slots,
		Registry: remote.Builtins(),
	})

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "wbtune-worker: draining")
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := w.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "wbtune-worker: drain: %v\n", err)
			w.Close()
			os.Exit(1)
		}
		os.Exit(0)
	}()

	fmt.Fprintf(os.Stderr, "wbtune-worker: %s listening on %s (%s)\n", *name, ln.Addr(), tr.Name())
	if err := w.Serve(ln); err != nil {
		fmt.Fprintf(os.Stderr, "wbtune-worker: %v\n", err)
		os.Exit(1)
	}
}

// buildTransport resolves the -transport flag. A unix listener removes a
// stale socket left by an unclean shutdown before binding; TLS requires the
// cert/key pair.
func buildTransport(name, cert, key string) (transport.Transport, error) {
	switch name {
	case "tcp":
		return transport.TCP(), nil
	case "unix":
		return unixTransport{}, nil
	case "tls":
		if cert == "" || key == "" {
			return nil, fmt.Errorf("-transport tls requires -tls-cert and -tls-key")
		}
		pair, err := tls.LoadX509KeyPair(cert, key)
		if err != nil {
			return nil, fmt.Errorf("loading TLS key pair: %w", err)
		}
		return &transport.TLSTransport{
			ServerConfig: &tls.Config{Certificates: []tls.Certificate{pair}},
		}, nil
	default:
		return nil, fmt.Errorf("unknown transport %q (want tcp, unix, or tls)", name)
	}
}

// unixTransport wraps transport.Unix with stale-socket cleanup: a worker
// killed without Close leaves the socket file behind, and the next start
// must not fail on it.
type unixTransport struct{}

func (unixTransport) Name() string { return "unix" }

func (unixTransport) Dial(addr string) (net.Conn, error) {
	return transport.Unix().Dial(addr)
}

func (unixTransport) Listen(addr string) (net.Listener, error) {
	if st, err := os.Stat(addr); err == nil && st.Mode()&os.ModeSocket != 0 {
		os.Remove(addr)
	}
	return transport.Unix().Listen(addr)
}
