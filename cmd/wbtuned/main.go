// Command wbtuned is the tuning-as-a-service control plane: a daemon that
// admits JobSpecs over HTTP+JSON into a priority admission queue, runs them
// on a shared multi-tenant Runtime, streams per-round progress as SSE, and
// persists specs and checkpoints so a restart re-queues or resumes every
// in-flight job:
//
//	wbtuned -http :8437 -store /var/lib/wbtuned
//	wbtuned -http :8437 -max-running 4 -queue-limit 64 \
//	        -quota acme=running:2,queued:8,rate:5
//	wbtuned -http :8437 -fleet-max 8
//
// API (see internal/jobs.Server):
//
//	POST   /v1/jobs               submit a spec     GET /v1/jobs        list
//	GET    /v1/jobs/{name}        inspect           DELETE /v1/jobs/{name}  cancel
//	GET    /v1/jobs/{name}/rounds SSE round stream  GET /metrics  GET /healthz
//
// Submit with the wbtune client: wbtune -server http://host:8437 -program canny.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/sched"
)

// config is everything main's flags decide — kept separate so tests can
// build a daemon without going through the flag parser.
type config struct {
	httpAddr   string
	storeDir   string
	pool       int
	maxRunning int
	queueLimit int
	quotas     map[string]jobs.TenantQuota
	fleetMin   int
	fleetMax   int
}

// check refuses the fleet flags main cannot honour: -fleet-min without
// -fleet-max (fleetMin is 1 unless the flag is given), and -fleet-min above
// -fleet-max.
func (c config) check() error {
	if c.fleetMax == 0 && c.fleetMin != 1 {
		return errors.New("-fleet-min requires -fleet-max")
	}
	if c.fleetMax > 0 && c.fleetMin > c.fleetMax {
		return errors.New("-fleet-min exceeds -fleet-max")
	}
	return nil
}

// daemon is one assembled wbtuned instance.
type daemon struct {
	cfg config
	reg *obs.Registry
	rt  *core.Runtime
	ds  *checkpoint.DirStore // nil without -store
	m   *jobs.Manager
	ln  net.Listener
	srv *http.Server

	fleetStop func() // retires the -fleet-max fleet; nil without one
}

// newDaemon wires runtime, optional elastic fleet, jobs manager, and the
// HTTP listener, and recovers persisted jobs from the store.
func newDaemon(cfg config) (*daemon, error) {
	d := &daemon{cfg: cfg, reg: obs.NewRegistry()}

	// The fleet's load signal reads the runtime, which is built on the fleet's
	// executor: it reads zero stats until the runtime exists.
	var cur atomic.Pointer[core.Runtime]
	ropts := core.RuntimeOptions{MaxPool: cfg.pool, Obs: d.reg}
	if cfg.fleetMax > 0 {
		ex, stop, err := remote.StartLoopbackFleet(cfg.fleetMin, cfg.fleetMax, d.reg, func() sched.LoadStats {
			if rt := cur.Load(); rt != nil {
				return rt.Load()
			}
			return sched.LoadStats{}
		})
		if err != nil {
			return nil, fmt.Errorf("starting fleet: %w", err)
		}
		ropts.Executor, d.fleetStop = ex, stop
	}
	d.rt = core.NewRuntime(ropts)
	cur.Store(d.rt)

	var store checkpoint.Store
	if cfg.storeDir != "" {
		ds, err := checkpoint.NewDirStore(cfg.storeDir)
		if err != nil {
			d.stopFleet()
			return nil, fmt.Errorf("opening store: %w", err)
		}
		d.ds, store = ds, ds
	}

	programs := jobs.NewRegistry()
	bench.RegisterPrograms(programs)
	d.m = jobs.NewManager(jobs.Options{
		Runtime:    d.rt,
		Programs:   programs,
		Store:      store,
		MaxRunning: cfg.maxRunning,
		MaxQueued:  cfg.queueLimit,
		Quotas:     cfg.quotas,
		Obs:        d.reg,
	})
	if store != nil {
		requeued, resuming, err := d.m.Recover()
		if err != nil {
			fmt.Fprintf(os.Stderr, "wbtuned: recovery (continuing): %v\n", err)
		}
		if requeued > 0 || resuming > 0 {
			fmt.Printf("wbtuned: recovered %d queued and %d checkpointed jobs\n",
				requeued, resuming)
		}
	}

	ln, err := net.Listen("tcp", cfg.httpAddr)
	if err != nil {
		d.m.Close()
		d.closeStore()
		d.stopFleet()
		return nil, err
	}
	d.ln = ln
	d.srv = &http.Server{Handler: jobs.NewServer(d.m, d.reg)}
	return d, nil
}

// addr is the bound listen address (useful with ":0").
func (d *daemon) addr() string { return d.ln.Addr().String() }

// serve blocks serving HTTP until shutdown.
func (d *daemon) serve() error {
	err := d.srv.Serve(d.ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// shutdown drains in order: stop admitting (HTTP), interrupt and persist
// jobs (manager), then retire the fleet. Interrupted jobs keep their specs
// and checkpoints in the store, so the next start recovers them.
func (d *daemon) shutdown(ctx context.Context) {
	_ = d.srv.Shutdown(ctx)
	d.m.Close()
	d.closeStore()
	d.stopFleet()
}

// closeStore releases the store directory for the next process.
func (d *daemon) closeStore() {
	if d.ds != nil {
		d.ds.Close()
	}
}

func (d *daemon) stopFleet() {
	if d.fleetStop != nil {
		d.fleetStop()
	}
}

// parseQuota parses one -quota value:
//
//	tenant=running:2,queued:8,rate:5,burst:2
//
// Every bound after the tenant name is optional.
func parseQuota(s string, into map[string]jobs.TenantQuota) error {
	tenant, bounds, ok := strings.Cut(s, "=")
	if !ok || tenant == "" {
		return fmt.Errorf("want tenant=bound[,bound...], got %q", s)
	}
	var q jobs.TenantQuota
	for _, part := range strings.Split(bounds, ",") {
		key, val, ok := strings.Cut(part, ":")
		if !ok {
			return fmt.Errorf("bound %q is not key:value", part)
		}
		switch key {
		case "running", "queued", "burst":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return fmt.Errorf("bound %q wants a non-negative integer", part)
			}
			switch key {
			case "running":
				q.MaxRunning = n
			case "queued":
				q.MaxQueued = n
			case "burst":
				q.Burst = n
			}
		case "rate":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("bound %q wants a finite non-negative number", part)
			}
			q.RatePerSec = f
		default:
			return fmt.Errorf("unknown bound %q (want running, queued, rate or burst)", key)
		}
	}
	into[tenant] = q
	return nil
}

func main() {
	cfg := config{quotas: make(map[string]jobs.TenantQuota)}
	flag.StringVar(&cfg.httpAddr, "http", ":8437", "HTTP listen address")
	flag.StringVar(&cfg.storeDir, "store", "", "directory for durable specs and checkpoints (empty = in-memory only; jobs do not survive restarts)")
	flag.IntVar(&cfg.pool, "pool", 0, "tuning-process pool size shared by all jobs (0 = 2×CPUs)")
	flag.IntVar(&cfg.maxRunning, "max-running", 0, "jobs running simultaneously (0 = 4)")
	flag.IntVar(&cfg.queueLimit, "queue-limit", 0, "admission-queue bound (0 = 64)")
	flag.Func("quota", "tenant quota, repeatable: tenant=running:2,queued:8,rate:5,burst:2", func(s string) error {
		return parseQuota(s, cfg.quotas)
	})
	flag.IntVar(&cfg.fleetMax, "fleet-max", 0, "autoscale an elastic loopback sampling fleet up to this many workers (0 = in-process sampling)")
	flag.IntVar(&cfg.fleetMin, "fleet-min", 1, "minimum elastic fleet size (with -fleet-max)")
	flag.Parse()
	if err := cfg.check(); err != nil {
		fmt.Fprintf(os.Stderr, "wbtuned: %v\n", err)
		os.Exit(2)
	}

	d, err := newDaemon(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wbtuned: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wbtuned: serving on %s\n", d.addr())

	go func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		fmt.Println("wbtuned: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		d.shutdown(ctx)
	}()
	if err := d.serve(); err != nil {
		fmt.Fprintf(os.Stderr, "wbtuned: %v\n", err)
		os.Exit(1)
	}
}
