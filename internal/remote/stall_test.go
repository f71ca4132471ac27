package remote

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/store"
)

// stallBound is how long each sender may take while another sender's
// connection is stalled; none of them does any I/O of its own that the stall
// could hold up.
const stallBound = 10 * time.Second

// gateConn is a link that stops draining: while its gate is shut every Write
// blocks until the gate opens or the connection closes.
type gateConn struct {
	net.Conn
	shut      atomic.Bool
	open      chan struct{}
	stalled   chan struct{} // closed by the first Write the gate holds
	stallOnce sync.Once
	closed    chan struct{}
	closeOnce sync.Once
}

func newGateConn(c net.Conn) *gateConn {
	return &gateConn{Conn: c, open: make(chan struct{}), stalled: make(chan struct{}), closed: make(chan struct{})}
}

func (g *gateConn) Write(p []byte) (int, error) {
	if g.shut.Load() {
		g.stallOnce.Do(func() { close(g.stalled) })
		select {
		case <-g.open:
		case <-g.closed:
			return 0, net.ErrClosed
		}
	}
	return g.Conn.Write(p)
}

func (g *gateConn) Close() error {
	g.closeOnce.Do(func() { close(g.closed) })
	return g.Conn.Close()
}

// queueFromWorker hands payload to the writer of every connection w serves,
// as w's read loop does with a nack.
func queueFromWorker(w *Worker, payload []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for c := range w.conns {
		c.queue(payload, nil)
	}
}

// TestStalledConnBlocksNoOne stalls one worker's connection mid-dispatch — its
// dispatcher-side Write blocks — and requires every other sender to go on:
// another job's EndRound and EndJob on the shared fleet, a nack answer on the
// healthy worker's read loop, the healthy worker's sampling, and the stalled
// worker's own drain announcement to a second dispatcher. Then the gate opens
// and everything completes, leak-free.
func TestStalledConnBlocksNoOne(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	holdA, holdX := make(chan struct{}), make(chan struct{})
	startedX := make(chan struct{}, 1)
	reg := NewRegistry()
	reg.Register("quick", core.RegionSpec{Name: "quick", Samples: 4}, func(sp *core.SP) error {
		sp.Commit("x", sp.Float("x", dist.Uniform(0, 1)))
		return nil
	})
	reg.Register("holdA", core.RegionSpec{Name: "holdA", Samples: 4}, func(sp *core.SP) error {
		<-holdA
		return nil
	})
	reg.Register("holdX", core.RegionSpec{Name: "holdX", Samples: 1}, func(sp *core.SP) error {
		startedX <- struct{}{}
		<-holdX
		return nil
	})
	oreg := obs.NewRegistry()
	ex := NewExecutor(ExecutorOptions{Registry: reg, Obs: oreg})
	ex2 := NewExecutor(ExecutorOptions{Registry: reg})
	var ws []*Worker
	var gate *gateConn
	for i := 0; i < 2; i++ {
		w := NewWorker(WorkerOptions{Name: fmt.Sprintf("w%d", i), Slots: 2, Registry: reg})
		ws = append(ws, w)
		a, b := net.Pipe()
		go w.ServeConn(a)
		var conn net.Conn = b
		if i == 0 {
			gate = newGateConn(b)
			conn = gate
		}
		if err := ex.AddConn(conn); err != nil {
			t.Fatalf("AddConn: %v", err)
		}
	}
	a, b := net.Pipe() // worker 0 also serves a second dispatcher
	go ws[0].ServeConn(a)
	if err := ex2.AddConn(b); err != nil {
		t.Fatalf("AddConn (second dispatcher): %v", err)
	}
	var opened sync.Once
	openGate := func() {
		opened.Do(func() {
			gate.shut.Store(false)
			close(gate.open)
		})
	}
	var pending sync.WaitGroup // every goroutine the test starts
	t.Cleanup(func() {
		openGate()
		select {
		case <-holdX:
		default:
			close(holdX)
		}
		pending.Wait()
		ex.Close()
		ex2.Close()
		for _, w := range ws {
			w.Close()
		}
	})
	// within runs f and fails the test unless it returns inside stallBound; a
	// call still blocked then is waited for once the gate opens.
	within := func(what string, f func()) {
		done := make(chan struct{})
		pending.Add(1)
		go func() {
			defer pending.Done()
			f()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(stallBound):
			t.Errorf("%s did not return within %v of a stalled connection", what, stallBound)
		}
	}
	begin := func(ex *NetExecutor, job uint64, region string, n int, e *store.Exposed) any {
		t.Helper()
		h, err := ex.BeginRound(core.RoundTask{Job: job, Region: region, N: n, Exposed: e})
		if err != nil {
			t.Fatalf("BeginRound(%s): %v", region, err)
		}
		return h
	}
	// execute starts group g of h and sends its outcome to out.
	execute := func(ex *NetExecutor, h any, g int, out chan<- error) {
		pending.Add(1)
		go func() {
			defer pending.Done()
			res, err := ex.Execute(context.Background(), h, g, 0)
			if err == nil && res.Err != "" {
				err = fmt.Errorf("%s", res.Err)
			}
			out <- err
		}()
	}

	// A sample of the second dispatcher's holds worker 0 in flight, so its
	// drain below has something to wait for.
	hx := begin(ex2, 9, "holdX", 1, nil)
	xOut := make(chan error, 1)
	execute(ex2, hx, 0, xOut)
	select {
	case <-startedX:
	case err := <-xOut:
		t.Fatalf("second dispatcher's sample ended early: %v", err)
	}

	// Job A's round runs on both workers: four held samples take all four slots.
	eA := store.NewExposed()
	eA.Set("g", "k", 1.0)
	hA := begin(ex, 1, "holdA", 4, eA)
	aOut := make(chan error, 4)
	for g := 0; g < 4; g++ {
		execute(ex, hA, g, aOut)
	}
	for deadline := time.Now().Add(stallBound); ; time.Sleep(time.Millisecond) {
		ex.mu.Lock()
		busy := len(ex.workers[0].inflight) + len(ex.workers[1].inflight)
		ex.mu.Unlock()
		if busy == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job A's round holds %d of 4 slots", busy)
		}
	}
	close(holdA)
	for g := 0; g < 4; g++ {
		if err := <-aOut; err != nil {
			t.Fatalf("job A sample: %v", err)
		}
	}

	// Shut worker 0's link, then dispatch job B until a ship to it stalls.
	gate.shut.Store(true)
	eB := store.NewExposed()
	eB.Set("g", "k", 2.0)
	hB := begin(ex, 2, "quick", 4, eB)
	bOut := make(chan error, 4)
	for g := 0; g < 4; g++ {
		execute(ex, hB, g, bOut)
	}
	select {
	case <-gate.stalled:
	case <-time.After(stallBound):
		t.Fatal("no dispatch reached worker 0's stalled link")
	}

	within("job A's EndRound", func() { ex.EndRound(hA) })
	within("job B's EndJob", func() { ex.EndJob(2) })

	// Worker 1 refuses a delta of job A: its read loop hands the answer, a full
	// ship, to its writer and reads on.
	ex.snapMu.Lock()
	curA := ex.snaps[1].cur.hash
	ex.snapMu.Unlock()
	queueFromWorker(ws[1], encodeSnapNack(snapNack{Job: 1, BaseHash: 7, NewHash: curA, Cause: nackBaseMissing}))
	nacks := ex.fm.fallbackNack
	for deadline := time.Now().Add(stallBound); nacks.Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker 1's nack was never answered")
		}
	}

	// Worker 1 keeps sampling: at most one of four samples can join worker 0's
	// stall (it has two slots and a stalled task in one of them).
	hA2 := begin(ex, 1, "quick", 4, eA)
	a2Out := make(chan error, 4)
	for g := 0; g < 4; g++ {
		execute(ex, hA2, g, a2Out)
	}
	for i := 0; i < 3; i++ {
		select {
		case err := <-a2Out:
			if err != nil {
				t.Errorf("job A sample beside the stall: %v", err)
			}
		case <-time.After(stallBound):
			t.Fatalf("worker 1 completed %d samples beside the stall, want 3", i)
		}
	}

	// Worker 0's drain reaches the second dispatcher over its healthy link.
	drained := make(chan error, 1)
	pending.Add(1)
	go func() {
		defer pending.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 3*stallBound)
		defer cancel()
		drained <- ws[0].Drain(ctx)
	}()
	for deadline := time.Now().Add(stallBound); len(ex2.liveWorkers()) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker 0's drain never reached the second dispatcher")
		}
	}

	// Open the gate: everything completes.
	openGate()
	close(holdX)
	if err := <-xOut; err != nil {
		t.Errorf("second dispatcher's sample: %v", err)
	}
	if err := <-drained; err != nil {
		t.Errorf("Drain: %v", err)
	}
	for g := 0; g < 4; g++ {
		<-bOut // delivered, or bounced by the draining worker for a retry
	}
	<-a2Out
	ex.EndRound(hB)
	ex.EndRound(hA2)
	ex2.EndRound(hx)
	pending.Wait()
	if n := oreg.Counter(MetricWorkerFailures, "worker", "w0").Value(); n != 0 {
		t.Errorf("a stalled link counted %d worker failures; it is not one", n)
	}
}
