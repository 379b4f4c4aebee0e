package dist

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/wire"
)

// verbConn counts the request frames a control client writes, by verb, and
// calls onVerb (when set) with each verb before its frame reaches the
// server. It parses the byte stream itself — the preamble, then each
// frame's 8-byte header and the request header's uvarint seq and verb
// byte — so it sees exactly what crossed the socket.
type verbConn struct {
	net.Conn
	onVerb func(verb byte)

	mu     sync.Mutex
	buf    []byte       //dist:guardedby mu
	counts map[byte]int //dist:guardedby mu
	order  []byte       //dist:guardedby mu
	skip   int          //dist:guardedby mu
}

func newVerbConn(c net.Conn) *verbConn {
	return &verbConn{Conn: c, counts: make(map[byte]int), skip: len(wire.FlatPreamble)}
}

func (c *verbConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.buf = append(c.buf, p...)
	var verbs []byte
	for {
		if c.skip > 0 {
			n := min(c.skip, len(c.buf))
			c.buf, c.skip = c.buf[n:], c.skip-n
			if c.skip > 0 {
				break
			}
		}
		if len(c.buf) < 8 {
			break
		}
		size := int(binary.BigEndian.Uint32(c.buf[:4]))
		if len(c.buf) < 8+size {
			break
		}
		body := c.buf[8 : 8+size]
		if _, n := binary.Uvarint(body); n > 0 && n < len(body) {
			verbs = append(verbs, body[n])
		}
		c.buf = c.buf[8+size:]
	}
	for _, v := range verbs {
		c.counts[v]++
		c.order = append(c.order, v)
	}
	c.mu.Unlock()
	if c.onVerb != nil {
		for _, v := range verbs {
			c.onVerb(v)
		}
	}
	return c.Conn.Write(p)
}

// requests returns the request count per verb and the verbs in the order
// they were written.
func (c *verbConn) requests() (map[byte]int, []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	counts := make(map[byte]int, len(c.counts))
	for v, n := range c.counts {
		counts[v] = n
	}
	return counts, append([]byte(nil), c.order...)
}

// dialCounting dials srv through a verbConn.
func dialCounting(t *testing.T, srv *NetworkServer, onVerb func(byte)) (*RPCClient, *verbConn) {
	t.Helper()
	var vc *verbConn
	cl, err := Dial(srv.RPCAddr(), 5*time.Second, WithConnWrapper(func(c net.Conn) net.Conn {
		vc = newVerbConn(c)
		vc.onVerb = onVerb
		return vc
	}))
	if err != nil {
		t.Fatal(err)
	}
	return cl, vc
}

// TestResultsRideThePark: a donor draining zero-compute units in batches of
// up to eight returns every result as the results tail of its next
// park — one control request per batch, not one per unit — and never
// sends the SubmitResult verb.
func TestResultsRideThePark(t *testing.T) {
	registerEcho(t)
	srv, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(netOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const n = 64
	dm := newEchoDM(n)
	if err := srv.Submit(bg, &Problem{ID: "tail", DM: dm, SharedData: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	cl, vc := dialCounting(t, srv, nil)
	defer cl.Close()
	d := newTestDonor(cl, DonorOptions{Name: "tail-donor", CancelPoll: -1, Logf: t.Logf})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = d.Run(bg) }()
	_, err = srv.Wait(bg, "tail")
	counts, _ := vc.requests() // the park that carried the last results is counted
	d.Stop()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(dm.results) != n {
		t.Fatalf("%d of %d units folded", len(dm.results), n)
	}
	total := 0
	for v, k := range counts {
		if v != verbHandshake {
			total += k
		}
	}
	// The first park gets one unit (the server has no unit time for the
	// donor yet), each later one a batch of 8, and the last carries the
	// final batch's results.
	if limit := (n+7)/8 + 2; total > limit {
		t.Errorf("%d control requests for %d units at batch 8, want at most %d (by verb: %v)", total, n, limit, counts)
	}
	if k := counts[verbSubmitResult]; k != 0 {
		t.Errorf("%d SubmitResult requests while parks could carry the results, want 0", k)
	}
	t.Logf("%d units, %d requests by verb: %v", n, total, counts)
}

// stopAfter wraps an algorithm so that its k-th ProcessCtx call, once it
// has computed its unit, stops the donor by cancelling Run's ctx: the loop
// ends before its next stage, and that unit's result is not submitted.
type stopAfter struct {
	Algorithm
	calls *int
	k     int
	stop  func()
}

func (a stopAfter) ProcessCtx(ctx context.Context, payload []byte) ([]byte, error) {
	out, err := a.Algorithm.ProcessCtx(ctx, payload)
	if *a.calls++; *a.calls == a.k {
		a.stop()
	}
	return out, err
}

// TestCloseDeliversHeldResults: a donor stopped in the middle of a batch
// has handed the results of the batch's finished units to its client,
// which holds them for a park that never comes; closing the client
// delivers them, so the server folds every unit the donor counted.
func TestCloseDeliversHeldResults(t *testing.T) {
	registerEcho(t)
	srv, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(netOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "close", DM: newEchoDM(64), SharedData: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	cl, vc := dialCounting(t, srv, nil)
	ctx, stop := context.WithCancel(bg)
	defer stop()
	calls := 0
	// The first park brings one unit, the second a batch: stop in the
	// batch's third unit, with the batch's first two results queued.
	d := newTestDonor(cl, DonorOptions{Name: "close-donor", CancelPoll: -1, Logf: t.Logf,
		WrapAlgorithm: func(_ string, a Algorithm) Algorithm {
			return stopAfter{Algorithm: a, calls: &calls, k: 4, stop: stop}
		}})
	if err := d.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if d.Units() != 3 {
		t.Fatalf("test setup: donor counted %d units before stopping, want 3", d.Units())
	}
	if st, _ := srv.Status(bg, "close"); st.Completed != 1 {
		t.Fatalf("test setup: %d units folded before Close, want 1 (the rest queued on the client)", st.Completed)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if st, _ := srv.Status(bg, "close"); st.Completed != d.Units() {
		t.Errorf("%d units folded after Close, want the %d the donor counted", st.Completed, d.Units())
	}
	if counts, _ := vc.requests(); counts[verbSubmitResult] != 1 {
		t.Errorf("Close sent %d SubmitResult requests, want 1 (by verb: %v)", counts[verbSubmitResult], counts)
	}
}

// failOn wraps an algorithm so that its k-th ProcessCtx call fails.
type failOn struct {
	Algorithm
	calls *int
	k     int
}

func (a failOn) ProcessCtx(ctx context.Context, payload []byte) ([]byte, error) {
	if *a.calls++; *a.calls == a.k {
		return nil, errors.New("injected failure")
	}
	return a.Algorithm.ProcessCtx(ctx, payload)
}

// TestFailureReportFlushesHeldResults: a unit that fails behind a finished
// one in the same batch is reported only after the finished unit's queued
// result has been delivered, so the server has folded it by the time it
// drops the failed unit's lease.
func TestFailureReportFlushesHeldResults(t *testing.T) {
	registerSum(t)
	opts := netOpts()
	opts.Policy = sched.Fixed{Size: 1}
	srv, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const n = 20
	if err := srv.Submit(bg, &Problem{ID: "flush", DM: newSumDM(n)}); err != nil {
		t.Fatal(err)
	}
	foldedAtFailure := -1
	cl, vc := dialCounting(t, srv, func(verb byte) {
		if verb == verbReportFailure && foldedAtFailure < 0 {
			st, _ := srv.Status(bg, "flush")
			foldedAtFailure = st.Completed
		}
	})
	defer cl.Close()
	calls := 0
	// Unit 1 comes alone; units 2.. come in a batch, and the batch's
	// second unit (call 3) fails behind unit 2's queued result.
	d := newTestDonor(cl, DonorOptions{Name: "flush-donor", CancelPoll: -1, Logf: t.Logf,
		WrapAlgorithm: func(_ string, a Algorithm) Algorithm { return failOn{Algorithm: a, calls: &calls, k: 3} }})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = d.Run(bg) }()
	out, err := srv.Wait(bg, "flush")
	d.Stop()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sum := decodeSum(t, out); sum != sumSquares(n) {
		t.Errorf("sum = %d, want %d", sum, sumSquares(n))
	}
	if foldedAtFailure != 2 {
		t.Errorf("%d units folded when the failure was sent, want 2 (unit 1 by a park, unit 2 by the flush)", foldedAtFailure)
	}
	counts, order := vc.requests()
	if counts[verbReportFailure] != 1 || counts[verbSubmitResult] != 1 {
		t.Fatalf("requests by verb %v, want one failure report and one flush", counts)
	}
	for i, v := range order {
		if v == verbReportFailure && (i == 0 || order[i-1] != verbSubmitResult) {
			t.Errorf("request order %v: the failure report does not follow a flush", order)
		}
	}
}

// TestOversizedResultFlushesTheQueue: a result that would take the queued
// payload past heldBudget first flushes what is queued, so no request has
// to carry more result bytes than half a frame plus one result.
func TestOversizedResultFlushesTheQueue(t *testing.T) {
	registerEcho(t)
	srv, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(netOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "big", DM: newEchoDM(2), SharedData: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	cl, vc := dialCounting(t, srv, nil)
	defer cl.Close()
	var tasks []*Task
	for range 2 {
		task, _, err := cl.RequestTask(bg, "a")
		if err != nil || task == nil {
			t.Fatalf("no task: %v", err)
		}
		tasks = append(tasks, task)
	}
	payload := make([]byte, heldBudget/2+1)
	for i, task := range tasks {
		if err := cl.SubmitResult(bg, &Result{ProblemID: "big", UnitID: task.Unit.ID, Payload: payload,
			Donor: "a", Epoch: task.Epoch}); err != nil {
			t.Fatal(err)
		}
		counts, _ := vc.requests()
		st, _ := srv.Status(bg, "big")
		if counts[verbSubmitResult] != i || st.Completed != i {
			t.Fatalf("after result %d: %d flushes, %d folded; want %d and %d", i+1, counts[verbSubmitResult], st.Completed, i, i)
		}
	}
}

// TestDonorsSharingOneClientFoldEveryUnit runs four donors on one client,
// so results are queued, carried and flushed from several goroutines at
// once: every unit folds exactly once.
func TestDonorsSharingOneClientFoldEveryUnit(t *testing.T) {
	registerSum(t)
	opts := netOpts()
	opts.Policy = sched.Fixed{Size: 1}
	srv, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const n = 400
	if err := srv.Submit(bg, &Problem{ID: "shared", DM: newSumDM(n)}); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.RPCAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	var donors []*Donor
	for i := range 4 {
		d := newTestDonor(cl, DonorOptions{Name: "shared-" + string(rune('a'+i)), CancelPoll: -1})
		donors = append(donors, d)
		wg.Add(1)
		go func() { defer wg.Done(); _ = d.Run(bg) }()
	}
	out, err := srv.Wait(bg, "shared")
	for _, d := range donors {
		d.Stop()
	}
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sum := decodeSum(t, out); sum != sumSquares(n) {
		t.Errorf("sum = %d, want %d", sum, sumSquares(n))
	}
	if st, _ := srv.Stats(bg, "shared"); st.Completed != n || st.Reissued != 0 {
		t.Errorf("completed/reissued = %d/%d, want %d/0", st.Completed, st.Reissued, n)
	}
}
