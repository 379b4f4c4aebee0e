package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/wire"
)

func netOpts() ServerOptions {
	return ServerOptions{
		Policy: sched.Fixed{Size: 17},
		Lease:  time.Hour,
	}
}

// TestNetworkMatchesRunLocal runs the same problem through RunLocal and
// through a real loopback server↔donor deployment (control and payloads
// over the mux, the shared blob over the bulk socket channel) and demands
// identical results.
func TestNetworkMatchesRunLocal(t *testing.T) {
	registerSum(t)
	const n = 400
	ref, err := RunLocal(bg, &Problem{ID: "sum-ref", DM: newSumDM(n)}, 3, sched.Fixed{Size: 17})
	if err != nil {
		t.Fatal(err)
	}

	srv, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(netOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	shared := []byte("shared blob travels the bulk channel")
	if err := srv.Submit(bg, &Problem{ID: "sum-net", DM: newSumDM(n), SharedData: shared}); err != nil {
		t.Fatal(err)
	}

	// Both clients dial and fetch before any donor runs: a running donor can
	// drain the problem, and completion releases the shared blob.
	var donors []*Donor
	for i := 0; i < 2; i++ {
		cl, err := Dial(srv.RPCAddr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if got, err := cl.SharedData(bg, "sum-net"); err != nil || string(got) != string(shared) {
			t.Fatalf("shared data over bulk channel = %q, %v", got, err)
		}
		gated := &registeredFirst{Coordinator: cl, donors: srv.DonorCount, want: 2}
		donors = append(donors, newTestDonor(gated, DonorOptions{Name: fmt.Sprintf("net-%d", i), Logf: t.Logf}))
	}
	var wg sync.WaitGroup
	for _, d := range donors {
		wg.Add(1)
		go func() { defer wg.Done(); _ = d.Run(bg) }()
	}

	out, err := srv.Wait(bg, "sum-net")
	for _, d := range donors {
		d.Stop()
	}
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := decodeSum(t, out), decodeSum(t, ref); got != want {
		t.Errorf("network result %d != RunLocal result %d", got, want)
	}
	if srv.DonorCount() != 2 {
		t.Errorf("DonorCount = %d, want 2", srv.DonorCount())
	}
	total := 0
	for _, d := range donors {
		total += d.Units()
	}
	if total == 0 {
		t.Error("donors completed no units")
	}
}

// registeredFirst passes a donor's first WaitTasks call through and holds
// every later one until the server has seen want donors. A donor registers
// with its first call and its results ride the next, so no result folds,
// and the problem cannot drain, before every donor is registered.
type registeredFirst struct {
	Coordinator
	donors func() int
	want   int
	calls  int // the donor loop calls WaitTasks from one goroutine
}

func (r *registeredFirst) WaitTasks(ctx context.Context, donor string, maxWait time.Duration, max int) ([]*Task, time.Duration, error) {
	r.calls++
	for r.calls > 1 && r.donors() < r.want {
		select {
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return r.Coordinator.WaitTasks(ctx, donor, maxWait, max)
}

// evilBulkListener accepts bulk connections and answers every request with
// a frame header claiming a size far beyond wire.MaxFrameSize — the
// corrupt-peer case the frame layer must reject.
func evilBulkListener(t *testing.T, mode string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if _, err := wire.ReadFrame(c); err != nil {
					return
				}
				// Frame header: 4-byte length + 4-byte CRC (left zero —
				// these frames never deliver a full body anyway).
				var hdr [8]byte
				switch mode {
				case "oversized":
					binary.BigEndian.PutUint32(hdr[:4], uint32(wire.MaxFrameSize+1))
					_, _ = c.Write(hdr[:])
				case "short":
					binary.BigEndian.PutUint32(hdr[:4], 100)
					_, _ = c.Write(hdr[:])
					_, _ = c.Write([]byte("only ten b")) // then hang up mid-frame
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestFetchBlobRejectsCorruptFrames is the regression test for the frame
// hardening: oversized and truncated frames must surface as errors, never
// as silently empty payloads.
func TestFetchBlobRejectsCorruptFrames(t *testing.T) {
	if _, err := wire.FetchBlob(evilBulkListener(t, "oversized"), "k", 2*time.Second); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversized frame error = %v", err)
	}
	if _, err := wire.FetchBlob(evilBulkListener(t, "short"), "k", 2*time.Second); err == nil {
		t.Error("truncated frame returned no error")
	}
}

// TestBulkFetchFailureRequeuesUnit wires one donor to a corrupt bulk
// channel: its shared-blob fetches fail, each failure is reported to the
// server as a transport failure (not silently dropped), and the units
// complete on the healthy donor.
func TestBulkFetchFailureRequeuesUnit(t *testing.T) {
	registerSum(t)
	const n = 200
	opts := netOpts()
	opts.Policy = sched.Fixed{Size: 5} // 40 units
	srv, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "sum-evil", DM: newSumDM(n), SharedData: []byte("fetched over the bulk channel")}); err != nil {
		t.Fatal(err)
	}

	healthyCl, err := Dial(srv.RPCAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer healthyCl.Close()
	// Throttle the healthy donor so the evil one is guaranteed to claim (and
	// fail) at least one unit before the work runs out.
	healthy := newTestDonor(healthyCl, DonorOptions{Name: "healthy", Throttle: 5 * time.Millisecond})

	evilCl, err := Dial(srv.RPCAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer evilCl.Close()
	evilCl.bulkAddr = evilBulkListener(t, "oversized") // sabotage the data channel
	evil := newTestDonor(evilCl, DonorOptions{Name: "evil", Logf: t.Logf})

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = healthy.Run(bg) }()
	// Let the healthy donor register first so requeued units prefer it.
	time.Sleep(20 * time.Millisecond)
	go func() { defer wg.Done(); _ = evil.Run(bg) }()

	out, err := srv.Wait(bg, "sum-evil")
	healthy.Stop()
	evil.Stop()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeSum(t, out); got != sumSquares(n) {
		t.Errorf("sum = %d, want %d", got, sumSquares(n))
	}
	if evil.Units() != 0 {
		t.Errorf("donor with corrupt bulk channel completed %d units", evil.Units())
	}
	if healthy.Units() == 0 {
		t.Error("healthy donor completed nothing")
	}
	st, _ := srv.Stats(bg, "sum-evil")
	if st.Reissued < 1 {
		t.Errorf("reissued = %d, want >= 1 (failed fetches must requeue)", st.Reissued)
	}
}

// crashNetworkServer tears the network down with no clean-shutdown reply —
// the donor-visible signature of a server process crash (SIGKILL) — then
// disposes the coordinator. Unlike Close, the ErrClosed sentinel is never
// delivered, so donors see only EOF/reset. Severing a connection cancels
// its parked handlers, so the connections retire on their own.
func crashNetworkServer(t *testing.T, ns *NetworkServer) {
	t.Helper()
	ns.closeOnce.Do(func() {}) // a later Close must not re-run the teardown
	_ = ns.rpcLn.Close()
	ns.connsMu.Lock()
	conns := ns.conns
	ns.conns = nil
	ns.connsMu.Unlock()
	for c := range conns {
		_ = c.Close()
	}
	ns.serving.Wait()
	_ = ns.Server.Close()
	_ = ns.bulk.Close()
}

// freeLoopbackAddr reserves a loopback port and returns host:port, so a
// server can be restarted on the same address later in the test.
func freeLoopbackAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDonorReconnectsAcrossServerBounce is the regression test for the
// EOF-as-completion bug: a donor used to treat the EOF/reset of a vanished
// server as a clean finish and exit. With Redial configured it must instead
// keep redialing with backoff, survive the server being torn down and
// restarted on the same address mid-run, and complete fresh work on the new
// server.
func TestDonorReconnectsAcrossServerBounce(t *testing.T) {
	registerSum(t)
	rpcAddr := freeLoopbackAddr(t)
	bulkAddr := freeLoopbackAddr(t)

	opts := netOpts()
	opts.Policy = sched.Fixed{Size: 5}
	srv1, err := ListenAndServe(rpcAddr, bulkAddr, WithServerOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	// Far more work than the donor can finish before the bounce.
	if err := srv1.Submit(bg, &Problem{ID: "bounce-1", DM: newSumDM(1_000_000)}); err != nil {
		t.Fatal(err)
	}

	cl, err := Dial(rpcAddr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d := newTestDonor(cl, DonorOptions{
		Name:      "bouncer",
		Throttle:  2 * time.Millisecond,
		Logf:      t.Logf,
		Redial:    func() (Coordinator, error) { return Dial(rpcAddr, 2*time.Second) },
		RedialMax: 50 * time.Millisecond,
	})
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(bg) }()

	deadline := time.Now().Add(10 * time.Second)
	for d.Units() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("donor stuck at %d units before bounce", d.Units())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Crash the server mid-run (network severed, no close reply). The
	// donor must not exit — the old bug mapped this EOF/reset onto a
	// clean completion.
	crashNetworkServer(t, srv1)
	select {
	case err := <-runErr:
		t.Fatalf("donor exited on server loss (err=%v); want reconnect loop", err)
	case <-time.After(50 * time.Millisecond):
	}
	unitsBeforeRestart := d.Units()

	// Restart on the same address with fresh work; the donor must find it
	// and finish the job.
	srv2, err := ListenAndServe(rpcAddr, bulkAddr, WithServerOptions(netOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	const n = 400
	if err := srv2.Submit(bg, &Problem{ID: "bounce-2", DM: newSumDM(n), SharedData: []byte("fresh")}); err != nil {
		t.Fatal(err)
	}
	out, err := srv2.Wait(bg, "bounce-2")
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeSum(t, out); got != sumSquares(n) {
		t.Errorf("post-bounce sum = %d, want %d", got, sumSquares(n))
	}
	if d.Units() <= unitsBeforeRestart {
		t.Errorf("donor completed no units after the bounce (%d before, %d after)",
			unitsBeforeRestart, d.Units())
	}
	// An explicit Close, by contrast, must end the donor loop cleanly:
	// the drain window delivers the ErrClosed sentinel to the polling
	// donor, which exits instead of redialing.
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Errorf("donor Run after explicit Close = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("donor still retrying after an explicit server Close")
	}
}

// TestForgetReleasesBulkBlobs covers Forget-while-leased at the network
// layer: the shared blob is dropped from the bulk channel, the leased unit
// is not requeued, and Wait fails fast with ErrForgotten.
func TestForgetReleasesBulkBlobs(t *testing.T) {
	registerSum(t)
	opts := netOpts()
	opts.Policy = sched.Fixed{Size: 50}
	srv, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "fgt", DM: newSumDM(500), SharedData: []byte("shared payload")}); err != nil {
		t.Fatal(err)
	}

	cl, err := Dial(srv.RPCAddr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	task, _, err := cl.RequestTask(bg, "w0")
	if err != nil || task == nil {
		t.Fatalf("no task: %v", err)
	}

	if _, err := wire.FetchBlob(srv.BulkAddr(), sharedKey("fgt"), time.Second); err != nil {
		t.Fatalf("shared blob missing before Forget: %v", err)
	}

	if err := srv.Forget("fgt"); err != nil {
		t.Fatal(err)
	}

	if _, err := wire.FetchBlob(srv.BulkAddr(), sharedKey("fgt"), time.Second); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Errorf("shared blob after Forget: err = %v, want not found", err)
	}
	if task2, _, err := srv.RequestTask(bg, "w1"); err != nil || task2 != nil {
		t.Errorf("unit re-dispatched after Forget: task=%+v err=%v", task2, err)
	}
	if _, err := srv.Wait(bg, "fgt"); !errors.Is(err, ErrForgotten) {
		t.Errorf("Wait after Forget = %v, want ErrForgotten", err)
	}
}

// TestReplicaLeasedAfterHeldResultGetsPayload: a spot-checked unit whose
// first result is merely held (not folded) still carries its payload to
// the next replica. Replica "b" is leased over the wire after replica
// "a"'s result arrived, and its dispatch reply must hold the same payload
// "a" computed, or "b" cannot compute the tie and the set burns another
// donor.
func TestReplicaLeasedAfterHeldResultGetsPayload(t *testing.T) {
	registerSum(t)
	opts := verifyTestOptions()
	opts.Policy = sched.Fixed{Size: 50}
	opts.Lease = time.Hour
	srv, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const n = 10 // one unit under Fixed{50}
	if err := srv.Submit(bg, &Problem{ID: "held", DM: newSumDM(n)}); err != nil {
		t.Fatal(err)
	}
	dial := func() *RPCClient {
		cl, err := Dial(srv.RPCAddr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	clA, clB := dial(), dial()
	first, _, err := clA.RequestTask(bg, "a")
	if err != nil || first == nil || len(first.Unit.Payload) == 0 {
		t.Fatalf("no task with a payload: %+v, %v", first, err)
	}
	result, err := Marshal(sumSquares(n))
	if err != nil {
		t.Fatal(err)
	}
	if err := clA.SubmitResult(bg, &Result{ProblemID: "held", UnitID: first.Unit.ID, Payload: result,
		Elapsed: time.Millisecond, Donor: "a", Epoch: first.Epoch}); err != nil {
		t.Fatal(err)
	}
	// The result is queued on the client until its next request: a
	// one-unit dispatch scan carries it, so the server has offered it by
	// the time the scan (which finds nothing for "a") returns.
	if again, _, err := clA.RequestTask(bg, "a"); err != nil || again != nil {
		t.Fatalf("delivering a's result: task %+v, err %v; want none", again, err)
	}
	if st, _ := srv.Status(bg, "held"); st.Completed != 0 {
		t.Fatalf("test setup: unit folded on one result (completed = %d), not held", st.Completed)
	}
	if ps, err := srv.lookup("held"); err != nil {
		t.Fatal(err)
	} else {
		ps.mu.Lock()
		held := len(ps.table.sets[first.Unit.ID].results)
		ps.mu.Unlock()
		if held != 1 {
			t.Fatalf("test setup: unit %d holds %d results after a's was delivered, want 1", first.Unit.ID, held)
		}
	}
	replica, _, err := clB.RequestTask(bg, "b")
	if err != nil || replica == nil || replica.Unit.ID != first.Unit.ID {
		t.Fatalf("no replica of unit %d: %+v, %v", first.Unit.ID, replica, err)
	}
	if !bytes.Equal(replica.Unit.Payload, first.Unit.Payload) {
		t.Fatalf("replica carries %d payload bytes, want the %d its first lease carried", len(replica.Unit.Payload), len(first.Unit.Payload))
	}
	if !submitRaw(t, srv.Server, replica, "b", result) {
		t.Fatal("replica's result rejected")
	}
	out, err := srv.Wait(bg, "held")
	if err != nil {
		t.Fatal(err)
	}
	if sum := decodeSum(t, out); sum != sumSquares(n) {
		t.Errorf("sum = %d, want %d", sum, sumSquares(n))
	}
	if st, _ := srv.Stats(bg, "held"); st.Verified != 1 || st.Reissued != 0 {
		t.Errorf("verified/reissued = %d/%d, want 1/0", st.Verified, st.Reissued)
	}
}

// echoPayloadAlg returns each unit's payload as its result, so a test can
// check the bytes a donor was dispatched.
type echoPayloadAlg struct{}

func (echoPayloadAlg) Init([]byte) error { return nil }

func (echoPayloadAlg) ProcessCtx(_ context.Context, payload []byte) ([]byte, error) {
	return payload, nil
}

var registerEchoPayloadOnce sync.Once

// TestLargePayloadsRideTheDispatchReply: over real sockets, units whose
// payloads are well past 64 KiB reach the donor inline in its dispatch
// replies, and the bulk channel answers one fetch, the shared blob's.
func TestLargePayloadsRideTheDispatchReply(t *testing.T) {
	registerEchoPayloadOnce.Do(func() {
		RegisterAlgorithm("net-test/echo-payload", func() Algorithm { return echoPayloadAlg{} })
	})
	srv, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(netOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dm := newEchoDM(4)
	dm.algorithm = "net-test/echo-payload"
	dm.payload = bytes.Repeat([]byte("0123456789abcdef"), 96<<10/16)
	if err := srv.Submit(bg, &Problem{ID: "large", DM: dm, SharedData: []byte("the one bulk fetch")}); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.RPCAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	d := newTestDonor(cl, DonorOptions{Name: "large-donor", Logf: t.Logf})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = d.Run(bg) }()
	_, err = srv.Wait(bg, "large")
	d.Stop()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 4; id++ {
		if !bytes.Equal(dm.results[id], dm.payload) {
			t.Errorf("unit %d: result of %d bytes, want its %d-byte payload back", id, len(dm.results[id]), len(dm.payload))
		}
	}
	if st := srv.BulkStats(); st.Fetches != 1 {
		t.Errorf("bulk channel answered %d fetches, want 1 (the shared blob; payloads ride the reply)", st.Fetches)
	}
}

// TestOversizeUnitFailsItsProblem: a unit no dispatch reply can carry in
// one wire frame fails its problem when it is cut, with an error that
// names its size and the limit, and no donor is leased it. Leasing it would make the reply unwritable: the donor's connection
// drops, the lease expires and the unit reissues, forever.
func TestOversizeUnitFailsItsProblem(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(netOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dm := newEchoDM(1)
	dm.payload = make([]byte, wire.MaxFrameSize) // the test's one frame-sized allocation
	if err := srv.Submit(bg, &Problem{ID: "oversize", DM: dm}); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.RPCAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if tasks, _, err := cl.WaitTasks(bg, "big", 100*time.Millisecond, 0); err != nil || len(tasks) != 0 {
		t.Fatalf("dispatch = %d tasks, %v; want none and no error", len(tasks), err)
	}
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	_, err = srv.Wait(ctx, "oversize")
	size := taskBytes("oversize", wire.Digest(nil), &Unit{Algorithm: dm.algorithm, Payload: dm.payload})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf(" %d bytes", size)) ||
		!strings.Contains(err.Error(), fmt.Sprintf("limit of %d", maxTaskBytes)) {
		t.Fatalf("Wait = %v; want the problem failed, naming the unit's size and the limit", err)
	}
	if st, _ := srv.Stats(bg, "oversize"); st.Dispatched != 0 {
		t.Errorf("dispatched = %d, want 0", st.Dispatched)
	}
}

func TestResolveBulkAddr(t *testing.T) {
	cases := []struct{ rpc, bulk, want string }{
		{"10.0.0.5:7070", ":7071", "10.0.0.5:7071"},
		{"10.0.0.5:7070", "0.0.0.0:7071", "10.0.0.5:7071"},
		{"10.0.0.5:7070", "[::]:7071", "10.0.0.5:7071"},
		{"10.0.0.5:7070", "192.168.1.9:7071", "192.168.1.9:7071"},
		{"10.0.0.5:7070", "garbage", "garbage"},
	}
	for _, c := range cases {
		if got := resolveBulkAddr(c.rpc, c.bulk); got != c.want {
			t.Errorf("resolveBulkAddr(%q, %q) = %q, want %q", c.rpc, c.bulk, got, c.want)
		}
	}
}

// parkClients dials n clients and parks each in a long-poll with no work
// anywhere, returning the clients, their raw sockets, and the channel the
// parks' outcomes arrive on. It returns once the server has seen every
// donor's dispatch scan, i.e. every park is in (or a hair from) its wait.
func parkClients(t *testing.T, ns *NetworkServer, n int) ([]*RPCClient, []net.Conn, <-chan error) {
	t.Helper()
	clients := make([]*RPCClient, n)
	socks := make([]net.Conn, n)
	parked := make(chan error, n)
	for i := range clients {
		cl, err := Dial(ns.RPCAddr(), 5*time.Second, WithConnWrapper(func(c net.Conn) net.Conn {
			socks[i] = c
			return c
		}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		clients[i] = cl
		go func() {
			_, _, err := cl.WaitTasks(bg, fmt.Sprintf("parked-%d", i), time.Hour, 1)
			parked <- err
		}()
	}
	waitFor(t, 5*time.Second, func() bool { return ns.DonorCount() == n })
	return clients, socks, parked
}

// TestParkedDonorDeathLeasesNothing: donors that die while parked in
// WaitTask take their parks with them. A handler's ctx ends with its
// connection, so the server retires the dead connections at once — and a
// unit submitted afterwards is dispatched exactly once, to the live donor,
// instead of being leased to a corpse's still-parked handler and sitting
// out the (here one-hour) lease on a dead socket.
func TestParkedDonorDeathLeasesNothing(t *testing.T) {
	registerSum(t)
	opts := netOpts() // a Lease of an hour
	opts.Policy = sched.Fixed{Size: 1000}
	ns, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	_, socks, parked := parkClients(t, ns, 8)
	for _, s := range socks {
		s.Close() // abrupt: no goodbye, the process is simply gone
	}
	for range socks {
		if err := <-parked; !errors.Is(err, ErrServerGone) {
			t.Fatalf("park on a severed socket = %v, want ErrServerGone", err)
		}
	}
	// The server retires a dead donor's connection only once its parked
	// handler has returned: all eight must go, or the handlers outlived
	// their donors.
	waitFor(t, 5*time.Second, func() bool {
		ns.connsMu.Lock()
		defer ns.connsMu.Unlock()
		return len(ns.conns) == 0
	})

	const n = 100
	if err := ns.Submit(bg, &Problem{ID: "after-death", DM: newSumDM(n)}); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(ns.RPCAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	d := newTestDonor(cl, DonorOptions{Name: "survivor", Logf: t.Logf})
	done := make(chan struct{})
	go func() { defer close(done); _ = d.Run(bg) }()
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	out, err := ns.Wait(ctx, "after-death")
	d.Stop()
	<-done
	if err != nil {
		t.Fatalf("Wait = %v: the unit is leased to a dead donor", err)
	}
	if got := decodeSum(t, out); got != sumSquares(n) {
		t.Errorf("sum = %d, want %d", got, sumSquares(n))
	}
	if st, _ := ns.Stats(bg, "after-death"); st.Dispatched != 1 || st.Reissued != 0 {
		t.Errorf("dispatched %d, reissued %d; want 1 and 0", st.Dispatched, st.Reissued)
	}
}

// TestCloseAnswersEveryParkedDonorOverTheWire: a clean shutdown reaches
// every parked donor as ErrClosed — the sentinel that ends a donor loop for
// good — and never as ErrServerGone, which a Redial-configured donor would
// answer by reconnecting forever. Close ends every connection with the
// mux's goodbye; it waits on no timer.
func TestCloseAnswersEveryParkedDonorOverTheWire(t *testing.T) {
	ns, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(netOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	clients, _, parked := parkClients(t, ns, 32)
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	for range clients {
		select {
		case err := <-parked:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("parked call across Close = %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a parked call was never answered")
		}
	}
	// The goodbye covers a donor that was between calls too.
	if _, _, err := clients[0].WaitTasks(bg, "parked-0", time.Second, 1); !errors.Is(err, ErrClosed) {
		t.Errorf("call after Close = %v, want ErrClosed", err)
	}
}

// napAlg sleeps napUnit per unit and echoes the payload: a unit of known
// duration.
type napAlg struct{}

const napUnit = 10 * time.Millisecond

var registerNapOnce sync.Once

func (napAlg) Init([]byte) error { return nil }

func (napAlg) ProcessCtx(ctx context.Context, payload []byte) ([]byte, error) {
	select {
	case <-time.After(napUnit):
		return payload, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// napDM is gridDM's one-cost units run by napAlg.
type napDM struct{ *gridDM }

func (d napDM) NextUnit(budget int64) (*Unit, bool, error) {
	u, ok, err := d.gridDM.NextUnit(budget)
	if ok {
		u.Algorithm = "dist-test/nap"
	}
	return u, ok, err
}

// stallAlg runs napAlg but never finishes the unit whose payload is item:
// it reports the stall and then blocks until its donor is stopped.
type stallAlg struct {
	napAlg
	item    byte
	stalled chan<- struct{}
}

func (a stallAlg) ProcessCtx(ctx context.Context, payload []byte) ([]byte, error) {
	if payload[0] != a.item {
		return a.napAlg.ProcessCtx(ctx, payload)
	}
	a.stalled <- struct{}{}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestKilledDonorReissuedByOverdueRule: over real sockets, with a Lease of
// an hour, a donor measured on a few units is killed mid-unit — its control
// connection cut with no goodbye, as a kill -9 would. Its unit is reissued
// by the overdue rule, within expireFactor times the unit's expectation (or
// the floor) plus one sweep, and not after the hour: the live donor still
// has fresh units to compute, so no speculative copy can rescue it first.
// Every unit folds exactly once.
func TestKilledDonorReissuedByOverdueRule(t *testing.T) {
	registerNapOnce.Do(func() { RegisterAlgorithm("dist-test/nap", func() Algorithm { return napAlg{} }) })
	opts := netOpts()
	opts.Policy = sched.Fixed{Size: 1}
	ns, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	// The live donor alone needs ~1.5 s for the units after the stall:
	// longer than the floor the dead donor's lease expires at.
	dm := napDM{newGridDM(150)}
	if err := ns.Submit(bg, &Problem{ID: "overdue", DM: dm}); err != nil {
		t.Fatal(err)
	}

	var conn net.Conn
	clA, err := Dial(ns.RPCAddr(), 5*time.Second, WithConnWrapper(func(c net.Conn) net.Conn { conn = c; return c }))
	if err != nil {
		t.Fatal(err)
	}
	defer clA.Close()
	stalled := make(chan struct{}, 1)
	ctxA, killA := context.WithCancel(bg)
	defer killA()
	a := NewDonor(clA, WithName("a"), WithAlgorithmWrapper(func(_ string, alg Algorithm) Algorithm {
		return stallAlg{item: 6, stalled: stalled}
	}))
	doneA := make(chan error, 1)
	go func() { doneA <- a.Run(ctxA) }()
	select {
	case <-stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("donor a never reached its sixth unit")
	}
	stall := time.Now()
	_ = conn.Close() // killed: no goodbye, no failure report
	killA()
	<-doneA

	clB, err := Dial(ns.RPCAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()
	ctxB, stopB := context.WithCancel(bg)
	defer stopB()
	b := NewDonor(clB, WithName("b"))
	doneB := make(chan error, 1)
	go func() { doneB <- b.Run(ctxB) }()

	// One sweep, and a loaded host's slack, on top of the rule's bound.
	limit := max(expiryFloor, expireFactor*(napUnit+batchLatencyTarget)) + time.Second
	for {
		st, err := ns.Stats(bg, "overdue")
		if err != nil {
			t.Fatal(err)
		}
		if st.Reissued > 0 {
			t.Logf("reissued %v after the kill (bound %v)", time.Since(stall).Round(time.Millisecond), limit)
			break
		}
		if time.Since(stall) > limit {
			t.Fatalf("dead donor's unit not reissued %v after the kill (stats %+v)", time.Since(stall).Round(time.Millisecond), st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(bg, 20*time.Second)
	defer cancel()
	if _, err := ns.Wait(ctx, "overdue"); err != nil {
		t.Fatal(err)
	}
	stopB()
	<-doneB
	for id, n := range dm.folds {
		if n != 1 {
			t.Errorf("unit %d folded %d times", id, n)
		}
	}
	if st, _ := ns.Stats(bg, "overdue"); st.Completed != 150 || st.Completed > st.Dispatched || st.Speculated != 0 {
		t.Errorf("stats %+v: want 150 completed, no more than dispatched, none speculated", st)
	}
}
