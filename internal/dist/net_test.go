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
		Policy:     sched.Fixed{Size: 17},
		Lease:      time.Hour,
		ExpiryScan: time.Hour,
	}
}

// TestNetworkMatchesRunLocal runs the same problem through RunLocal and
// through a real loopback server↔donor deployment (control over the mux,
// payloads forced onto the bulk socket channel) and demands identical
// results.
func TestNetworkMatchesRunLocal(t *testing.T) {
	registerSum(t)
	const n = 400
	ref, err := RunLocal(bg, &Problem{ID: "sum-ref", DM: newSumDM(n)}, 3, sched.Fixed{Size: 17})
	if err != nil {
		t.Fatal(err)
	}

	opts := netOpts()
	opts.BulkThreshold = 1 // every payload takes the bulk channel
	srv, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	shared := []byte("shared blob travels the bulk channel too")
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
		donors = append(donors, newTestDonor(cl, DonorOptions{Name: fmt.Sprintf("net-%d", i), Logf: t.Logf}))
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
// channel: its payload fetches fail, each failure is reported to the server
// (not silently dropped), and the units complete on the healthy donor.
func TestBulkFetchFailureRequeuesUnit(t *testing.T) {
	registerSum(t)
	const n = 200
	opts := netOpts()
	opts.Policy = sched.Fixed{Size: 5} // 40 units
	opts.BulkThreshold = 1
	srv, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "sum-evil", DM: newSumDM(n)}); err != nil {
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
		RedialMin: 5 * time.Millisecond,
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
// layer: the shared blob and the leased unit's offloaded payload are both
// dropped from the bulk channel, the unit is not requeued, and Wait fails
// fast with ErrForgotten.
func TestForgetReleasesBulkBlobs(t *testing.T) {
	registerSum(t)
	opts := netOpts()
	opts.Policy = sched.Fixed{Size: 50}
	opts.BulkThreshold = 1 // force every payload onto the bulk channel
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
	task, _, err := cl.RequestTask(bg, "w0") // leases a unit, offloading its payload
	if err != nil || task == nil {
		t.Fatalf("no task: %v", err)
	}

	if _, err := wire.FetchBlob(srv.BulkAddr(), sharedKey("fgt"), time.Second); err != nil {
		t.Fatalf("shared blob missing before Forget: %v", err)
	}
	if _, err := wire.FetchBlob(srv.BulkAddr(), unitKey("fgt", task.Epoch, task.Unit.ID), time.Second); err != nil {
		t.Fatalf("unit blob missing before Forget: %v", err)
	}

	if err := srv.Forget("fgt"); err != nil {
		t.Fatal(err)
	}

	if _, err := wire.FetchBlob(srv.BulkAddr(), sharedKey("fgt"), time.Second); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Errorf("shared blob after Forget: err = %v, want not found", err)
	}
	if _, err := wire.FetchBlob(srv.BulkAddr(), unitKey("fgt", task.Epoch, task.Unit.ID), time.Second); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Errorf("unit blob after Forget: err = %v, want not found", err)
	}
	if task2, _, err := srv.RequestTask(bg, "w1"); err != nil || task2 != nil {
		t.Errorf("unit re-dispatched after Forget: task=%+v err=%v", task2, err)
	}
	if _, err := srv.Wait(bg, "fgt"); !errors.Is(err, ErrForgotten) {
		t.Errorf("Wait after Forget = %v, want ErrForgotten", err)
	}
}

// TestStaleOffloadDoesNotClobberSuccessor: a task leased from a problem
// that is then forgotten and resubmitted under the same ID may be fetched
// late (the donor's fetch follows the reply that carried the key). The
// stale incarnation's key must answer not-found — never the successor's
// payload for a colliding unit ID — and the successor's own key must keep
// serving the successor's bytes.
func TestStaleOffloadDoesNotClobberSuccessor(t *testing.T) {
	registerSum(t)
	opts := netOpts()
	opts.Policy = sched.Fixed{Size: 50}
	opts.BulkThreshold = 1
	srv, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "so", DM: newSumDM(500)}); err != nil {
		t.Fatal(err)
	}
	// Lease a unit of incarnation 1 without fetching — the state of a
	// control handler whose reply is in flight.
	stale, _, err := srv.Server.RequestTask(bg, "a")
	if err != nil || stale == nil {
		t.Fatalf("no stale task: %v", err)
	}
	if err := srv.Forget("so"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(bg, &Problem{ID: "so", DM: newSumDM(500)}); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.RPCAddr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	live, _, err := cl.RequestTask(bg, "b") // fetches the successor's payload by key
	if err != nil || live == nil {
		t.Fatalf("no live task: %v", err)
	}
	if live.Unit.ID != stale.Unit.ID {
		t.Fatalf("test setup: unit IDs %d vs %d do not collide", live.Unit.ID, stale.Unit.ID)
	}
	got, err := wire.FetchBlob(srv.BulkAddr(), unitKey("so", live.Epoch, live.Unit.ID), time.Second)
	if err != nil {
		t.Fatalf("successor blob gone after stale offload: %v", err)
	}
	if string(got) != string(live.Unit.Payload) {
		t.Error("successor blob corrupted by stale offload")
	}
	// The stale incarnation's blob is not left behind either.
	if _, err := wire.FetchBlob(srv.BulkAddr(), unitKey("so", stale.Epoch, stale.Unit.ID), time.Second); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Errorf("stale blob leaked: err = %v, want not found", err)
	}
}

// TestHeldReplicaLeavesOffloadedPayloadFetchable pins the payload lifetime
// rule (ROADMAP 5b): an offloaded payload is fetchable until its unit
// folds, not until the first result for it is accepted. Replica "b" of a
// spot-checked unit is leased before replica "a" submits but fetches after
// — "a"'s result is merely held, so the payload must still be served, or
// "b" is charged a transport failure and the set burns another donor.
func TestHeldReplicaLeavesOffloadedPayloadFetchable(t *testing.T) {
	registerSum(t)
	opts := verifyTestOptions()
	opts.Policy = sched.Fixed{Size: 50}
	opts.Lease, opts.ExpiryScan = time.Hour, time.Hour
	opts.BulkThreshold = 1
	srv, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const n = 10 // one unit under Fixed{50}
	if err := srv.Submit(bg, &Problem{ID: "held", DM: newSumDM(n)}); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.RPCAddr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	first, _, err := cl.RequestTask(bg, "a") // payload arrives via the bulk key
	if err != nil || first == nil || len(first.Unit.Payload) == 0 {
		t.Fatalf("no task with a fetched payload: %+v, %v", first, err)
	}
	// "b" is leased the replica, but its fetch has not happened yet — the
	// state of a control handler whose reply is in flight.
	replica, _, err := srv.Server.RequestTask(bg, "b")
	if err != nil || replica == nil || replica.Unit.ID != first.Unit.ID {
		t.Fatalf("no replica of unit %d: %+v, %v", first.Unit.ID, replica, err)
	}
	result, err := Marshal(sumSquares(n))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SubmitResult(bg, &Result{ProblemID: "held", UnitID: first.Unit.ID, Payload: result,
		Elapsed: time.Millisecond, Donor: "a", Epoch: first.Epoch}); err != nil {
		t.Fatal(err)
	}
	// The result is queued on the client until its next request: a
	// one-unit dispatch scan carries it, so the server has offered it by
	// the time the scan (which finds nothing for "a") returns.
	if again, _, err := cl.RequestTask(bg, "a"); err != nil || again != nil {
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
	got, err := wire.FetchBlob(srv.BulkAddr(), unitKey("held", replica.Epoch, replica.Unit.ID), time.Second)
	if err != nil {
		t.Fatalf("replica's payload fetch after a held result: %v", err)
	}
	if !bytes.Equal(got, replica.Unit.Payload) {
		t.Error("replica fetched different bytes than it was leased")
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
	opts := netOpts() // Lease and ExpiryScan of an hour
	opts.LongPoll = time.Hour
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
