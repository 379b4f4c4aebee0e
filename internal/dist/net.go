package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// ErrProtocolMismatch is returned by Dial when the peer does not speak this
// build's control protocol: it presented a different wire.FlatPreamble
// version, or hung up instead of presenting one. The control channel has
// exactly one protocol and no fallback, so the only fix is matching builds.
var ErrProtocolMismatch = errors.New("dist: control protocol version mismatch")

// handshakeTimeout bounds the version exchange on a freshly accepted
// control connection, so a peer that connects and sends nothing cannot pin
// a goroutine until Close.
const handshakeTimeout = 10 * time.Second

// ErrServerGone is returned by RPC-backed coordinator calls when the
// control connection is lost without an explicit close reply from the
// server — a crash, a restart, or a network partition. It is deliberately
// distinct from ErrClosed: ErrClosed means the server *told* the donor it
// is shutting down (the sentinel travelled back as a reply status, or as
// the goodbye its connection ended with), while ErrServerGone means the
// wire went dead mid-conversation — any read or write failure, no message
// text is inspected — and the server may well come back. Donors configured
// with DonorOptions.Redial reconnect on ErrServerGone and exit only on
// ErrClosed.
var ErrServerGone = errors.New("dist: server gone (connection lost)")

// controlErrors are the sentinels the control mux surfaces on both ends:
// ErrClosed crosses the wire as a status code, a dead connection fails
// every call on it with ErrServerGone, a peer of another version fails
// the dial with ErrProtocolMismatch.
var controlErrors = wire.MuxErrors{Closed: ErrClosed, Lost: ErrServerGone, Mismatch: ErrProtocolMismatch}

// The control channel's verbs: the byte after the sequence number in every
// request frame (docs/ARCHITECTURE.md, "Control channel").
const (
	verbHandshake byte = 1 + iota
	verbRequestTask
	verbWaitTask
	verbSubmitResult
	verbReportFailure
	verbCancelNotices
)

// NetworkServer is a Server with the paper's two network channels attached:
// control traffic (task handout, results, failures, cancel notices) over
// the wire package's request/response mux — standing where the paper used
// Java RMI — and bulk data (shared blobs, large unit payloads) over raw
// TCP sockets, both in length-prefixed, checksummed frames. The bulk socket
// stores nothing: it serves the coordinator's own state (Server.bulkBlob).
type NetworkServer struct {
	*Server
	rpcLn net.Listener
	bulk  *wire.BulkServer

	closeOnce sync.Once
	closeErr  error

	// connsMu guards the control connections being served, so Close can
	// shut them down instead of leaving their serving goroutines to
	// donors' mercy. The table is nil once Close has taken it.
	connsMu sync.Mutex
	conns   map[*wire.MuxServer]struct{} //dist:guardedby connsMu
	// serving counts the accept loop and every connection it started.
	serving sync.WaitGroup
}

// ListenAndServe starts a network-facing coordinator. rpcAddr carries
// control traffic, bulkAddr carries bulk data; ":0" picks free ports.
// Under ServerOptions.DataDir the coordinator first recovers journaled
// problems (see OpenServer); their shared blobs are fetchable from the
// bulk listener's first accept, since it reads the recovered state itself.
func ListenAndServe(rpcAddr, bulkAddr string, opts ...ServerOption) (*NetworkServer, error) {
	srv, err := OpenServer(opts...)
	if err != nil {
		return nil, err
	}
	bulk, err := wire.NewBulkServerWithFallback(bulkAddr, srv.bulkBlob)
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", rpcAddr)
	if err != nil {
		_ = bulk.Close()
		_ = srv.Close()
		return nil, fmt.Errorf("dist: control listen: %w", err)
	}
	ns := &NetworkServer{
		Server: srv,
		rpcLn:  ln,
		bulk:   bulk,
		conns:  make(map[*wire.MuxServer]struct{}),
	}
	ns.serving.Add(1)
	go func() {
		defer ns.serving.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			ns.serving.Add(1)
			go func() {
				defer ns.serving.Done()
				ns.serveControlConn(conn, handshakeTimeout)
			}()
		}
	}()
	return ns, nil
}

// serveControlConn serves one accepted control connection until it ends:
// the mux runs the version exchange — a peer that presents anything but
// wire.FlatPreamble within timeout (an older build, a gob-rpc stream, a
// port scanner, silence) is closed unserved — and then hands every request
// to handle under a ctx that is cancelled when the connection's read loop
// ends. The connection sits in the conns table for as long, which is how
// Close finds it.
func (ns *NetworkServer) serveControlConn(conn net.Conn, timeout time.Duration) {
	mc := wire.NewMuxServer(conn, ns.handle, ErrClosed)
	ns.connsMu.Lock()
	if ns.conns == nil { // Close has run
		ns.connsMu.Unlock()
		_ = conn.Close()
		return
	}
	ns.conns[mc] = struct{}{}
	ns.connsMu.Unlock()
	mc.Serve(timeout)
	ns.connsMu.Lock()
	delete(ns.conns, mc)
	ns.connsMu.Unlock()
}

// RPCAddr returns the control-channel listen address.
func (ns *NetworkServer) RPCAddr() string { return ns.rpcLn.Addr().String() }

// BulkAddr returns the bulk-data listen address.
func (ns *NetworkServer) BulkAddr() string { return ns.bulk.Addr() }

// Submit registers a problem, refusing shared data too large for the one
// bulk frame a donor fetches it in. Nothing is published: the blob is
// fetchable from the moment the problem is registered, which is also the
// first moment a donor can be handed one of its units.
func (ns *NetworkServer) Submit(ctx context.Context, p *Problem) error {
	if p != nil && len(p.SharedData)+1 > wire.MaxFrameSize {
		return fmt.Errorf("dist: shared data of %d bytes exceeds the bulk frame limit of %d",
			len(p.SharedData), wire.MaxFrameSize-1)
	}
	return ns.Server.Submit(ctx, p)
}

// BulkStats reports the bulk channel's traffic counters — the observable
// the dedup benchmark and the blob-cache tests read.
func (ns *NetworkServer) BulkStats() wire.BulkStats { return ns.bulk.Stats() }

// Close shuts down the coordinator and then both listeners. The
// coordinator is closed FIRST: that makes every parked WaitTask handler —
// and any verb arriving from then on — return ErrClosed, the reply that
// cleanly ends a donor's reconnect loop. Each control connection is then
// shut down with the mux's goodbye, after which the donor's client answers
// every pending and later call with ErrClosed itself — so the sentinel
// reaches a parked donor, one between two calls and one inside a unit
// alike, and nothing waits on a timer. Merely severing the connections
// would turn every clean shutdown into an ambiguous EOF that a
// Redial-configured donor treats as a crash and retries forever.
func (ns *NetworkServer) Close() error {
	ns.closeOnce.Do(func() {
		err := ns.Server.Close()
		if lerr := ns.rpcLn.Close(); err == nil {
			err = lerr
		}
		ns.connsMu.Lock()
		conns := ns.conns
		ns.conns = nil // a connection accepted from here on is closed unserved
		ns.connsMu.Unlock()
		for c := range conns {
			c.Shutdown()
		}
		ns.serving.Wait()
		if berr := ns.bulk.Close(); err == nil {
			err = berr
		}
		ns.closeErr = err
	})
	return ns.closeErr
}

// Control-channel message types, flat-encoded (see flat.go).

// donorArgs names the calling donor: the whole request of RequestTask and
// of CancelNotices.
type donorArgs struct{ Donor string }

// waitTaskArgs identifies the donor long-polling for work. MaxWaitNs is
// the longest park the donor wants from this call (<=0 means no
// preference); the server further clamps it to ServerOptions.LongPoll.
type waitTaskArgs struct {
	Donor     string
	MaxWaitNs int64
	// MaxBatch asks for up to this many units in one reply (extras ride in
	// TaskReply.Batch). Zero or one requests a single unit; the server
	// further clamps to ServerOptions.DispatchBatch.
	MaxBatch int
}

// TaskReply carries a dispatch of one or more units: the first in the
// head fields, the rest in Batch. When a payload was offloaded to the bulk
// channel, Unit.Payload is nil and BulkKey names the blob.
type TaskReply struct {
	HasTask    bool
	ProblemID  string
	Unit       Unit
	BulkKey    string
	WaitHintNs int64
	// Epoch is the problem incarnation tag (see Task.Epoch); donors echo
	// it in ResultArgs.
	Epoch int64
	// SharedDigest is the content address of the problem's shared blob
	// (see Task.SharedDigest).
	SharedDigest string
	// Priority echoes the problem's Submit-time priority (see
	// Task.Priority) so donors order batched units.
	Priority int64
	// Verify marks the unit as one replica of a quorum-verified dispatch
	// (see Task.Verify). Advisory.
	Verify bool
	// Batch carries the extra units of a batched WaitTask dispatch. Only
	// present when the donor asked for more than one unit; every entry
	// is leased and epoch-tagged individually, exactly as if dispatched
	// alone.
	Batch []BatchTask
}

// BatchTask is one extra unit in a batched TaskReply, carrying the same
// per-unit dispatch fields as the reply's head unit.
type BatchTask struct {
	ProblemID string
	Unit      Unit
	BulkKey   string
	Epoch     int64
	// SharedDigest mirrors TaskReply.SharedDigest for this entry's problem
	// (batches may span problems under round-robin sharing).
	SharedDigest string
	// Priority mirrors TaskReply.Priority for this entry's problem.
	Priority int64
	// Verify mirrors TaskReply.Verify for this entry's unit.
	Verify bool
}

// ResultArgs carries one completed unit's output back to the server.
// Epoch echoes TaskReply.Epoch.
type ResultArgs struct {
	Donor     string
	ProblemID string
	UnitID    int64
	Payload   []byte
	ElapsedNs int64
	Epoch     int64
}

// failureArgs reports a unit the donor could not compute. Transport marks
// failures to *obtain* the unit (bulk payload fetch) rather than failures
// of the computation itself; they requeue the unit without feeding the
// poisoned-unit attempt caps. Epoch echoes TaskReply.Epoch (zero — the
// untagged Coordinator.ReportFailure — is accepted unchecked).
type failureArgs struct {
	Donor     string
	ProblemID string
	UnitID    int64
	Reason    string
	Transport bool
	Epoch     int64
}

// cancelReply carries the donor's pending epoch-tagged cancel notices —
// the control verb that lets a server-side Forget abort in-flight donor
// compute instead of collecting straggler results it would only drop.
type cancelReply struct{ Notices []CancelNotice }

// handshakeReply tells a connecting donor where the bulk channel lives.
type handshakeReply struct{ BulkAddr string }

// handle serves one control request: decode the verb's envelope, run the
// coordinator call under the connection's ctx, return the reply envelope.
// The ctx ends with the connection, so a donor that dies while parked in
// WaitTask unparks its handler at once — and, RequestTask refusing a
// cancelled ctx, can no longer be leased a unit. Every parked call runs in
// its own goroutine (the mux's), so it never blocks the connection; a
// server Close answers each with ErrClosed before the connection goes.
// Cancellation of a donor's compute crosses the wire as data (cancel
// notices), not as context. A reply returned beside an error is ignored.
func (ns *NetworkServer) handle(ctx context.Context, verb byte, d *wire.Decoder) (wire.FlatMarshaler, error) {
	switch verb {
	case verbHandshake:
		return handshakeReply{BulkAddr: ns.BulkAddr()}, nil

	case verbRequestTask:
		var a donorArgs
		if a.UnmarshalFlat(d); d.Err() != nil {
			return nil, d.Err()
		}
		task, wait, err := ns.Server.RequestTask(ctx, a.Donor)
		return ns.taskReply(taskSlice(task), wait), err

	case verbWaitTask:
		// No task and a zero hint in the reply means the park deadline
		// fired: the donor re-parks immediately.
		var a waitTaskArgs
		if a.UnmarshalFlat(d); d.Err() != nil {
			return nil, d.Err()
		}
		tasks, wait, err := ns.Server.WaitTasks(ctx, a.Donor, time.Duration(a.MaxWaitNs), max(a.MaxBatch, 1))
		return ns.taskReply(tasks, wait), err

	case verbSubmitResult:
		var a ResultArgs
		if a.UnmarshalFlat(d); d.Err() != nil {
			return nil, d.Err()
		}
		return nil, ns.Server.SubmitResult(ctx, &Result{
			ProblemID: a.ProblemID,
			UnitID:    a.UnitID,
			Payload:   a.Payload,
			Elapsed:   time.Duration(a.ElapsedNs),
			Donor:     a.Donor,
			Epoch:     a.Epoch,
		})

	case verbReportFailure:
		var a failureArgs
		if a.UnmarshalFlat(d); d.Err() != nil {
			return nil, d.Err()
		}
		kind := failCompute
		if a.Transport {
			kind = failTransport
		}
		return nil, ns.Server.reportFailure(ctx, a.Donor, a.ProblemID, a.UnitID, a.Reason, kind, a.Epoch)

	case verbCancelNotices:
		var a donorArgs
		if a.UnmarshalFlat(d); d.Err() != nil {
			return nil, d.Err()
		}
		notices, err := ns.Server.CancelNotices(ctx, a.Donor)
		return cancelReply{Notices: notices}, err
	}
	return nil, fmt.Errorf("dist: unknown control verb %d", verb)
}

// taskReply encodes a dispatch of zero or more units: the first in the
// reply's head fields, extras as Batch entries, each shipped by bulk key
// instead of inline when large (Server.offloads).
func (ns *NetworkServer) taskReply(tasks []*Task, wait time.Duration) *TaskReply {
	reply := &TaskReply{WaitHintNs: int64(wait)}
	for i, task := range tasks {
		bt := BatchTask{
			ProblemID:    task.ProblemID,
			Unit:         task.Unit,
			Epoch:        task.Epoch,
			SharedDigest: task.SharedDigest,
			Priority:     int64(task.Priority),
			Verify:       task.Verify,
		}
		if ns.offloads(task.Unit.Payload) {
			bt.BulkKey = unitKey(task.ProblemID, task.Epoch, task.Unit.ID)
			bt.Unit.Payload = nil
		}
		if i > 0 {
			reply.Batch = append(reply.Batch, bt)
			continue
		}
		reply.HasTask = true
		reply.ProblemID = bt.ProblemID
		reply.Unit = bt.Unit
		reply.BulkKey = bt.BulkKey
		reply.Epoch = bt.Epoch
		reply.SharedDigest = bt.SharedDigest
		reply.Priority = bt.Priority
		reply.Verify = bt.Verify
	}
	return reply
}

// RPCClient is the donor-side coordinator proxy: control calls over the
// control mux, payload and shared-blob fetches over the bulk socket
// channel. Context cancellation abandons a call client-side; the call
// itself may still complete on the server.
type RPCClient struct {
	mux      *wire.MuxClient
	bulkAddr string
	timeout  time.Duration
}

var _ Coordinator = (*RPCClient)(nil)
var _ CancelNotifier = (*RPCClient)(nil)
var _ TaskWaiter = (*RPCClient)(nil)
var _ TaskBatchWaiter = (*RPCClient)(nil)
var _ ContentFetcher = (*RPCClient)(nil)

// Dial connects to a server's control channel and learns its bulk address.
// timeout bounds the dial, the version exchange and every bulk fetch.
//
// The connect sequence is one TCP connection: both ends exchange
// wire.FlatPreamble, then the Handshake verb runs over the mux like every
// later call. A server of a different protocol version fails the dial
// with ErrProtocolMismatch; there is no fallback encoding.
func Dial(rpcAddr string, timeout time.Duration, opts ...DialOption) (*RPCClient, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	var dopts dialOptions
	for _, o := range opts {
		o(&dopts)
	}
	conn, err := net.DialTimeout("tcp", rpcAddr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dist: dialing %s: %w", rpcAddr, err)
	}
	if dopts.wrapConn != nil {
		conn = dopts.wrapConn(conn)
	}
	mux, err := wire.NewMuxClient(conn, timeout, controlErrors)
	if err != nil {
		return nil, fmt.Errorf("dist: connecting to %s: %w", rpcAddr, err)
	}
	var hr handshakeReply
	if err := mux.Call(nil, verbHandshake, nil, &hr); err != nil {
		_ = mux.Close()
		return nil, fmt.Errorf("dist: handshake with %s: %w", rpcAddr, err)
	}
	return &RPCClient{mux: mux, bulkAddr: resolveBulkAddr(rpcAddr, hr.BulkAddr), timeout: timeout}, nil
}

// resolveBulkAddr fills in the bulk address's host from the RPC address
// when the server listens on the wildcard interface.
func resolveBulkAddr(rpcAddr, bulkAddr string) string {
	bhost, bport, err := net.SplitHostPort(bulkAddr)
	if err != nil {
		return bulkAddr
	}
	if bhost != "" && bhost != "0.0.0.0" && bhost != "::" {
		return bulkAddr
	}
	rhost, _, err := net.SplitHostPort(rpcAddr)
	if err != nil || rhost == "" {
		return bulkAddr
	}
	return net.JoinHostPort(rhost, bport)
}

// Close tears down the control connection.
func (c *RPCClient) Close() error { return c.mux.Close() }

// RequestTask implements Coordinator: one non-parking dispatch scan. See
// dispatch for how an unfetchable offloaded payload surfaces.
func (c *RPCClient) RequestTask(ctx context.Context, donor string) (*Task, time.Duration, error) {
	return firstTask(c.dispatch(ctx, donor, verbRequestTask, donorArgs{Donor: donor}))
}

// WaitTask implements TaskWaiter over the control channel.
func (c *RPCClient) WaitTask(ctx context.Context, donor string, maxWait time.Duration) (*Task, time.Duration, error) {
	return firstTask(c.WaitTasks(ctx, donor, maxWait, 1))
}

// WaitTasks implements TaskBatchWaiter over the control channel: one
// long-poll carrying MaxBatch, extras decoded from TaskReply.Batch.
func (c *RPCClient) WaitTasks(ctx context.Context, donor string, maxWait time.Duration, max int) ([]*Task, time.Duration, error) {
	return c.dispatch(ctx, donor, verbWaitTask, waitTaskArgs{Donor: donor, MaxWaitNs: int64(maxWait), MaxBatch: max})
}

// firstTask narrows a dispatch that asked for one unit to the
// single-task shape of RequestTask and WaitTask.
func firstTask(tasks []*Task, wait time.Duration, err error) (*Task, time.Duration, error) {
	if len(tasks) == 0 {
		return nil, wait, err
	}
	return tasks[0], wait, err
}

// dispatch runs one of the two dispatch verbs and materialises its reply
// of zero or more units. Entries whose offloaded payload cannot be fetched
// are reported to the server as transport failures (requeued elsewhere
// without feeding the poisoned-unit caps, not dropped) and skipped, so the
// reply may come back empty; that is not an error.
func (c *RPCClient) dispatch(ctx context.Context, donor string, verb byte, args wire.FlatMarshaler) ([]*Task, time.Duration, error) {
	var r TaskReply
	if err := c.mux.Call(ctx, verb, args, &r); err != nil {
		return nil, 0, err
	}
	wait := time.Duration(r.WaitHintNs)
	if !r.HasTask {
		return nil, wait, nil
	}
	entries := make([]BatchTask, 0, 1+len(r.Batch))
	entries = append(entries, BatchTask{ProblemID: r.ProblemID, Unit: r.Unit, BulkKey: r.BulkKey,
		Epoch: r.Epoch, SharedDigest: r.SharedDigest, Priority: r.Priority, Verify: r.Verify})
	entries = append(entries, r.Batch...)
	tasks := make([]*Task, 0, len(entries))
	for i := range entries {
		ent := &entries[i]
		if ent.BulkKey != "" {
			payload, err := wire.FetchBlob(c.bulkAddr, ent.BulkKey, c.timeout)
			if err != nil {
				reason := fmt.Sprintf("dist: fetching bulk payload %s: %v", ent.BulkKey, err)
				_ = c.reportFailure(ctx, donor, ent.ProblemID, ent.Unit.ID, reason, failTransport, ent.Epoch)
				continue
			}
			ent.Unit.Payload = payload
		}
		tasks = append(tasks, &Task{ProblemID: ent.ProblemID, Unit: ent.Unit, Epoch: ent.Epoch,
			SharedDigest: ent.SharedDigest, Priority: int(ent.Priority), Verify: ent.Verify})
	}
	return tasks, wait, nil
}

// SharedData implements Coordinator: fetch the problem's shared blob over
// the bulk channel.
func (c *RPCClient) SharedData(ctx context.Context, problemID string) ([]byte, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return wire.FetchBlob(c.bulkAddr, sharedKey(problemID), c.timeout)
}

// FetchContent implements ContentFetcher: fetch a shared blob by content
// digest. The caller (the donor's blob cache) verifies the bytes against
// the digest.
func (c *RPCClient) FetchContent(ctx context.Context, _ string, digest string) ([]byte, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return wire.FetchBlob(c.bulkAddr, wire.ContentKey(digest), c.timeout)
}

// SubmitResult implements Coordinator.
func (c *RPCClient) SubmitResult(ctx context.Context, res *Result) error {
	args := ResultArgs{
		Donor:     res.Donor,
		ProblemID: res.ProblemID,
		UnitID:    res.UnitID,
		Payload:   res.Payload,
		ElapsedNs: int64(res.Elapsed),
		Epoch:     res.Epoch,
	}
	return c.mux.Call(ctx, verbSubmitResult, args, nil)
}

// ReportFailure implements Coordinator.
func (c *RPCClient) ReportFailure(ctx context.Context, donor, problemID string, unitID int64, reason string) error {
	return c.reportFailure(ctx, donor, problemID, unitID, reason, failCompute, 0)
}

// reportFailure implements failureReporter; the wire carries the kind as
// failureArgs.Transport.
func (c *RPCClient) reportFailure(ctx context.Context, donor, problemID string, unitID int64, reason string, kind failureKind, epoch int64) error {
	args := failureArgs{Donor: donor, ProblemID: problemID, UnitID: unitID, Reason: reason,
		Transport: kind == failTransport, Epoch: epoch}
	return c.mux.Call(ctx, verbReportFailure, args, nil)
}

// CancelNotices implements CancelNotifier over the control channel.
func (c *RPCClient) CancelNotices(ctx context.Context, donor string) ([]CancelNotice, error) {
	var r cancelReply
	if err := c.mux.Call(ctx, verbCancelNotices, donorArgs{Donor: donor}, &r); err != nil {
		return nil, err
	}
	return r.Notices, nil
}
