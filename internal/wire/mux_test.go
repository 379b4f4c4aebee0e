package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The test service's sentinels and verbs.
var (
	errTestClosed   = errors.New("muxtest: closed")
	errTestLost     = errors.New("muxtest: lost")
	errTestMismatch = errors.New("muxtest: mismatch")
	testErrors      = MuxErrors{Closed: errTestClosed, Lost: errTestLost, Mismatch: errTestMismatch}
)

const (
	verbEcho   byte = 1 // replies with its FlatPing, Seq+1
	verbPark   byte = 2 // blocks until released or its ctx ends
	verbClosed byte = 3 // fails with the closed sentinel, wrapped
	verbFail   byte = 4 // fails with a plain error naming Note
)

// FlatPing is a minimal envelope for exercising the mux end to end.
type FlatPing struct {
	Seq     int64
	Payload []byte
	Note    string
}

func (p FlatPing) MarshalFlat(e *Encoder) {
	e.Varint(p.Seq)
	e.Bytes(p.Payload)
	e.String(p.Note)
}

func (p *FlatPing) UnmarshalFlat(d *Decoder) {
	p.Seq = d.Varint()
	p.Payload = d.Bytes()
	p.Note = d.String()
}

// testService is the handler behind every mux test: parked tracks the
// verbPark handlers currently blocked, release lets them go, and ctxEnded
// counts the ones that left because their connection's ctx ended.
type testService struct {
	parked   atomic.Int64
	ctxEnded atomic.Int64
	release  chan struct{}
}

func newTestService() *testService { return &testService{release: make(chan struct{})} }

func (s *testService) handle(ctx context.Context, verb byte, d *Decoder) (FlatMarshaler, error) {
	var p FlatPing
	p.UnmarshalFlat(d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	switch verb {
	case verbEcho:
		p.Seq++
		return p, nil
	case verbPark:
		s.parked.Add(1)
		defer s.parked.Add(-1)
		select {
		case <-s.release:
			return p, nil
		case <-ctx.Done():
			s.ctxEnded.Add(1)
			return nil, ctx.Err()
		}
	case verbClosed:
		return nil, fmt.Errorf("refusing %s: %w", p.Note, errTestClosed)
	case verbFail:
		return nil, errors.New("deliberate failure for " + p.Note)
	}
	return nil, fmt.Errorf("unknown verb %d", verb)
}

// waitParked blocks until n verbPark handlers are blocked.
func (s *testService) waitParked(t testing.TB, n int64) {
	t.Helper()
	waitFor(t, func() bool { return s.parked.Load() == n }, "parked handlers")
}

func waitFor(t testing.TB, cond func() bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// tcpPair returns the two ends of one loopback TCP connection (the version
// exchange has both ends write before they read, which net.Pipe cannot do).
func tcpPair(t testing.TB) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err = ln.Accept()
	if err != nil {
		client.Close()
		t.Fatal(err)
	}
	return client, server
}

// serveTest starts a MuxServer for svc on one end of a fresh connection
// and returns it, the other end, and a channel closed when Serve returns.
func serveTest(t testing.TB, svc *testService) (*MuxServer, net.Conn, <-chan struct{}) {
	t.Helper()
	clientConn, serverConn := tcpPair(t)
	srv := NewMuxServer(serverConn, svc.handle, errTestClosed)
	served := make(chan struct{})
	go func() { defer close(served); srv.Serve(5 * time.Second) }()
	t.Cleanup(func() {
		srv.Close()
		clientConn.Close()
		<-served
	})
	return srv, clientConn, served
}

// muxPair is serveTest with a MuxClient on the other end.
func muxPair(t testing.TB, svc *testService) (*MuxClient, *MuxServer, <-chan struct{}) {
	t.Helper()
	srv, conn, served := serveTest(t, svc)
	cl, err := NewMuxClient(conn, 5*time.Second, testErrors)
	if err != nil {
		t.Fatal(err)
	}
	return cl, srv, served
}

// rawPeer is serveTest with the version exchange done by hand, for tests
// that put their own bytes on the wire.
func rawPeer(t testing.TB, svc *testService) (net.Conn, <-chan struct{}) {
	t.Helper()
	_, conn, served := serveTest(t, svc)
	if peer, err := exchangePreamble(conn, 5*time.Second); err != nil || peer != FlatPreamble {
		t.Fatalf("version exchange: %q, %v", peer, err)
	}
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	return conn, served
}

// request is one hand-built request frame body.
func request(seq uint64, verb byte, body FlatMarshaler) []byte {
	e := newEncoder()
	defer e.release()
	e.Uvarint(seq)
	e.Byte(verb)
	if body != nil {
		body.MarshalFlat(e)
	}
	return append([]byte(nil), e.buf...)
}

// asyncCall issues one call in a goroutine.
func asyncCall(ctx context.Context, cl *MuxClient, verb byte, args FlatPing) (*FlatPing, <-chan error) {
	reply, errc := new(FlatPing), make(chan error, 1)
	go func() { errc <- cl.Call(ctx, verb, args, reply) }()
	return reply, errc
}

// TestMuxParkedCallDoesNotBlock: with one call parked server-side, later
// calls on the same connection are served — concurrently, with payloads —
// and the parked call's reply arrives after theirs.
func TestMuxParkedCallDoesNotBlock(t *testing.T) {
	svc := newTestService()
	cl, _, _ := muxPair(t, svc)
	parkedReply, parked := asyncCall(context.Background(), cl, verbPark, FlatPing{Note: "first"})
	svc.waitParked(t, 1)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			args := FlatPing{Seq: int64(i), Payload: bytes.Repeat([]byte{byte(i)}, i*100), Note: "call"}
			var reply FlatPing
			if err := cl.Call(context.Background(), verbEcho, args, &reply); err != nil {
				t.Errorf("echo %d behind a parked call: %v", i, err)
			} else if reply.Seq != int64(i)+1 || !bytes.Equal(reply.Payload, args.Payload) || reply.Note != "call" {
				t.Errorf("echo %d mismatch: %+v", i, reply)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-parked:
		t.Fatalf("parked call returned early: %v", err)
	default:
	}
	close(svc.release)
	if err := <-parked; err != nil || parkedReply.Note != "first" {
		t.Fatalf("parked call = %+v, %v", parkedReply, err)
	}
	// A nil reply discards the body; nil args send none (the handler then
	// rejects the empty body, which is an ordinary error reply).
	if err := cl.Call(context.Background(), verbEcho, FlatPing{}, nil); err != nil {
		t.Fatalf("call with nil reply: %v", err)
	}
	if err := cl.Call(context.Background(), verbEcho, nil, nil); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("call with nil args = %v, want the handler's decode error", err)
	}
}

// TestMuxCancelledCallIsAbandoned: a call whose ctx is cancelled returns at
// once; its late reply is dropped and the next call on the connection is
// undisturbed. A ctx cancelled beforehand never reaches the wire.
func TestMuxCancelledCallIsAbandoned(t *testing.T) {
	svc := newTestService()
	cl, _, _ := muxPair(t, svc)
	ctx, cancel := context.WithCancel(context.Background())
	_, parked := asyncCall(ctx, cl, verbPark, FlatPing{Note: "abandoned"})
	svc.waitParked(t, 1)
	cancel()
	if err := <-parked; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call = %v, want context.Canceled", err)
	}
	if err := cl.Call(ctx, verbEcho, FlatPing{}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("call under a dead ctx = %v, want context.Canceled", err)
	}
	close(svc.release) // the abandoned call's reply is written now
	svc.waitParked(t, 0)
	var reply FlatPing
	if err := cl.Call(context.Background(), verbEcho, FlatPing{Seq: 41, Note: "next"}, &reply); err != nil || reply.Seq != 42 || reply.Note != "next" {
		t.Fatalf("call after an abandoned one = %+v, %v", reply, err)
	}
}

// TestMuxErrorStatuses: a handler error matching the closed sentinel
// travels as status 1 and surfaces as the caller's own sentinel; any other
// error travels as status 2 with its text; the connection survives both.
func TestMuxErrorStatuses(t *testing.T) {
	svc := newTestService()
	cl, _, _ := muxPair(t, svc)
	bg := context.Background()
	if err := cl.Call(bg, verbClosed, FlatPing{Note: "unit-9"}, nil); !errors.Is(err, errTestClosed) {
		t.Fatalf("status-1 call = %v, want the closed sentinel", err)
	}
	err := cl.Call(bg, verbFail, FlatPing{Note: "unit-9"}, nil)
	if err == nil || err.Error() != "deliberate failure for unit-9" || errors.Is(err, errTestClosed) || errors.Is(err, errTestLost) {
		t.Fatalf("status-2 call = %v", err)
	}
	var reply FlatPing
	if err := cl.Call(bg, verbEcho, FlatPing{Seq: 7}, &reply); err != nil || reply.Seq != 8 {
		t.Fatalf("call after errors = %+v, %v", reply, err)
	}
}

// TestMuxBadRequestsGetStatus2 puts hand-built frames on the wire: an
// unknown verb and a body the Decoder rejects are each answered under
// their seq with status 2 and a message — never a hang — and a good
// request after them is still served.
func TestMuxBadRequestsGetStatus2(t *testing.T) {
	conn, _ := rawPeer(t, newTestService())
	good := request(3, verbEcho, FlatPing{Seq: 1, Note: "ok"})
	for _, body := range [][]byte{
		request(1, 99, FlatPing{}),
		good[:len(good)-2], // seq 3's frame cut short inside Note
	} {
		if err := WriteFrame(conn, body); err != nil {
			t.Fatal(err)
		}
		frame, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("no reply to a bad request: %v", err)
		}
		d := NewDecoder(frame)
		wantSeq := NewDecoder(body).Uvarint()
		if seq, status, msg := d.Uvarint(), d.Byte(), d.String(); seq != wantSeq || status != muxError || msg == "" || d.Err() != nil {
			t.Fatalf("reply to bad request = seq %d status %d %q (%v), want seq %d status 2 and a message", seq, status, msg, d.Err(), wantSeq)
		}
	}
	if err := WriteFrame(conn, good); err != nil {
		t.Fatal(err)
	}
	frame, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(frame)
	var reply FlatPing
	seq, status := d.Uvarint(), d.Byte()
	reply.UnmarshalFlat(d)
	if seq != 3 || status != muxOK || reply.Seq != 2 || reply.Note != "ok" || d.Err() != nil {
		t.Fatalf("good request after bad ones = seq %d status %d %+v (%v)", seq, status, reply, d.Err())
	}
}

// TestMuxPeerDisconnect: when the connection dies, every pending call
// fails with the lost sentinel — as does every later one — and every
// in-flight handler's ctx is cancelled, so Serve returns with no handler
// left behind. Run once per side doing the severing.
func TestMuxPeerDisconnect(t *testing.T) {
	for _, side := range []string{"server severs", "client closes"} {
		t.Run(side, func(t *testing.T) {
			svc := newTestService()
			cl, srv, served := muxPair(t, svc)
			var parked []<-chan error
			for i := 0; i < 4; i++ {
				_, errc := asyncCall(context.Background(), cl, verbPark, FlatPing{})
				parked = append(parked, errc)
			}
			svc.waitParked(t, 4)
			if side == "server severs" {
				srv.Close()
			} else {
				cl.Close()
			}
			for i, errc := range parked {
				if err := <-errc; !errors.Is(err, errTestLost) {
					t.Errorf("pending call %d = %v, want the lost sentinel", i, err)
				}
			}
			if err := cl.Call(context.Background(), verbEcho, FlatPing{}, nil); !errors.Is(err, errTestLost) {
				t.Errorf("call on a dead connection = %v, want the lost sentinel", err)
			}
			select {
			case <-served:
			case <-time.After(5 * time.Second):
				t.Fatal("Serve still running after its connection died")
			}
			if n, ended := svc.parked.Load(), svc.ctxEnded.Load(); n != 0 || ended != 4 {
				t.Errorf("%d handlers still parked, %d saw their ctx end; want 0 and 4", n, ended)
			}
		})
	}
}

// TestMuxCorruptFrameClosesConnection: a frame that fails its CRC ends the
// connection it arrived on, in either direction.
func TestMuxCorruptFrameClosesConnection(t *testing.T) {
	corrupt := func(body []byte) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, body); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		b[len(b)-1] ^= 0x01
		return b
	}
	t.Run("request", func(t *testing.T) {
		svc := newTestService()
		conn, served := rawPeer(t, svc)
		// A parked handler rides along: the corrupt frame must cancel it.
		if err := WriteFrame(conn, request(1, verbPark, FlatPing{})); err != nil {
			t.Fatal(err)
		}
		svc.waitParked(t, 1)
		if _, err := conn.Write(corrupt(request(2, verbEcho, FlatPing{Note: "x"}))); err != nil {
			t.Fatal(err)
		}
		select {
		case <-served:
		case <-time.After(5 * time.Second):
			t.Fatal("server kept serving after a corrupt frame")
		}
		if svc.ctxEnded.Load() != 1 {
			t.Error("the parked handler's ctx was not cancelled")
		}
	})
	t.Run("reply", func(t *testing.T) {
		clientConn, serverConn := tcpPair(t)
		defer serverConn.Close()
		go func() {
			_, _ = exchangePreamble(serverConn, 5*time.Second)
			if _, err := ReadFrame(serverConn); err == nil {
				e := newEncoder()
				e.Uvarint(1)
				e.Byte(muxOK)
				_, _ = serverConn.Write(corrupt(e.buf))
				e.release()
			}
		}()
		cl, err := NewMuxClient(clientConn, 5*time.Second, testErrors)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Call(context.Background(), verbEcho, FlatPing{}, nil); !errors.Is(err, errTestLost) {
			t.Fatalf("call answered by a corrupt frame = %v, want the lost sentinel", err)
		}
	})
}

// TestMuxShutdown: Shutdown says goodbye before it closes, so the peer's
// pending calls — and a call it makes afterwards, having been between
// calls when the server shut down — get the closed sentinel, not the lost
// one; the handlers are cancelled and Serve returns.
func TestMuxShutdown(t *testing.T) {
	svc := newTestService()
	cl, srv, served := muxPair(t, svc)
	_, parked := asyncCall(context.Background(), cl, verbPark, FlatPing{Note: "in flight"})
	svc.waitParked(t, 1)
	srv.Shutdown()
	if err := <-parked; !errors.Is(err, errTestClosed) {
		t.Fatalf("pending call across a shutdown = %v, want the closed sentinel", err)
	}
	if err := cl.Call(context.Background(), verbEcho, FlatPing{}, nil); !errors.Is(err, errTestClosed) {
		t.Fatalf("call after the goodbye = %v, want the closed sentinel", err)
	}
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still running after Shutdown")
	}
	if svc.parked.Load() != 0 || svc.ctxEnded.Load() != 1 {
		t.Error("Shutdown left the parked handler behind")
	}
}

// TestMuxShutdownBeforePreamble: a connection shut down while the peer has
// not yet said anything is closed at once, not held for the handshake
// timeout.
func TestMuxShutdownBeforePreamble(t *testing.T) {
	srv, conn, served := serveTest(t, newTestService())
	srv.Shutdown()
	select {
	case <-served:
	case <-time.After(2 * time.Second):
		t.Fatal("shut-down connection still waiting for a preamble")
	}
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("reading a shut-down connection to its end: %v", err)
	}
}

// TestMuxClientVersionMismatch: a peer presenting another version — or
// hanging up instead — fails NewMuxClient with the mismatch sentinel, the
// message naming both versions.
func TestMuxClientVersionMismatch(t *testing.T) {
	for _, banner := range []string{"\x00dflt4\r\n", ""} {
		clientConn, serverConn := tcpPair(t)
		go func() {
			defer serverConn.Close()
			_, _ = io.ReadFull(serverConn, make([]byte, len(FlatPreamble)))
			_, _ = serverConn.Write([]byte(banner))
		}()
		_, err := NewMuxClient(clientConn, 2*time.Second, testErrors)
		if !errors.Is(err, errTestMismatch) {
			t.Fatalf("banner %q: NewMuxClient = %v, want the mismatch sentinel", banner, err)
		}
		if banner != "" && !(strings.Contains(err.Error(), "dflt4") && strings.Contains(err.Error(), FlatPreamble[1:6])) {
			t.Errorf("mismatch error %q does not name both versions", err)
		}
	}
}

// FuzzMuxServe throws arbitrary bytes at the server read loop after a
// valid preamble — raw, and as the body of a well-formed frame so the
// handler's decoding is reached too: never a panic, Serve always returns
// once the peer is done, and no handler is left behind.
func FuzzMuxServe(f *testing.F) {
	f.Add(request(1, verbEcho, FlatPing{Seq: 1, Payload: []byte("payload"), Note: "n"}))
	f.Add(request(2, verbPark, FlatPing{}))
	f.Add(request(0, 99, nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		svc := newTestService()
		conn, served := rawPeer(t, svc)
		go func() {
			// Either write may fail once the server has hung up on the
			// raw bytes; that is an outcome, not an error.
			_, _ = conn.Write(data)
			_ = WriteFrame(conn, data)
			_ = conn.(*net.TCPConn).CloseWrite()
		}()
		_, _ = io.Copy(io.Discard, conn) // replies, until the server closes
		select {
		case <-served:
		case <-time.After(5 * time.Second):
			t.Fatal("Serve still running after the peer hung up")
		}
		if n := svc.parked.Load(); n != 0 {
			t.Fatalf("%d handlers left behind", n)
		}
	})
}
