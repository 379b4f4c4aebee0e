package dist

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// tcpPair returns the two ends of one loopback TCP connection.
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

// presentToServer plays a peer that opens a control connection with first
// as its opening bytes (then stays connected and silent when hold is set,
// or half-closes its write side otherwise) against ns.serveControlConn,
// and reports what the server did: served is true when the server answered
// a Handshake frame; otherwise the server must have closed the connection.
// It fails the test if serveControlConn does not return, i.e. leaks its
// goroutine.
func presentToServer(t testing.TB, ns *NetworkServer, first []byte, hold bool) (served bool) {
	t.Helper()
	client, server := tcpPair(t)
	defer client.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ns.serveControlConn(server, 200*time.Millisecond)
	}()

	// The server speaks first, so the banner is read before anything is
	// written: a server that hangs up on unread bytes resets the
	// connection, which could otherwise swallow the banner.
	_ = client.SetDeadline(time.Now().Add(5 * time.Second))
	banner := make([]byte, len(wire.FlatPreamble))
	if _, err := io.ReadFull(client, banner); err != nil || string(banner) != wire.FlatPreamble {
		t.Fatalf("server banner = %q, %v; want its preamble before anything else", banner, err)
	}
	// A write can fail once the server has already hung up on a prefix.
	_, werr := client.Write(first)
	if string(first) == wire.FlatPreamble {
		// A well-versed peer: one Handshake request must be answered.
		if werr != nil {
			t.Fatalf("writing the preamble: %v", werr)
		}
		if err := wire.WriteFrame(client, wire.MarshalFlatMessage(handshakeRequest{})); err != nil {
			t.Fatal(err)
		}
		frame, err := wire.ReadFrame(client)
		if err != nil {
			t.Fatalf("reading Handshake reply: %v", err)
		}
		d := wire.NewDecoder(frame)
		if seq, status := d.Uvarint(), d.Byte(); seq != 1 || status != 0 {
			t.Fatalf("Handshake reply header = seq %d status %d, want 1 and 0 (ok)", seq, status)
		}
		if addr := d.String(); d.Err() != nil || addr != ns.BulkAddr() {
			t.Fatalf("Handshake reply bulk address = %q (%v), want %q", addr, d.Err(), ns.BulkAddr())
		}
		served = true
		client.Close()
	} else {
		if !hold {
			_ = client.(*net.TCPConn).CloseWrite()
		}
		// Anything else must be hung up on: EOF (or a reset, when the
		// server closed with our bytes unread), never data.
		if n, err := client.Read(make([]byte, 1)); n != 0 || err == nil {
			t.Fatalf("server kept talking to a peer that opened with %q", first)
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("server never closed a peer that opened with %q", first)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("serveControlConn still running 5s after a peer that opened with %q went away", first)
	}
	return served
}

// handshakeRequest is the request frame body for seq 1 of the Handshake
// verb: uvarint seq, verb byte 1, no body fields.
type handshakeRequest struct{}

func (handshakeRequest) MarshalFlat(e *wire.Encoder) {
	e.Uvarint(1)
	e.Byte(1)
}

// gobRPCPrefix is how a pre-version-4 donor opened its control connection:
// a gob-encoded net/rpc request header.
var gobRPCPrefix = []byte{0x37, 0xff, 0x81, 0x03, 0x01, 0x01, 0x07, 'R', 'e', 'q', 'u', 'e', 's', 't'}

// TestControlConnAcceptBoundary is the table over the first bytes of a
// control connection: only the exact current preamble is served; every
// other opening — older protocol versions, a gob-rpc stream, a truncated
// preamble, silence — gets the connection closed, and serveControlConn
// returns in every case.
func TestControlConnAcceptBoundary(t *testing.T) {
	ns, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(netOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	cases := []struct {
		name  string
		first []byte
		hold  bool // stay connected and silent after first
		serve bool
	}{
		{"current preamble", []byte(wire.FlatPreamble), false, true},
		{"dflt1", []byte("\x00dflt1\r\n"), false, false},
		{"dflt2", []byte("\x00dflt2\r\n"), false, false},
		{"dflt3", []byte("\x00dflt3\r\n"), false, false},
		{"dflt4", []byte("\x00dflt4\r\n"), false, false},
		{"dflt5", []byte("\x00dflt5\r\n"), false, false},
		{"dflt6", []byte("\x00dflt6\r\n"), false, false},
		{"dflt7", []byte("\x00dflt7\r\n"), false, false},
		{"gob-rpc stream", gobRPCPrefix, false, false},
		{"truncated then hang-up", []byte(wire.FlatPreamble[:5]), false, false},
		{"truncated then silence", []byte(wire.FlatPreamble[:5]), true, false},
		{"silence", nil, true, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := presentToServer(t, ns, c.first, c.hold); got != c.serve {
				t.Errorf("served = %v, want %v", got, c.serve)
			}
		})
	}
}

// FuzzControlPreamble throws arbitrary opening bytes at the accept
// boundary: no panic, no leaked goroutine, and nothing but the exact
// preamble is ever served.
func FuzzControlPreamble(f *testing.F) {
	ns, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(netOpts()))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { ns.Close() })
	f.Add([]byte(wire.FlatPreamble))
	f.Add([]byte("\x00dflt3\r\n"))
	f.Add(gobRPCPrefix)
	f.Add([]byte(wire.FlatPreamble[:5]))
	f.Add([]byte{})
	f.Add(append([]byte(wire.FlatPreamble), 0xff, 0xff, 0xff, 0xff))
	f.Add([]byte("\x00dflt6\r\n"))
	f.Add([]byte("\x00dflt7\r\n"))

	f.Fuzz(func(t *testing.T, first []byte) {
		if bytes.HasPrefix(first, []byte(wire.FlatPreamble)) {
			// Past the boundary the bytes are mux frames, which
			// FuzzFrameDecode and FuzzMuxServe cover; here only the
			// boundary itself is under test.
			first = []byte(wire.FlatPreamble)
		}
		if presentToServer(t, ns, first, false) != (string(first) == wire.FlatPreamble) {
			t.Fatalf("opening bytes %q crossed the accept boundary the wrong way", first)
		}
	})
}

// TestDialOpensOneConnection counts accepts on a control listener across a
// Dial and a full problem drain: the connect sequence and everything after
// it ride one TCP connection.
func TestDialOpensOneConnection(t *testing.T) {
	registerEcho(t)
	ns, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(netOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	// A counting front door for the same coordinator: every connection it
	// accepts is served exactly like one from ns's own listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepts atomic.Int64
	var conns sync.WaitGroup
	defer func() { ln.Close(); conns.Wait() }()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			conns.Add(1)
			go func() { defer conns.Done(); ns.serveControlConn(conn, handshakeTimeout) }()
		}
	}()

	cl, err := Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	shared := []byte("one connection blob")
	if err := ns.Submit(bg, &Problem{ID: "one-conn", DM: newEchoDM(6), SharedData: shared}); err != nil {
		t.Fatal(err)
	}
	d := newTestDonor(cl, DonorOptions{Name: "one-conn-donor", Logf: t.Logf})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = d.Run(bg) }()
	out, err := ns.Wait(bg, "one-conn")
	d.Stop()
	wg.Wait()
	cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, shared) {
		t.Errorf("echoed result = %q, want the shared blob", out)
	}
	if n := accepts.Load(); n != 1 {
		t.Errorf("control listener accepted %d connections for one Dial, want 1", n)
	}
}

// TestDialProtocolMismatch: a Dial that reaches a peer of another protocol
// version — one that presents a different preamble, or one that hangs up on
// ours the way a pre-version-4 server's gob decoder does — fails with
// ErrProtocolMismatch, and the message names both versions when it can.
func TestDialProtocolMismatch(t *testing.T) {
	for _, c := range []struct {
		name   string
		banner string
	}{
		{"dflt3 banner", "\x00dflt3\r\n"},
		{"dflt4 banner", "\x00dflt4\r\n"},
		{"dflt5 banner", "\x00dflt5\r\n"},
		{"dflt6 banner", "\x00dflt6\r\n"},
		{"dflt7 banner", "\x00dflt7\r\n"},
		{"hangs up", ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				// Read the dialer's preamble first so closing does not
				// reset the connection under its read.
				_, _ = io.ReadFull(conn, make([]byte, len(wire.FlatPreamble)))
				_, _ = conn.Write([]byte(c.banner))
			}()
			cl, err := Dial(ln.Addr().String(), 2*time.Second)
			if err == nil {
				cl.Close()
				t.Fatal("Dial succeeded against a mismatched peer")
			}
			if !errors.Is(err, ErrProtocolMismatch) {
				t.Fatalf("Dial error = %v, want ErrProtocolMismatch", err)
			}
			if c.banner != "" && !(strings.Contains(err.Error(), c.banner[1:6]) && strings.Contains(err.Error(), wire.FlatPreamble[1:6])) {
				t.Errorf("Dial error %q does not name both versions", err)
			}
		})
	}
}
