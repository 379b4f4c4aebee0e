package wire

// Control multiplexer: request/response over flat frames on one TCP
// connection — the whole control transport. A client matches replies to
// calls by sequence number; a server hands every request to one handler
// function under a context that ends with the connection. Both halves run
// the FlatPreamble exchange themselves before the first frame, so a flat
// stream on a connection that skipped the version check cannot be built.
//
// Frame layout (inside the standard checksummed frame; the verb numbering
// belongs to the layer above, see docs/ARCHITECTURE.md):
//
//	request:  uvarint seq, byte verb, body fields
//	response: uvarint seq, byte status, body fields   (status 0)
//	                                  | string message (status ≠ 0)
//
// Calls are numbered from 1. A status-1 response under seq 0 is the
// server's goodbye, the last frame of a connection it shuts down: the
// client answers every pending and future call with its closed sentinel,
// so a clean shutdown reaches a peer that was between calls at that
// instant as surely as one that was parked.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Reply statuses.
const (
	muxOK     byte = 0
	muxClosed byte = 1
	muxError  byte = 2
)

// muxGoodbyeTimeout bounds how long Shutdown waits on a peer that has
// stopped reading to take the goodbye.
const muxGoodbyeTimeout = 5 * time.Second

// MuxErrors are the sentinels of the layer above that a mux surfaces, so
// its callers match their own errors with errors.Is and translate nothing.
type MuxErrors struct {
	// Closed crosses the wire as status 1: a handler error matching it is
	// sent as that code and the calling client returns it; after the
	// server's goodbye every call does.
	Closed error
	// Lost is what every pending and future call of a client fails with
	// once its connection has died without a goodbye — by any read or
	// write error, a frame that is not a reply, or Close.
	Lost error
	// Mismatch is wrapped by NewMuxClient when the peer presented
	// anything but FlatPreamble; the message names both versions.
	Mismatch error
}

// exchangePreamble is the connect sequence both ends of a control
// connection run before any frame flows: write FlatPreamble, read as many
// bytes back, all within timeout (the deadline is cleared again on
// return; a connection that cannot take one is broken, which the exchange
// itself reports). It returns what the peer sent — short if the peer hung
// up first — and leaves the comparison to the caller.
func exchangePreamble(conn net.Conn, timeout time.Duration) (peer string, err error) {
	_ = conn.SetDeadline(time.Now().Add(timeout))
	defer conn.SetDeadline(time.Time{})
	if _, err := conn.Write([]byte(FlatPreamble)); err != nil {
		return "", err
	}
	buf := make([]byte, len(FlatPreamble))
	n, err := io.ReadFull(conn, buf)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil
	}
	return string(buf[:n]), err
}

// muxLink is what the two halves share: the connection and its serialised,
// buffered frame writer.
type muxLink struct {
	conn net.Conn
	wmu  sync.Mutex
	w    *bufio.Writer //dist:guardedby wmu
}

// send writes one message: seq, the verb or status byte, body's fields.
func (l *muxLink) send(seq uint64, tag byte, body FlatMarshaler) error {
	e := newEncoder()
	defer e.release()
	e.Uvarint(seq)
	e.Byte(tag)
	if body != nil {
		body.MarshalFlat(e)
	}
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if err := WriteFrame(l.w, e.buf); err != nil {
		return err
	}
	return l.w.Flush()
}

// recv reads one message and its header, leaving body at the first field.
// The frame buffer is the message's alone: decoded byte fields alias it.
func recv(r *bufio.Reader) (seq uint64, tag byte, body *Decoder, err error) {
	frame, err := ReadFrame(r)
	if err != nil {
		return 0, 0, nil, err
	}
	body = &Decoder{buf: frame}
	seq, tag = body.Uvarint(), body.Byte()
	return seq, tag, body, body.Err()
}

// muxText is the body of a status ≠ 0 response: the error's message.
type muxText string

func (t muxText) MarshalFlat(e *Encoder) { e.String(string(t)) }

// muxReply completes a pending call: a response's status and body, or the
// error its connection ended with.
type muxReply struct {
	status byte
	body   *Decoder
	err    error
}

// MuxClient is the calling half of one control connection. Calls may be
// issued concurrently; a parked call never blocks a later one, and replies
// are matched by sequence number in whatever order they arrive.
type MuxClient struct {
	muxLink
	errs MuxErrors

	mu  sync.Mutex
	seq uint64 //dist:guardedby mu
	// pending holds the calls awaiting a reply; nil once the connection
	// has ended, when err says how (MuxErrors.Closed or Lost).
	//dist:guardedby mu
	pending map[uint64]chan muxReply
	err     error //dist:guardedby mu

	readerDone chan struct{} // closed when readLoop has returned
}

// NewMuxClient runs the version exchange on a freshly dialled connection
// (bounded by timeout) and starts the reply reader. A peer of another
// protocol version, or one that hangs up instead of presenting one, fails
// with errs.Mismatch; conn is closed on any error.
func NewMuxClient(conn net.Conn, timeout time.Duration, errs MuxErrors) (*MuxClient, error) {
	peer, err := exchangePreamble(conn, timeout)
	if err == nil && peer != FlatPreamble {
		err = fmt.Errorf("%w: this build speaks %q, the peer answered %q", errs.Mismatch, FlatPreamble, peer)
	}
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	c := &MuxClient{muxLink: muxLink{conn: conn, w: bufio.NewWriter(conn)}, errs: errs,
		pending: make(map[uint64]chan muxReply), readerDone: make(chan struct{})}
	go c.readLoop()
	return c, nil
}

// Call sends one request and waits for its reply. args and reply may be
// nil for a verb without a body in that direction; reply's byte fields
// alias the received frame. A cancelled ctx (nil means none) abandons the
// call — the reply, if one still arrives, is discarded. A status-1 reply
// returns MuxErrors.Closed, any other failure status an error carrying the
// peer's message, and a connection that has ended what it ended with.
func (c *MuxClient) Call(ctx context.Context, verb byte, args FlatMarshaler, reply FlatUnmarshaler) error {
	var cancelled <-chan struct{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		cancelled = ctx.Done()
	}
	done := make(chan muxReply, 1)
	c.mu.Lock()
	if c.pending == nil {
		defer c.mu.Unlock()
		return c.err
	}
	c.seq++
	seq := c.seq
	c.pending[seq] = done
	c.mu.Unlock()
	if err := c.send(seq, verb, args); errors.Is(err, errFrameSize) {
		c.forget(seq) // nothing was written: the connection carries on
		return err
	} else if err != nil {
		_ = c.end(c.errs.Lost) // answers done, like every pending call
	}
	select {
	case r := <-done:
		switch {
		case r.err != nil:
			return r.err
		case r.status == muxClosed:
			return c.errs.Closed
		case r.status != muxOK:
			if msg := r.body.String(); r.body.Err() == nil {
				return errors.New(msg)
			}
		case reply != nil:
			reply.UnmarshalFlat(r.body)
		}
		return r.body.Err()
	case <-cancelled:
		c.forget(seq)
		return ctx.Err()
	}
}

// forget abandons a pending call; its reply will find no taker.
func (c *MuxClient) forget(seq uint64) {
	c.mu.Lock()
	delete(c.pending, seq)
	c.mu.Unlock()
}

// readLoop completes pending calls from the connection's replies until the
// connection ends. A reply whose seq is no longer pending — an abandoned
// call's late answer — is dropped; a frame that fails its CRC or does not
// start with a reply header ends the connection, as does the goodbye.
func (c *MuxClient) readLoop() {
	defer close(c.readerDone)
	why := c.errs.Lost
	for r := bufio.NewReader(c.conn); ; {
		seq, status, body, err := recv(r)
		if err != nil {
			break
		}
		if seq == 0 && status == muxClosed {
			why = c.errs.Closed
			break
		}
		c.mu.Lock()
		done := c.pending[seq]
		delete(c.pending, seq)
		c.mu.Unlock()
		if done != nil {
			done <- muxReply{status: status, body: body}
		}
	}
	_ = c.end(why)
}

// end retires the connection: it is closed, and every pending call is
// answered — every later one refused — with why. Only the first call does
// anything.
func (c *MuxClient) end(why error) error {
	c.mu.Lock()
	pending := c.pending
	if pending == nil {
		c.mu.Unlock()
		return nil
	}
	c.pending, c.err = nil, why
	c.mu.Unlock()
	for _, done := range pending {
		done <- muxReply{err: why}
	}
	return c.conn.Close()
}

// Close tears the connection down and waits for the reader to exit;
// pending and later calls fail with MuxErrors.Lost.
func (c *MuxClient) Close() error {
	err := c.end(c.errs.Lost)
	<-c.readerDone
	return err
}

// MuxHandler serves one request: verb selects the operation, args is
// positioned at the request body (decode it and check args.Err before
// acting). It returns the reply body (nil for none) or an error — the
// reply is then ignored — which travels back as a status: 1 if it matches
// the server's closed sentinel, else 2 with the error's text. ctx is
// cancelled when the request's connection ends.
type MuxHandler func(ctx context.Context, verb byte, args *Decoder) (FlatMarshaler, error)

// MuxServer is the serving half of one accepted control connection. Every
// request runs the handler in its own goroutine, so a handler that parks
// never blocks the connection.
type MuxServer struct {
	muxLink
	handler  MuxHandler
	closed   error
	handlers sync.WaitGroup
}

// NewMuxServer prepares conn for serving; Serve does the work. closed is
// the handler error that crosses the wire as status 1.
func NewMuxServer(conn net.Conn, handler MuxHandler, closed error) *MuxServer {
	return &MuxServer{muxLink: muxLink{conn: conn, w: bufio.NewWriter(conn)}, handler: handler, closed: closed}
}

// Serve runs the version exchange (bounded by timeout, so a silent peer
// cannot pin the goroutine) and then serves requests until the connection
// ends: the peer hangs up, a frame is corrupt or is not a request, Close,
// or Shutdown. A peer that presents anything but FlatPreamble is closed
// unserved — this side's preamble has been written by then, so the peer
// can name both versions. When the read loop ends the handlers' ctx is
// cancelled at once; Serve returns when they have.
func (m *MuxServer) Serve(timeout time.Duration) {
	defer m.conn.Close()
	if peer, err := exchangePreamble(m.conn, timeout); err != nil || peer != FlatPreamble {
		return
	}
	ctx, cancel := context.WithCancel(context.Background()) //dist:allow-background a connection's ctx is rooted at the connection
	for r := bufio.NewReader(m.conn); ; {
		seq, verb, args, err := recv(r)
		if err != nil {
			break // without a header there is no seq to answer under
		}
		m.handlers.Add(1)
		go func() {
			defer m.handlers.Done()
			reply, err := m.handler(ctx, verb, args)
			m.reply(seq, reply, err)
		}()
	}
	cancel()
	m.handlers.Wait()
}

// reply writes one response: body under status 0, or err as a status and
// its text. A response that cannot be written closes the connection, which
// ends the read loop.
func (m *MuxServer) reply(seq uint64, body FlatMarshaler, err error) {
	status := muxOK
	if err != nil {
		status, body = muxError, muxText(err.Error())
		if errors.Is(err, m.closed) {
			status = muxClosed
		}
	}
	if m.send(seq, status, body) != nil {
		_ = m.conn.Close()
	}
}

// Shutdown ends the connection cleanly: the goodbye tells the peer that
// every call it has pending, and any it makes later, is answered "closed"
// — whether or not the handlers' own replies were written first — and then
// the connection closes, which ends Serve.
func (m *MuxServer) Shutdown() {
	_ = m.conn.SetWriteDeadline(time.Now().Add(muxGoodbyeTimeout))
	_ = m.send(0, muxClosed, muxText("goodbye")) // closing either way
	_ = m.conn.Close()
}

// Close severs the connection abruptly, as a crash would: handlers are
// cancelled and the peer's calls fail as lost.
func (m *MuxServer) Close() error { return m.conn.Close() }
