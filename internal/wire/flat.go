package wire

// Flat control-channel codec: a hand-rolled binary encoding for the RPC
// envelopes (handshake, task dispatch, results, failure reports, cancel
// notices) — the only encoding the control channel speaks. Every message is
// one checksummed frame (WriteFrame/ReadFrame, so corruption detection is
// inherited from the bulk channel): varint scalars, length-prefixed strings
// and byte fields, nothing self-describing. The field order is fixed per
// envelope and specified in docs/ARCHITECTURE.md; there is no tag skipping
// and no schema evolution inside the codec — the encoding is versioned as a
// whole by FlatPreamble, and any incompatible change must bump it.
//
// Decoding is zero-copy: Decoder.Bytes returns subslices of the frame
// buffer, so one allocation per received message covers every byte field
// in it. Receive-side frame buffers are therefore never pooled or reused —
// the decoded payloads alias them and escape into caller-owned structures.
// Encode-side buffers carry no such aliases and are recycled through a
// sync.Pool.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/rpc"
	"sync"
)

// FlatPreamble is the control channel's single protocol-version token:
// both peers write it as the very first bytes of a connection and compare
// what the other side sent before any frame flows, so a peer built against
// a different envelope encoding is refused at connect instead of being
// misframed. The digit is the encoding version — bump it with any
// incompatible change to an envelope's field order (2 added Priority to the
// dispatch envelopes, 3 the Verify replica flag, 4 dropped the capability
// list from the handshake reply). Every version keeps the same byte length
// so the read window never changes, and the leading zero byte keeps the
// token unmistakable for the start of a gob-rpc stream, which is what
// pre-version-4 peers may open a connection with.
const FlatPreamble = "\x00dflt4\r\n"

// Encoder appends flat-encoded fields to a frame buffer. Encoders come
// from a sync.Pool (the codecs recycle them per message) and never fail:
// frame-size enforcement happens when the finished buffer passes through
// WriteFrame.
type Encoder struct{ buf []byte }

// maxPooledBuf bounds the encode buffers kept in the pool, so one huge
// payload does not pin megabytes behind every future small message.
const maxPooledBuf = 1 << 20

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// newEncoder returns a reset pooled encoder.
func newEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.buf = e.buf[:0]
	return e
}

// release returns the encoder to the pool (oversized buffers are dropped).
func (e *Encoder) release() {
	if cap(e.buf) <= maxPooledBuf {
		encoderPool.Put(e)
	}
}

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a zig-zag signed varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Bool appends one byte, 0 or 1.
func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// Bytes appends a length-prefixed byte field.
func (e *Encoder) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string field.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Decoder reads flat-encoded fields from one received frame. The first
// malformed field sticks as Err (wrapping ErrCorruptFrame) and every
// subsequent read returns a zero value, so callers decode a whole envelope
// and check once. Byte fields are zero-copy subslices of the frame buffer:
// the frame is decoded with a single allocation, and the buffer must not
// be reused while any decoded payload is live (the codecs never reuse it).
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps one frame for field-wise decoding.
func NewDecoder(frame []byte) *Decoder { return &Decoder{buf: frame} }

// Err reports the first decode failure, nil if every field was well-formed.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: flat decode: truncated or malformed %s at offset %d", ErrCorruptFrame, what, d.off)
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zig-zag signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

// Bool reads one byte; any non-zero value is true.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail("bool")
		return false
	}
	v := d.buf[d.off] != 0
	d.off++
	return v
}

// Bytes reads a length-prefixed byte field as a zero-copy subslice of the
// frame (capacity-clipped so an append cannot clobber the next field). A
// zero-length field decodes to nil.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("bytes")
		return nil
	}
	if n == 0 {
		return nil
	}
	end := d.off + int(n)
	b := d.buf[d.off:end:end]
	d.off = end
	return b
}

// String reads a length-prefixed string field.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("string")
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// FlatMarshaler is implemented by envelope types that can append
// themselves to a flat frame. Encoding cannot fail; oversized messages are
// rejected by the frame writer.
type FlatMarshaler interface{ MarshalFlat(e *Encoder) }

// FlatUnmarshaler is the decode half; implementations read their fields in
// the exact order MarshalFlat wrote them and leave error handling to
// Decoder.Err.
type FlatUnmarshaler interface{ UnmarshalFlat(d *Decoder) }

// MarshalFlatMessage encodes one message with a pooled encoder and returns
// a copy of the encoded bytes. It exists for round-trip tests and tools;
// the rpc codecs encode straight into their write path without the copy.
func MarshalFlatMessage(m FlatMarshaler) []byte {
	e := newEncoder()
	defer e.release()
	m.MarshalFlat(e)
	return append([]byte(nil), e.buf...)
}

// Flat RPC frame layout (inside the standard checksummed frame):
//
//	request:  uvarint seq, string serviceMethod, body fields
//	response: uvarint seq, string serviceMethod, string error,
//	          body fields (omitted when error is non-empty)

// readMessageFrame reads one codec frame, normalising a clean EOF (the
// peer closed between messages) to bare io.EOF so net/rpc shuts the
// connection down quietly instead of logging a decode failure.
func readMessageFrame(r io.Reader) ([]byte, error) {
	frame, err := ReadFrame(r)
	if err != nil && errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, io.EOF
	}
	return frame, err
}

// flatClientCodec implements rpc.ClientCodec over flat frames. net/rpc
// serialises WriteRequest calls and runs all reads on one goroutine, so
// the codec needs no locking of its own.
type flatClientCodec struct {
	conn io.Closer
	w    *bufio.Writer
	r    *bufio.Reader
	// dec carries the response frame between the header and body reads.
	dec Decoder
}

// NewFlatClientCodec speaks the flat codec over conn (client side), after
// the caller has exchanged FlatPreamble with the server.
func NewFlatClientCodec(conn io.ReadWriteCloser) rpc.ClientCodec {
	return &flatClientCodec{conn: conn, w: bufio.NewWriter(conn), r: bufio.NewReader(conn)}
}

func (c *flatClientCodec) WriteRequest(req *rpc.Request, body any) error {
	m, ok := body.(FlatMarshaler)
	if !ok {
		return fmt.Errorf("wire: flat codec: request body %T does not implement FlatMarshaler", body)
	}
	e := newEncoder()
	defer e.release()
	e.Uvarint(req.Seq)
	e.String(req.ServiceMethod)
	m.MarshalFlat(e)
	if err := WriteFrame(c.w, e.buf); err != nil {
		return err
	}
	return c.w.Flush()
}

func (c *flatClientCodec) ReadResponseHeader(resp *rpc.Response) error {
	frame, err := readMessageFrame(c.r)
	if err != nil {
		return err
	}
	c.dec = Decoder{buf: frame}
	resp.Seq = c.dec.Uvarint()
	resp.ServiceMethod = c.dec.String()
	resp.Error = c.dec.String()
	return c.dec.Err()
}

func (c *flatClientCodec) ReadResponseBody(body any) error {
	if body == nil {
		return nil // errored or discarded response: no body on the wire
	}
	u, ok := body.(FlatUnmarshaler)
	if !ok {
		return fmt.Errorf("wire: flat codec: response body %T does not implement FlatUnmarshaler", body)
	}
	u.UnmarshalFlat(&c.dec)
	return c.dec.Err()
}

func (c *flatClientCodec) Close() error { return c.conn.Close() }

// flatServerCodec is the server half. net/rpc reads on one goroutine and
// holds its sending lock across WriteResponse, so no codec locking either.
type flatServerCodec struct {
	conn io.Closer
	w    *bufio.Writer
	r    *bufio.Reader
	dec  Decoder
}

// NewFlatServerCodec speaks the flat codec over conn (server side), after
// the listener has exchanged FlatPreamble with the client.
func NewFlatServerCodec(conn io.ReadWriteCloser) rpc.ServerCodec {
	return &flatServerCodec{conn: conn, w: bufio.NewWriter(conn), r: bufio.NewReader(conn)}
}

func (c *flatServerCodec) ReadRequestHeader(req *rpc.Request) error {
	frame, err := readMessageFrame(c.r)
	if err != nil {
		return err
	}
	c.dec = Decoder{buf: frame}
	req.Seq = c.dec.Uvarint()
	req.ServiceMethod = c.dec.String()
	return c.dec.Err()
}

func (c *flatServerCodec) ReadRequestBody(body any) error {
	if body == nil {
		return nil // net/rpc discarding the body of an unroutable request
	}
	u, ok := body.(FlatUnmarshaler)
	if !ok {
		return fmt.Errorf("wire: flat codec: request body %T does not implement FlatUnmarshaler", body)
	}
	u.UnmarshalFlat(&c.dec)
	return c.dec.Err()
}

func (c *flatServerCodec) WriteResponse(resp *rpc.Response, body any) error {
	e := newEncoder()
	defer e.release()
	e.Uvarint(resp.Seq)
	e.String(resp.ServiceMethod)
	e.String(resp.Error)
	if resp.Error == "" {
		m, ok := body.(FlatMarshaler)
		if !ok {
			return fmt.Errorf("wire: flat codec: response body %T does not implement FlatMarshaler", body)
		}
		m.MarshalFlat(e)
	}
	if err := WriteFrame(c.w, e.buf); err != nil {
		return err
	}
	return c.w.Flush()
}

func (c *flatServerCodec) Close() error { return c.conn.Close() }
