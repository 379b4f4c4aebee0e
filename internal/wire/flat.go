package wire

// Flat control-channel codec: a hand-rolled binary encoding for the
// control envelopes (handshake, task dispatch, results, failure reports,
// cancel notices) — the only encoding the control channel speaks; mux.go
// carries it. Every message is one checksummed frame (WriteFrame/ReadFrame,
// so corruption detection is inherited from the bulk channel): varint
// scalars, length-prefixed strings and byte fields, nothing self-describing. The field order is fixed per
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
	"encoding/binary"
	"fmt"
	"sync"
)

// FlatPreamble is the control channel's single protocol-version token:
// both peers write it as the very first bytes of a connection and compare
// what the other side sent before any frame flows, so a peer built against
// a different envelope encoding is refused at connect instead of being
// misframed. The digit is the encoding version — bump it with any
// incompatible change to an envelope's field order (2 added Priority to the
// dispatch envelopes, 3 the Verify replica flag, 4 dropped the capability
// list from the handshake reply, 5 replaced net/rpc's method-name headers
// with the mux's seq/verb/status header). Every version keeps the same byte
// length so the read window never changes, and the leading zero byte keeps
// the token unmistakable for the start of a gob-rpc stream, which is what
// pre-version-4 peers may open a connection with.
const FlatPreamble = "\x00dflt5\r\n"

// Encoder appends flat-encoded fields to a frame buffer. Encoders come
// from a sync.Pool (the mux recycles them per message) and never fail:
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

// Byte appends one raw byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

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
// be reused while any decoded payload is live (the mux never reuses it).
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

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("byte")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Bool reads one byte; any non-zero value is true.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

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
// the mux encodes straight into its write path without the copy.
func MarshalFlatMessage(m FlatMarshaler) []byte {
	e := newEncoder()
	defer e.release()
	m.MarshalFlat(e)
	return append([]byte(nil), e.buf...)
}
