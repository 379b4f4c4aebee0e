package wire

import (
	"bytes"
	"errors"
	"testing"
)

// TestFlatPrimitivesRoundTrip encodes one of each field kind and decodes
// them back, including the zero-copy aliasing contract of Bytes.
func TestFlatPrimitivesRoundTrip(t *testing.T) {
	e := newEncoder()
	defer e.release()
	e.Uvarint(0)
	e.Uvarint(1<<63 + 17)
	e.Varint(-1234567)
	e.Varint(0)
	e.Bool(true)
	e.Bool(false)
	e.Bytes([]byte("payload"))
	e.Bytes(nil)
	e.String("algorithm/name")
	e.String("")

	frame := append([]byte(nil), e.buf...)
	d := NewDecoder(frame)
	if got := d.Uvarint(); got != 0 {
		t.Fatalf("Uvarint: got %d, want 0", got)
	}
	if got := d.Uvarint(); got != 1<<63+17 {
		t.Fatalf("Uvarint: got %d, want %d", got, uint64(1<<63+17))
	}
	if got := d.Varint(); got != -1234567 {
		t.Fatalf("Varint: got %d, want -1234567", got)
	}
	if got := d.Varint(); got != 0 {
		t.Fatalf("Varint: got %d, want 0", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round-trip mismatch")
	}
	b := d.Bytes()
	if string(b) != "payload" {
		t.Fatalf("Bytes: got %q", b)
	}
	// Zero-copy: the decoded slice must alias the frame buffer, so a
	// mutation through the frame is visible through the slice.
	idx := bytes.Index(frame, []byte("payload"))
	frame[idx] ^= 0xFF
	if b[0] == 'p' {
		t.Fatal("Bytes did not alias the frame buffer (expected zero-copy)")
	}
	frame[idx] ^= 0xFF
	if got := d.Bytes(); got != nil {
		t.Fatalf("empty Bytes: got %q, want nil", got)
	}
	if got := d.String(); got != "algorithm/name" {
		t.Fatalf("String: got %q", got)
	}
	if got := d.String(); got != "" {
		t.Fatalf("empty String: got %q", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decoder error: %v", err)
	}
}

// TestFlatDecoderTruncation checks that every truncation point fails
// cleanly, wrapping ErrCorruptFrame, and never panics or over-allocates.
func TestFlatDecoderTruncation(t *testing.T) {
	e := newEncoder()
	defer e.release()
	e.String("donor-7")
	e.Varint(42)
	full := append([]byte(nil), e.buf...)
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		_ = d.String()
		_ = d.Varint()
		err := d.Err()
		if err == nil {
			t.Fatalf("cut=%d decoded without error", cut)
		}
		if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("cut=%d: error %v does not wrap ErrCorruptFrame", cut, err)
		}
	}
	// A length prefix claiming more bytes than the frame holds must fail,
	// not over-allocate.
	bad := NewDecoder([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	_ = bad.Bytes()
	if !errors.Is(bad.Err(), ErrCorruptFrame) {
		t.Fatalf("oversized length claim: got %v, want ErrCorruptFrame", bad.Err())
	}
}

// TestFlatPreambleShape pins what the version exchange relies on: the
// preamble starts with a zero byte, which can never open a gob-rpc stream
// (gob frames every message with a non-zero byte count first), and it is
// the fixed eight bytes every protocol version has used, so a peer of any
// version reads a whole token before comparing.
func TestFlatPreambleShape(t *testing.T) {
	if FlatPreamble[0] != 0 {
		t.Fatalf("FlatPreamble must start with a zero byte, got %#x", FlatPreamble[0])
	}
	if len(FlatPreamble) != 8 {
		t.Fatalf("FlatPreamble is %d bytes, want the 8 every version has used", len(FlatPreamble))
	}
}

// FuzzFlatCodec mirrors FuzzFrameDecode for the flat layer: a fuzzed
// message — a mux request header, seq and verb byte, then one field of each
// kind — round-trips through Encoder/Decoder exactly; its framed bytes
// survive WriteFrame/ReadFrame; flipping a frame-body bit surfaces
// ErrCorruptFrame; and feeding the raw fuzz input straight to a Decoder
// fails cleanly (wrapping ErrCorruptFrame) or parses — never panics.
func FuzzFlatCodec(f *testing.F) {
	f.Add(uint64(1), byte(3), "donor-7", []byte("payload"), int64(-5), true, 3)
	f.Add(uint64(0), byte(0), "", []byte{}, int64(0), false, 0)
	f.Add(uint64(1<<40), byte(4), "problem/9", bytes.Repeat([]byte{0xA5}, 512), int64(1<<50), true, 100)

	f.Fuzz(func(t *testing.T, seq uint64, verb byte, name string, payload []byte, num int64, flag bool, flipAt int) {
		e := newEncoder()
		e.Uvarint(seq)
		e.Byte(verb)
		e.String(name)
		e.Bytes(payload)
		e.Varint(num)
		e.Bool(flag)
		msg := append([]byte(nil), e.buf...)
		e.release()

		// Field-level round-trip.
		d := NewDecoder(msg)
		if got := d.Uvarint(); got != seq {
			t.Fatalf("seq: got %d, want %d", got, seq)
		}
		if got := d.Byte(); got != verb {
			t.Fatalf("verb: got %d, want %d", got, verb)
		}
		if got := d.String(); got != name {
			t.Fatalf("name: got %q, want %q", got, name)
		}
		if got := d.Bytes(); !bytes.Equal(got, payload) {
			t.Fatalf("payload: got %x, want %x", got, payload)
		}
		if got := d.Varint(); got != num {
			t.Fatalf("num: got %d, want %d", got, num)
		}
		if got := d.Bool(); got != flag {
			t.Fatalf("flag: got %v, want %v", got, flag)
		}
		if err := d.Err(); err != nil {
			t.Fatalf("decoder error on valid message: %v", err)
		}

		// Framed round-trip, then flip a body bit: the CRC must catch it.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, msg); err != nil {
			t.Fatalf("framing: %v", err)
		}
		back, err := ReadFrame(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reading framed message: %v", err)
		}
		if !bytes.Equal(back, msg) {
			t.Fatal("framed round-trip mismatch")
		}
		bad := append([]byte(nil), buf.Bytes()...)
		idx := frameHeaderSize
		if flipAt > 0 {
			idx += flipAt % len(msg)
		}
		bad[idx] ^= 0x01
		if _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("corrupted frame: got %v, want ErrCorruptFrame", err)
		}

		// Arbitrary bytes through a Decoder: must fail cleanly or parse.
		wild := NewDecoder(payload)
		_ = wild.Uvarint()
		_ = wild.Byte()
		_ = wild.String()
		_ = wild.Bytes()
		_ = wild.Varint()
		_ = wild.Bool()
		if err := wild.Err(); err != nil && !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("wild decode error %v does not wrap ErrCorruptFrame", err)
		}
	})
}

// TestReadFrameIntoReuse pins the pooled-read contract serveConn relies
// on: a buffer with enough capacity is reused in place, a larger frame
// gets a fresh allocation.
func TestReadFrameIntoReuse(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("key-1")); err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, 0, 64)
	got, err := readFrameInto(bytes.NewReader(buf.Bytes()), scratch)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "key-1" {
		t.Fatalf("got %q", got)
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("readFrameInto did not reuse the provided buffer")
	}
	buf.Reset()
	big := bytes.Repeat([]byte{0x5A}, 256)
	if err := WriteFrame(&buf, big); err != nil {
		t.Fatal(err)
	}
	got, err = readFrameInto(bytes.NewReader(buf.Bytes()), scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("large frame mismatch")
	}
	if cap(got) == cap(scratch) {
		t.Fatal("expected a fresh allocation for the larger frame")
	}
}
