package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzFrameDecode drives ReadFrame with arbitrary bytes (it must fail
// cleanly, never panic or over-allocate) and, when the input happens to be
// a frame WriteFrame produced, checks the round-trip and the
// corruption-detection contract: flipping any body bit must surface
// ErrCorruptFrame.
func FuzzFrameDecode(f *testing.F) {
	seed := func(payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add(seed(nil))
	f.Add(seed([]byte("hello")))
	f.Add(seed(bytes.Repeat([]byte{0xAB}, 1024)))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // oversized length claim

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return // malformed input rejected cleanly — that is the contract
		}
		// Valid frame: it must re-encode to exactly the bytes consumed.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			t.Fatalf("re-encoding decoded payload: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatalf("round-trip mismatch:\n got %x\nwant %x", buf.Bytes(), data[:buf.Len()])
		}
		// Corrupting any single body byte must trip the checksum.
		if len(payload) > 0 {
			bad := append([]byte(nil), buf.Bytes()...)
			bad[frameHeaderSize+len(payload)/2] ^= 0x01
			if _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("corrupted frame: got %v, want ErrCorruptFrame", err)
			}
		}
	})
}
