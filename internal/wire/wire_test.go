package wire

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{0xAB}, 100000),
	}
	for _, p := range payloads {
		buf.Reset()
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("frame round trip changed %d-byte payload", len(p))
		}
	}
}

func TestFrameMultiple(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := WriteFrame(&buf, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != byte(i) {
			t.Errorf("frame %d = %v", i, got)
		}
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrameSize+1)); err == nil {
		t.Error("oversized write accepted")
	}
	// Forge an oversized header (length + checksum words).
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	if _, err := ReadFrame(&buf); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversized read err = %v", err)
	}
}

// TestFrameRejectsCorruptBody is the checksum regression: any flipped bit
// in a frame body must surface as ErrCorruptFrame, never as silently wrong
// data handed to a gob decoder.
func TestFrameRejectsCorruptBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("the paper's data files travel ordinary sockets")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, at := range []int{frameHeaderSize, len(raw) - 1} { // first and last body byte
		corrupted := append([]byte(nil), raw...)
		corrupted[at] ^= 0x40
		if _, err := ReadFrame(bytes.NewReader(corrupted)); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("flip at %d: err = %v, want ErrCorruptFrame", at, err)
		}
	}
	// A corrupted stored checksum is equally detected.
	corrupted := append([]byte(nil), raw...)
	corrupted[5] ^= 0x01
	if _, err := ReadFrame(bytes.NewReader(corrupted)); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("crc flip: err = %v, want ErrCorruptFrame", err)
	}
	// And the untouched frame still reads.
	if _, err := ReadFrame(bytes.NewReader(raw)); err != nil {
		t.Errorf("pristine frame rejected: %v", err)
	}
}

// TestBulkServerStreamedBlobChecksum covers the streamed (header + status +
// blob) fast path in serveConn, which assembles its checksum without going
// through WriteFrame.
func TestBulkServerStreamedBlobChecksum(t *testing.T) {
	s, err := NewBulkServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blob := bytes.Repeat([]byte{0xde, 0xad, 0xbe, 0xef}, 50000)
	s.Put("k", blob)
	got, err := FetchBlob(s.Addr(), "k", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Error("streamed blob mangled")
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, []byte("hello world"))
	trunc := buf.Bytes()[:8]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated frame accepted")
	}
	if _, err := ReadFrame(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestBulkServerRoundTrip(t *testing.T) {
	s, err := NewBulkServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blob := bytes.Repeat([]byte("genome"), 10000)
	s.Put("db1", blob)
	got, err := FetchBlob(s.Addr(), "db1", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Errorf("blob changed in transit: %d vs %d bytes", len(got), len(blob))
	}
}

func TestBulkServerNotFound(t *testing.T) {
	s, err := NewBulkServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = FetchBlob(s.Addr(), "missing", 2*time.Second)
	if err == nil || !strings.Contains(err.Error(), "not found") {
		t.Errorf("expected not-found error, got %v", err)
	}
}

func TestBulkServerDelete(t *testing.T) {
	s, err := NewBulkServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("k", []byte("v"))
	s.Delete("k")
	if _, err := FetchBlob(s.Addr(), "k", 2*time.Second); err == nil {
		t.Error("deleted blob still served")
	}
}

func TestBulkServerConcurrentFetches(t *testing.T) {
	s, err := NewBulkServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blob := bytes.Repeat([]byte{7}, 50000)
	s.Put("x", blob)
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			got, err := FetchBlob(s.Addr(), "x", 5*time.Second)
			if err == nil && !bytes.Equal(got, blob) {
				err = bytes.ErrTooLarge // any sentinel
			}
			errs <- err
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestDigestFormat(t *testing.T) {
	d := Digest([]byte("alignment"))
	if !strings.HasPrefix(d, "sha256:") || len(d) != len("sha256:")+64 {
		t.Errorf("Digest = %q, want sha256:<64 hex>", d)
	}
	if Digest([]byte("alignment")) != d {
		t.Error("Digest not deterministic")
	}
	if Digest([]byte("other")) == d {
		t.Error("distinct blobs share a digest")
	}
}

// TestBulkFallback covers the one lookup rule: the server's own map wins,
// a miss falls through to the fallback, a fallback miss is not-found, and
// the fallback runs with no BulkServer lock held — it may call back into
// the server it serves.
func TestBulkFallback(t *testing.T) {
	var self atomic.Pointer[BulkServer]
	var calls atomic.Int64
	s, err := NewBulkServerWithFallback("127.0.0.1:0", func(key string) ([]byte, bool) {
		calls.Add(1)
		switch key {
		case "owner/live", "both":
			return []byte("from the owner: " + key), true
		case "owner/reentrant":
			// Would self-deadlock if lookup still held mu (Put takes it
			// exclusively); FetchBlob's timeout turns that into a failure.
			self.Load().Put("cached", []byte("put by the fallback"))
			return []byte("reentrant"), true
		}
		return nil, false
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	self.Store(s)
	s.Put("both", []byte("from the map"))

	for _, c := range []struct {
		key, want string
		calls     int64 // fallback calls this fetch adds
	}{
		{"both", "from the map", 0},
		{"owner/live", "from the owner: owner/live", 1},
		{"owner/reentrant", "reentrant", 1},
		{"cached", "put by the fallback", 0},
	} {
		before := calls.Load()
		got, err := FetchBlob(s.Addr(), c.key, 5*time.Second)
		if err != nil {
			t.Fatalf("fetch %q: %v", c.key, err)
		}
		if string(got) != c.want {
			t.Errorf("fetch %q = %q, want %q", c.key, got, c.want)
		}
		if n := calls.Load() - before; n != c.calls {
			t.Errorf("fetch %q consulted the fallback %d times, want %d", c.key, n, c.calls)
		}
	}
	if _, err := FetchBlob(s.Addr(), "nowhere", 2*time.Second); err == nil ||
		!strings.Contains(err.Error(), "not found") {
		t.Errorf("key unknown to map and fallback: err = %v, want not found", err)
	}
	// Deleting the shadowing entry uncovers the owner's answer.
	s.Delete("both")
	if got, err := FetchBlob(s.Addr(), "both", 5*time.Second); err != nil || string(got) != "from the owner: both" {
		t.Errorf("fetch after Delete = %q, %v; want the fallback's bytes", got, err)
	}
	if st := s.Stats(); st.Blobs != 1 || st.Fetches != 6 {
		t.Errorf("stats = %d own blobs / %d fetches, want 1 (\"cached\") / 6", st.Blobs, st.Fetches)
	}
}

// TestBulkStatsTraffic checks the fetch/byte accounting the dedup
// benchmark reads.
func TestBulkStatsTraffic(t *testing.T) {
	s, err := NewBulkServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blob := bytes.Repeat([]byte{9}, 1000)
	s.Put("k", blob)
	for i := 0; i < 3; i++ {
		if _, err := FetchBlob(s.Addr(), "k", 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	_, _ = FetchBlob(s.Addr(), "missing", 2*time.Second)
	st := s.Stats()
	if st.Fetches != 4 {
		t.Errorf("Fetches = %d, want 4", st.Fetches)
	}
	if st.BytesServed != 3*int64(len(blob)) {
		t.Errorf("BytesServed = %d, want %d", st.BytesServed, 3*len(blob))
	}
	if st.Blobs != 1 || st.StoredBytes != int64(len(blob)) {
		t.Errorf("storage = %d blobs / %d bytes, want 1 / %d", st.Blobs, st.StoredBytes, len(blob))
	}
}

func TestFetchBlobConnectionRefused(t *testing.T) {
	// Grab a port then close it so nothing is listening.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := FetchBlob(addr, "k", 500*time.Millisecond); err == nil {
		t.Error("fetch from dead server succeeded")
	}
}
