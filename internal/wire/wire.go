package wire // package documentation lives in doc.go

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MaxFrameSize bounds a single framed message (64 MiB) to keep a corrupt
// or malicious length prefix from exhausting memory.
const MaxFrameSize = 64 << 20

// ErrCorruptFrame is returned by ReadFrame when a frame's checksum does not
// match its body — bit rot or a corrupting middlebox on the bulk channel.
// Callers treat it like any other transport failure: the fetch is retried
// or the unit requeued, never consumed as silently wrong data.
var ErrCorruptFrame = errors.New("wire: corrupt frame (checksum mismatch)")

// ErrDigestMismatch is returned (wrapped) when a content-addressed blob's
// bytes do not hash to the digest they were requested under — a server
// bug, a tampered store, or corruption the per-frame CRC happened to miss.
// Like ErrCorruptFrame it is a transport-level failure: the fetch is
// retried or the unit requeued, never consumed as silently wrong data.
var ErrDigestMismatch = errors.New("wire: blob does not match its content digest")

// crcTable is the Castagnoli polynomial table; CRC-32C is hardware
// accelerated on amd64/arm64, so checksumming adds little to a bulk copy.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Digest returns a blob's content address: "sha256:" followed by the
// lowercase hex SHA-256 of its bytes. Identical bytes always produce the
// same digest, which is what lets a donor fetch and cache one alignment
// once however many problems share it.
func Digest(blob []byte) string {
	sum := sha256.Sum256(blob)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// ContentKey maps a content digest to its bulk-channel blob key. The
// "content/" namespace keeps digests apart from the dist layer's
// per-problem ("shared/...") and per-unit ("unit/...") keys.
func ContentKey(digest string) string { return "content/" + digest }

// frameHeaderSize is the fixed per-frame overhead: 4 bytes big-endian body
// length followed by 4 bytes CRC-32C of the body. The frame format is not
// versioned on its own: the control channel's FlatPreamble covers both
// channels, so a peer that passed the control version exchange frames bulk
// traffic the same way.
const frameHeaderSize = 8

// errFrameSize marks WriteFrame's refusal of an oversized payload — the one
// write error after which nothing has been written.
var errFrameSize = errors.New("wire: frame exceeds the size limit")

// WriteFrame writes a length-prefixed, checksummed frame to w.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes, limit %d", errFrameSize, len(payload), MaxFrameSize)
	}
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: writing frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("wire: writing frame body: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame from r and verifies its
// checksum, returning ErrCorruptFrame on a mismatch. The returned buffer
// is freshly allocated and owned by the caller.
func ReadFrame(r io.Reader) ([]byte, error) {
	return readFrameInto(r, nil)
}

// readFrameInto is ReadFrame decoding into buf when its capacity suffices,
// allocating only for larger frames. Callers that recycle buf must not let
// the returned slice escape past the recycle point.
func readFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("wire: reading frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, MaxFrameSize)
	}
	want := binary.BigEndian.Uint32(hdr[4:])
	if uint32(cap(buf)) >= n {
		buf = buf[:n]
	} else {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("wire: reading frame body: %w", err)
	}
	if got := crc32.Checksum(buf, crcTable); got != want {
		return nil, fmt.Errorf("%w: crc %08x, frame claims %08x", ErrCorruptFrame, got, want)
	}
	return buf, nil
}

// keyBufPool recycles the small per-fetch buffers serveConn reads blob
// keys into; keys are copied out (string conversion) before the buffer is
// returned, so pooling them is safe. maxPooledKeyBuf keeps an oversized
// key frame from pinning a large buffer in the pool.
const maxPooledKeyBuf = 64 << 10

var keyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// BulkServer serves named blobs over raw TCP: a client connects, sends one
// frame containing the blob key, and receives one frame with the blob (or
// an empty frame if unknown, distinguished by a one-byte status prefix).
// This is the "data files over ordinary sockets" channel.
//
// A key resolves against the server's own map first (Put/Delete) and, on a
// miss, through the fallback the server was built with: the owner of the
// data answers from its live state, so nothing has to be copied into — and
// kept in step with — a second store.
type BulkServer struct {
	mu    sync.RWMutex
	blobs map[string][]byte //dist:guardedby mu
	// fallback resolves keys the map does not hold; nil means none. It is
	// called with mu released — it takes its owner's locks, and holding mu
	// across it would make mu the outermost lock of a foreign lock order —
	// and must not mutate the bytes it returns afterwards: they are written
	// to the socket after it has returned. Immutable after construction.
	fallback func(key string) ([]byte, bool)
	ln       net.Listener
	done     chan struct{}
	wg       sync.WaitGroup

	// bytesServed / fetchesServed account traffic for BulkStats.
	bytesServed   atomic.Int64
	fetchesServed atomic.Int64
}

// NewBulkServer starts a bulk server on addr ("host:0" picks a free port)
// that serves only what is Put into it.
func NewBulkServer(addr string) (*BulkServer, error) {
	return NewBulkServerWithFallback(addr, nil)
}

// NewBulkServerWithFallback is NewBulkServer with a resolver for the keys
// its own map does not hold (see BulkServer); a fallback miss is the usual
// not-found reply.
func NewBulkServerWithFallback(addr string, fallback func(key string) ([]byte, bool)) (*BulkServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: bulk listen: %w", err)
	}
	s := &BulkServer{
		blobs:    make(map[string][]byte),
		fallback: fallback,
		ln:       ln,
		done:     make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener address.
func (s *BulkServer) Addr() string { return s.ln.Addr().String() }

// Put registers (or replaces) a blob under key.
func (s *BulkServer) Put(key string, blob []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs[key] = blob
}

// Delete removes a blob.
func (s *BulkServer) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.blobs, key)
}

// BulkStats is a snapshot of a bulk server's storage and traffic. Stored
// figures cover the server's own map only — what a fallback resolves is
// its owner's to count; served figures accumulate over the server's
// lifetime whichever of the two answered.
type BulkStats struct {
	Blobs       int
	StoredBytes int64
	// Fetches counts answered fetch requests (found or not);
	// BytesServed sums the blob bytes shipped to clients.
	Fetches     int64
	BytesServed int64
}

// Stats reports the server's current storage and cumulative traffic.
func (s *BulkServer) Stats() BulkStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := BulkStats{
		Blobs:       len(s.blobs),
		Fetches:     s.fetchesServed.Load(),
		BytesServed: s.bytesServed.Load(),
	}
	for _, b := range s.blobs {
		st.StoredBytes += int64(len(b))
	}
	return st
}

// Close stops the server and waits for in-flight transfers.
func (s *BulkServer) Close() error {
	close(s.done)
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *BulkServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				// Transient accept error; keep serving.
				time.Sleep(10 * time.Millisecond)
				continue
			}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

const (
	statusOK       = 0x01
	statusNotFound = 0x02
)

// lookup resolves a fetch key against the server's own map, then the
// fallback — the latter with mu already released.
func (s *BulkServer) lookup(key string) ([]byte, bool) {
	s.mu.RLock()
	blob, ok := s.blobs[key]
	s.mu.RUnlock()
	if ok || s.fallback == nil {
		return blob, ok
	}
	return s.fallback(key)
}

func (s *BulkServer) serveConn(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	bp := keyBufPool.Get().(*[]byte)
	key, err := readFrameInto(conn, (*bp)[:0])
	if err != nil {
		keyBufPool.Put(bp)
		return
	}
	lookupKey := string(key)
	if cap(key) > cap(*bp) {
		*bp = key[:0]
	}
	if cap(*bp) <= maxPooledKeyBuf {
		keyBufPool.Put(bp)
	}
	s.fetchesServed.Add(1)
	blob, ok := s.lookup(lookupKey)
	if !ok {
		_ = WriteFrame(conn, []byte{statusNotFound})
		return
	}
	s.bytesServed.Add(int64(len(blob)))
	// Stream header + status + blob without copying the (possibly large)
	// blob into a combined buffer. The CRC covers the whole frame body
	// (status byte + blob), exactly what WriteFrame would checksum.
	if 1+len(blob) > MaxFrameSize {
		_ = WriteFrame(conn, []byte{statusNotFound})
		return
	}
	crc := crc32.Update(crc32.Checksum([]byte{statusOK}, crcTable), crcTable, blob)
	var hdr [frameHeaderSize + 1]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(1+len(blob)))
	binary.BigEndian.PutUint32(hdr[4:8], crc)
	hdr[8] = statusOK
	if _, err := conn.Write(hdr[:]); err != nil {
		return
	}
	_, _ = conn.Write(blob)
}

// FetchBlob retrieves a named blob from a bulk server.
func FetchBlob(addr, key string, timeout time.Duration) ([]byte, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: bulk dial %s: %w", addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if err := WriteFrame(conn, []byte(key)); err != nil {
		return nil, err
	}
	resp, err := ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	if len(resp) == 0 {
		return nil, fmt.Errorf("wire: empty bulk response for %q", key)
	}
	switch resp[0] {
	case statusOK:
		return resp[1:], nil
	case statusNotFound:
		return nil, fmt.Errorf("wire: blob %q not found", key)
	default:
		return nil, fmt.Errorf("wire: bad bulk status byte %#x", resp[0])
	}
}
