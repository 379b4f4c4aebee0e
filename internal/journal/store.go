package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	walHeader  = "DJWAL001"
	snapHeader = "DSNAP001"
	walPrefix  = "wal-"
	snapPrefix = "snap-"
	tmpSuffix  = ".tmp"
)

// ErrClosed is returned by Store calls after Close.
var ErrClosed = errors.New("journal: store closed")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a Store.
type Options struct {
	// SyncInterval is the group-commit cadence for asynchronous appends: a
	// crash loses at most one interval of them.
	// Zero defaults to 100ms — wide enough that the fsync cost disappears
	// into the drain (each lost interval is only recomputed work; leases
	// already absorb far longer donor losses), short enough that a crash
	// forfeits a fraction of a second of results.
	SyncInterval time.Duration
	// MaxRecordBytes guards replay against garbage frame lengths (a
	// corrupt uvarint must not allocate gigabytes). Zero defaults to
	// 256 MiB; appends of larger records are rejected.
	MaxRecordBytes int
}

func (o *Options) applyDefaults() {
	if o.SyncInterval <= 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = 256 << 20
	}
}

// Recovered is what Open found on disk: the newest parseable snapshot plus
// every WAL record appended after it, in order.
type Recovered struct {
	// Meta is the snapshot preamble (zero when no snapshot survived).
	Meta Meta
	// Problems are the snapshot's per-problem checkpoints.
	Problems []Snapshot
	// Tail are the WAL records to replay on top of Problems, oldest first.
	Tail []Record
	// Truncated reports that replay stopped at a torn or corrupt frame;
	// everything up to the last good record is still in Tail.
	Truncated bool
	// MaxEpoch is the highest incarnation epoch seen anywhere (records or
	// Meta.EpochSeq); recovery seeds the coordinator's allocator above it.
	MaxEpoch int64
}

// Store is an open journal directory: one live WAL segment accepting
// appends, plus the retired segments and snapshots recovery reads. Appends
// return after an in-memory buffer append — one write syscall per group
// commit, not per record — and the background group-commit loop flushes
// and fsyncs every SyncInterval (AppendSync waits for the commit covering
// its record).
//
// Lock order: syncMu → mu. mu guards the fields and is held across buffer
// flushes but never across an fsync; syncMu serialises fsyncs with segment
// swaps so a rotation can never close a file mid-Sync.
type Store struct {
	dir  string
	opts Options

	syncMu sync.Mutex
	mu     sync.Mutex
	f      *os.File //dist:guardedby mu
	// buf holds frames appended since the last flush; flushLocked writes it
	// to f in one syscall before every fsync, rotation and close. scratch
	// is the reused record-encode buffer.
	//dist:guardedby mu
	buf []byte
	//dist:guardedby mu
	scratch []byte
	gen     uint64 //dist:guardedby mu
	dirty   bool   //dist:guardedby mu
	// waiters are AppendSync callers parked until the next fsync.
	//dist:guardedby mu
	waiters    []chan error
	logBytes   int64 //dist:guardedby mu
	logRecords int   //dist:guardedby mu
	// err is the sticky I/O error: once a write or fsync fails the store
	// refuses further appends rather than journal a gap.
	//dist:guardedby mu
	err    error
	closed bool //dist:guardedby mu

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// Open opens (creating if needed) a journal directory, reads back
// everything recoverable, and starts a fresh WAL generation for new
// appends. Corruption never fails Open: a torn tail is truncated to the
// last good record (Recovered.Truncated) and an unreadable snapshot falls
// back to its predecessor.
func Open(dir string, opts Options) (*Store, *Recovered, error) {
	opts.applyDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	wals, snaps, maxGen, err := scanDir(dir)
	if err != nil {
		return nil, nil, err
	}

	rec := &Recovered{}
	var baseGen uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		meta, problems, serr := readSnapshotFile(filepath.Join(dir, snapName(snaps[i])), opts.MaxRecordBytes)
		if serr != nil {
			continue // bit-flipped or torn snapshot: fall back to the previous one
		}
		rec.Meta, rec.Problems = meta, problems
		baseGen = snaps[i]
		break
	}
	for _, g := range wals {
		if g < baseGen {
			continue // superseded by the snapshot; pruning just hadn't finished
		}
		recs, truncated := readWALFile(filepath.Join(dir, walName(g)), opts.MaxRecordBytes)
		rec.Tail = append(rec.Tail, recs...)
		if truncated {
			// Never apply records past a corrupt region: a fold replayed
			// out of order could half-apply state the snapshot believes
			// consistent. Everything after the last good record is lost
			// work the fleet simply recomputes.
			rec.Truncated = true
			break
		}
	}
	rec.MaxEpoch = rec.Meta.EpochSeq
	for _, p := range rec.Problems {
		if p.Epoch > rec.MaxEpoch {
			rec.MaxEpoch = p.Epoch
		}
	}
	for _, r := range rec.Tail {
		if e := recordEpoch(r); e > rec.MaxEpoch {
			rec.MaxEpoch = e
		}
	}

	s := &Store{
		dir:  dir,
		opts: opts,
		gen:  maxGen + 1,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.mu.Lock()
	f, err := createWAL(dir, s.gen)
	if err != nil {
		s.mu.Unlock()
		return nil, nil, err
	}
	s.f = f
	s.mu.Unlock()
	go s.syncLoop()
	return s, rec, nil
}

// Append journals one record: it returns after the in-memory buffer
// append, and the group-commit loop makes it durable within one
// SyncInterval.
func (s *Store) Append(r Record) error { return s.append(r, false) }

// AppendSync journals one record and returns only once it is fsynced.
func (s *Store) AppendSync(r Record) error { return s.append(r, true) }

func (s *Store) append(r Record, syncWait bool) error {
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return err
	}
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	// Encode into the reused scratch buffer and frame straight into buf:
	// the fold hot path allocates nothing per record.
	s.scratch = encodeRecordInto(s.scratch[:0], r)
	body := s.scratch
	if len(body)+16 > s.opts.MaxRecordBytes {
		s.mu.Unlock()
		return fmt.Errorf("journal: record of %d bytes exceeds the %d-byte limit", len(body), s.opts.MaxRecordBytes)
	}
	was := len(s.buf)
	s.buf = binary.AppendUvarint(s.buf, uint64(len(body)))
	s.buf = binary.LittleEndian.AppendUint32(s.buf, crc32.Checksum(body, castagnoli))
	s.buf = append(s.buf, body...)
	s.logBytes += int64(len(s.buf) - was)
	s.logRecords++
	if !syncWait {
		s.dirty = true
		s.mu.Unlock()
		return nil
	}
	w := make(chan error, 1)
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()
	select {
	case s.kick <- struct{}{}:
	default:
	}
	return <-w
}

// flushLocked writes the buffered frames to the live segment in one
// syscall. A write failure is sticky: the store refuses further appends
// rather than journal a gap.
//
//dist:locked mu
func (s *Store) flushLocked() {
	if len(s.buf) == 0 || s.err != nil || s.f == nil {
		return
	}
	if _, werr := s.f.Write(s.buf); werr != nil {
		s.err = fmt.Errorf("journal: append: %w", werr)
	}
	s.buf = s.buf[:0]
}

// LogSize reports the bytes and records appended to the live WAL since the
// last rotation, from which the coordinator's checkpoint trigger counts.
func (s *Store) LogSize() (bytes int64, records int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logBytes, s.logRecords
}

// Err reports the sticky I/O error, if any append or fsync has failed.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Rotate fsyncs and retires the live WAL segment and starts a new
// generation. Callers snapshot their state after rotating and then call
// WriteSnapshot, so every record in the retired segments is covered by the
// snapshot. A caller that holds off its own appends from the rotation until
// its state is captured makes the new segment hold exactly the records
// written after that state.
func (s *Store) Rotate() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return ErrClosed
	}
	s.flushLocked()
	if s.err != nil {
		return s.err
	}
	if err := s.f.Sync(); err != nil {
		s.err = fmt.Errorf("journal: rotate fsync: %w", err)
		return s.err
	}
	if err := s.f.Close(); err != nil {
		s.err = fmt.Errorf("journal: rotate close: %w", err)
		s.f = nil
		return s.err
	}
	s.gen++
	f, err := createWAL(s.dir, s.gen)
	if err != nil {
		s.err = err
		s.f = nil
		return err
	}
	s.f = f
	s.logBytes, s.logRecords = 0, 0
	// The retired segment was just fsynced, which covers every parked
	// AppendSync; release them here rather than making them wait for the
	// first fsync of the (empty) new segment.
	for _, w := range s.waiters {
		w <- nil
	}
	s.waiters = nil
	s.dirty = false
	return nil
}

// WriteSnapshot atomically persists a checkpoint (tmp file + fsync +
// rename) under the live generation and prunes every older-generation
// segment it supersedes. Call Rotate first; the snapshot covers everything
// up to (and some of what follows) that rotation.
func (s *Store) WriteSnapshot(meta Meta, problems []Snapshot) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	gen := s.gen
	s.mu.Unlock()

	final := filepath.Join(s.dir, snapName(gen))
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	buf := []byte(snapHeader)
	buf = append(buf, encodeFrame(&meta)...)
	for i := range problems {
		buf = append(buf, encodeFrame(&problems[i])...)
	}
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.prune(gen)
	return nil
}

// prune removes every segment of a generation below keep; failures are
// ignored (stale segments are harmless — recovery skips them).
func (s *Store) prune(keep uint64) {
	wals, snaps, _, err := scanDir(s.dir)
	if err != nil {
		return
	}
	for _, g := range wals {
		if g < keep {
			_ = os.Remove(filepath.Join(s.dir, walName(g)))
		}
	}
	for _, g := range snaps {
		if g < keep {
			_ = os.Remove(filepath.Join(s.dir, snapName(g)))
		}
	}
}

// Close flushes, fsyncs and closes the live segment. Idempotent; returns
// the sticky I/O error, if any.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		err := s.err
		s.mu.Unlock()
		return err
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done // the final group commit ran; no waiter is left parked

	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked() // closed appends are rejected, so this is already empty
	if s.f != nil {
		if serr := s.f.Sync(); serr != nil && s.err == nil {
			s.err = fmt.Errorf("journal: close fsync: %w", serr)
		}
		if cerr := s.f.Close(); cerr != nil && s.err == nil {
			s.err = fmt.Errorf("journal: close: %w", cerr)
		}
		s.f = nil
	}
	return s.err
}

// syncLoop is the group-commit goroutine: it fsyncs the live segment every
// SyncInterval while dirty, immediately when an AppendSync kicks it, and
// one final time at Close.
func (s *Store) syncLoop() {
	defer close(s.done)
	t := time.NewTicker(s.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			s.syncNow()
			return
		case <-s.kick:
			s.syncNow()
		case <-t.C:
			s.syncNow()
		}
	}
}

// syncNow runs one group commit: flush the append buffer and snapshot the
// dirty flag and parked waiters under mu, fsync outside it (appends keep
// flowing into the next buffer), then release the waiters with the
// outcome.
func (s *Store) syncNow() {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	s.flushLocked()
	f := s.f
	waiters := s.waiters
	s.waiters = nil
	need := s.dirty || len(waiters) > 0
	s.dirty = false
	err := s.err
	s.mu.Unlock()
	if err == nil && need && f != nil {
		if serr := f.Sync(); serr != nil {
			err = fmt.Errorf("journal: fsync: %w", serr)
			s.mu.Lock()
			if s.err == nil {
				s.err = err
			}
			s.mu.Unlock()
		}
	}
	for _, w := range waiters {
		w <- err
	}
}

// encodeFrame wraps one record body in the length+CRC framing.
func encodeFrame(r Record) []byte {
	body := encodeRecord(r)
	buf := binary.AppendUvarint(make([]byte, 0, len(body)+16), uint64(len(body)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, castagnoli))
	return append(buf, body...)
}

// parseFrames decodes consecutive frames from data, stopping at the first
// torn or corrupt one (truncated reports that some of data was dropped).
func parseFrames(data []byte, maxRecord int) (recs []Record, truncated bool) {
	off := 0
	for off < len(data) {
		n, ln := binary.Uvarint(data[off:])
		if ln <= 0 || n > uint64(maxRecord) {
			return recs, true
		}
		p := off + ln
		if p+4+int(n) > len(data) || p+4+int(n) < p {
			return recs, true
		}
		crc := binary.LittleEndian.Uint32(data[p : p+4])
		body := data[p+4 : p+4+int(n)]
		if crc32.Checksum(body, castagnoli) != crc {
			return recs, true
		}
		r, err := decodeRecord(body)
		if err != nil {
			return recs, true
		}
		recs = append(recs, r)
		off = p + 4 + int(n)
	}
	return recs, false
}

// readWALFile reads back one WAL segment, tolerating any corruption: a
// missing or garbage file is simply an empty (truncated) one.
func readWALFile(path string, maxRecord int) (recs []Record, truncated bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, true
	}
	if len(data) < len(walHeader) || string(data[:len(walHeader)]) != walHeader {
		return nil, true
	}
	return parseFrames(data[len(walHeader):], maxRecord)
}

// readSnapshotFile reads back one snapshot. Unlike WAL segments a snapshot
// is all-or-nothing: it was written atomically, so any parse failure means
// bit rot and the caller falls back to an older generation.
func readSnapshotFile(path string, maxRecord int) (Meta, []Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Meta{}, nil, err
	}
	if len(data) < len(snapHeader) || string(data[:len(snapHeader)]) != snapHeader {
		return Meta{}, nil, errors.New("journal: bad snapshot header")
	}
	recs, truncated := parseFrames(data[len(snapHeader):], maxRecord)
	if truncated {
		return Meta{}, nil, errors.New("journal: corrupt snapshot")
	}
	if len(recs) == 0 {
		return Meta{}, nil, errors.New("journal: snapshot without meta record")
	}
	meta, ok := recs[0].(*Meta)
	if !ok {
		return Meta{}, nil, errors.New("journal: snapshot does not open with a meta record")
	}
	problems := make([]Snapshot, 0, len(recs)-1)
	for _, r := range recs[1:] {
		p, ok := r.(*Snapshot)
		if !ok {
			return Meta{}, nil, fmt.Errorf("journal: unexpected %T record in snapshot", r)
		}
		problems = append(problems, *p)
	}
	return *meta, problems, nil
}

func walName(gen uint64) string  { return fmt.Sprintf("%s%010d", walPrefix, gen) }
func snapName(gen uint64) string { return fmt.Sprintf("%s%010d", snapPrefix, gen) }

// scanDir lists the directory's WAL and snapshot generations (ascending)
// and sweeps leftover tmp files from an interrupted snapshot write.
func scanDir(dir string) (wals, snaps []uint64, maxGen uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("journal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if g, ok := parseGen(name, walPrefix); ok {
			wals = append(wals, g)
			if g > maxGen {
				maxGen = g
			}
		} else if g, ok := parseGen(name, snapPrefix); ok {
			snaps = append(snaps, g)
			if g > maxGen {
				maxGen = g
			}
		}
	}
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return wals, snaps, maxGen, nil
}

func parseGen(name, prefix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	g, err := strconv.ParseUint(name[len(prefix):], 10, 64)
	if err != nil {
		return 0, false
	}
	return g, true
}

// createWAL starts a fresh segment and makes its directory entry durable.
func createWAL(dir string, gen uint64) (*os.File, error) {
	path := filepath.Join(dir, walName(gen))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: create wal: %w", err)
	}
	if _, err := f.Write([]byte(walHeader)); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("journal: create wal: %w", err)
	}
	if err := syncDir(dir); err != nil {
		_ = f.Close()
		return nil, err
	}
	return f, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: sync dir: %w", err)
	}
	return nil
}
