// Package journal is the coordinator's durability subsystem: a CRC-framed,
// fsync-batched write-ahead log plus atomic snapshots, from which a
// restarted server rebuilds its registered problems.
//
// The design follows the observation that only five coordinator mutations
// matter for recovery — a problem being submitted, a unit being granted
// (cut from the problem's DataManager), a replica result being held for
// quorum, a unit result being folded, and a problem being forgotten. Lease
// tables, donor statistics and park queues are all soft state the fleet
// regenerates within one poll interval, so none of it is journaled. The
// server recovers by replaying the records through the same unit-table
// transitions that wrote them.
//
// On disk a journal directory holds generation-numbered segments:
//
//	wal-<gen>   appended Submit/Grant/Replica/Fold/Forget records
//	snap-<gen>  one atomically written checkpoint (Meta + Snapshot records)
//
// Every record, in both file kinds, is framed identically:
//
//	uvarint body length | CRC-32C (Castagnoli) of body, little-endian | body
//
// and each file opens with an 8-byte magic header (walHeader / snapHeader).
// A torn or bit-flipped frame fails its CRC, and replay stops at the last
// good record — never a partial application. Compaction rotates the WAL to
// a fresh generation first, then captures problem states, then writes
// snap-<gen> via tmp-file + fsync + rename, and finally prunes every
// segment of an older generation; recovery loads the newest parseable
// snapshot and replays all WAL generations at or above it, so a crash at
// any point between those steps replays to the same state (the server's
// replay is idempotent: a Grant for a unit already rebuilt is a no-op, a
// duplicate Replica is dropped).
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Record tags, the first byte of every record body.
const (
	tagSubmit   byte = 1
	tagFold     byte = 2
	tagForget   byte = 3
	tagSnapshot byte = 4
	tagMeta     byte = 5
	tagReplica  byte = 6
	tagGrant    byte = 7
)

// Record is one typed journal entry. The concrete types are Submit, Fold,
// Forget, Snapshot, Meta, Replica and Grant; replay switches on them.
type Record interface{ tag() byte }

// Submit records a durable problem's registration: everything needed to
// re-create the problem from scratch. Field order: ProblemID, Epoch, Kind,
// State, Shared.
type Submit struct {
	// ProblemID is the submitted problem's ID.
	ProblemID string
	// Epoch is the incarnation the coordinator assigned at Submit.
	Epoch int64
	// Kind names the registered durable-DataManager restorer.
	Kind string
	// State is the DataManager's marshalled state at submission.
	State []byte
	// Shared is the problem's shared blob.
	Shared []byte
}

// Fold records one accepted unit result. Field order: ProblemID, Epoch,
// UnitID, Payload.
type Fold struct {
	ProblemID string
	Epoch     int64
	// UnitID is the completed unit.
	UnitID int64
	// Payload is the result payload that was folded.
	Payload []byte
}

// Forget records a problem's eviction. Field order: ProblemID, Epoch.
type Forget struct {
	ProblemID string
	Epoch     int64
}

// Snapshot is one problem's checkpointed state inside a snap-<gen> file.
// Field order: ProblemID, Epoch, Kind, State, Shared, Dispatched,
// Completed, Reissued.
type Snapshot struct {
	ProblemID string
	Epoch     int64
	Kind      string
	// State is the DataManager's marshalled state at capture time.
	State  []byte
	Shared []byte
	// Dispatched/Completed/Reissued carry the problem's unit counters
	// across the restart.
	Dispatched int64
	Completed  int64
	Reissued   int64
}

// Replica records one held replica result of a quorum-verified unit
// (ServerOptions.VerifyFraction): the result reached the coordinator but
// is held out of the fold until quorum agreement. Replay rebuilds the
// unit's verification set from its Replica records; a Fold for the unit
// under the same epoch supersedes them (the quorum resolved before the
// crash). Field order: ProblemID, Epoch, UnitID, Donor, Payload.
type Replica struct {
	ProblemID string
	Epoch     int64
	// UnitID is the verified unit this replica belongs to.
	UnitID int64
	// Donor names the worker that computed this replica.
	Donor string
	// Payload is the held result payload.
	Payload []byte
}

// Grant records the first cut of a unit: the DataManager's NextUnit was
// called with Budget and returned UnitID, which was set up to fold after
// Quorum agreeing results. Replay calls NextUnit(Budget) on the restored
// DataManager — deterministic given its state and the budget — and checks
// it returns UnitID. Field order: ProblemID, Epoch, UnitID, Budget, Quorum.
type Grant struct {
	ProblemID string
	Epoch     int64
	// UnitID is the unit NextUnit returned.
	UnitID int64
	// Budget is the budget NextUnit was called with.
	Budget int64
	// Quorum is the unit's quorum when it was granted (1, or the
	// verification quorum for a spot-checked unit).
	Quorum int64
}

// Meta is the first record of every snapshot file. Field order: EpochSeq.
type Meta struct {
	// EpochSeq is the coordinator's incarnation-counter high-water mark at
	// capture time; recovery seeds its allocator above it so every
	// post-restart epoch fences pre-crash stragglers.
	EpochSeq int64
}

func (*Submit) tag() byte   { return tagSubmit }
func (*Fold) tag() byte     { return tagFold }
func (*Forget) tag() byte   { return tagForget }
func (*Snapshot) tag() byte { return tagSnapshot }
func (*Meta) tag() byte     { return tagMeta }
func (*Replica) tag() byte  { return tagReplica }
func (*Grant) tag() byte    { return tagGrant }

// recordEpoch reports the incarnation epoch a record carries (0 for Meta,
// which carries the allocator high-water instead).
func recordEpoch(r Record) int64 {
	switch r := r.(type) {
	case *Submit:
		return r.Epoch
	case *Fold:
		return r.Epoch
	case *Forget:
		return r.Epoch
	case *Snapshot:
		return r.Epoch
	case *Replica:
		return r.Epoch
	case *Grant:
		return r.Epoch
	}
	return 0
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// encodeRecord flattens one record into its body bytes (tag + fields in
// the documented order).
func encodeRecord(r Record) []byte { return encodeRecordInto(nil, r) }

// encodeRecordInto appends the record body to b — the allocation-free
// form the append hot path uses with a reused scratch buffer.
func encodeRecordInto(b []byte, r Record) []byte {
	b = append(b, r.tag())
	switch r := r.(type) {
	case *Submit:
		b = appendString(b, r.ProblemID)
		b = binary.AppendVarint(b, r.Epoch)
		b = appendString(b, r.Kind)
		b = appendBytes(b, r.State)
		b = appendBytes(b, r.Shared)
	case *Fold:
		b = appendString(b, r.ProblemID)
		b = binary.AppendVarint(b, r.Epoch)
		b = binary.AppendVarint(b, r.UnitID)
		b = appendBytes(b, r.Payload)
	case *Forget:
		b = appendString(b, r.ProblemID)
		b = binary.AppendVarint(b, r.Epoch)
	case *Snapshot:
		b = appendString(b, r.ProblemID)
		b = binary.AppendVarint(b, r.Epoch)
		b = appendString(b, r.Kind)
		b = appendBytes(b, r.State)
		b = appendBytes(b, r.Shared)
		b = binary.AppendVarint(b, r.Dispatched)
		b = binary.AppendVarint(b, r.Completed)
		b = binary.AppendVarint(b, r.Reissued)
	case *Meta:
		b = binary.AppendVarint(b, r.EpochSeq)
	case *Replica:
		b = appendString(b, r.ProblemID)
		b = binary.AppendVarint(b, r.Epoch)
		b = binary.AppendVarint(b, r.UnitID)
		b = appendString(b, r.Donor)
		b = appendBytes(b, r.Payload)
	case *Grant:
		b = appendString(b, r.ProblemID)
		b = binary.AppendVarint(b, r.Epoch)
		b = binary.AppendVarint(b, r.UnitID)
		b = binary.AppendVarint(b, r.Budget)
		b = binary.AppendVarint(b, r.Quorum)
	default:
		panic(fmt.Sprintf("journal: encode of unknown record type %T", r))
	}
	return b
}

// decodeRecord parses one record body. The returned record's byte fields
// alias body.
func decodeRecord(body []byte) (Record, error) {
	if len(body) == 0 {
		return nil, errors.New("journal: empty record body")
	}
	d := &decoder{buf: body[1:]}
	var r Record
	switch body[0] {
	case tagSubmit:
		rec := &Submit{}
		rec.ProblemID = d.str()
		rec.Epoch = d.varint()
		rec.Kind = d.str()
		rec.State = d.bytes()
		rec.Shared = d.bytes()
		r = rec
	case tagFold:
		rec := &Fold{}
		rec.ProblemID = d.str()
		rec.Epoch = d.varint()
		rec.UnitID = d.varint()
		rec.Payload = d.bytes()
		r = rec
	case tagForget:
		rec := &Forget{}
		rec.ProblemID = d.str()
		rec.Epoch = d.varint()
		r = rec
	case tagSnapshot:
		rec := &Snapshot{}
		rec.ProblemID = d.str()
		rec.Epoch = d.varint()
		rec.Kind = d.str()
		rec.State = d.bytes()
		rec.Shared = d.bytes()
		rec.Dispatched = d.varint()
		rec.Completed = d.varint()
		rec.Reissued = d.varint()
		r = rec
	case tagMeta:
		rec := &Meta{}
		rec.EpochSeq = d.varint()
		r = rec
	case tagReplica:
		rec := &Replica{}
		rec.ProblemID = d.str()
		rec.Epoch = d.varint()
		rec.UnitID = d.varint()
		rec.Donor = d.str()
		rec.Payload = d.bytes()
		r = rec
	case tagGrant:
		rec := &Grant{}
		rec.ProblemID = d.str()
		rec.Epoch = d.varint()
		rec.UnitID = d.varint()
		rec.Budget = d.varint()
		rec.Quorum = d.varint()
		r = rec
	default:
		return nil, fmt.Errorf("journal: unknown record tag %d", body[0])
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("journal: %d trailing bytes after record", len(d.buf)-d.off)
	}
	return r, nil
}

// decoder is a cursor over one record body; the first error sticks and
// zero-values every later read.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = errors.New("journal: truncated uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.err = errors.New("journal: truncated varint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.err = fmt.Errorf("journal: byte field of %d exceeds %d remaining", n, len(d.buf)-d.off)
		return nil
	}
	if n == 0 {
		return nil
	}
	p := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return p
}

func (d *decoder) str() string { return string(d.bytes()) }
