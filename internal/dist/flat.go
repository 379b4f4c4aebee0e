package dist

// Flat-codec seam for the control-channel envelopes: every message type
// implements wire.FlatMarshaler/FlatUnmarshaler by hand, and this is the
// only encoding the control channel speaks (gob survives solely as the
// payload codec in typed.go).
//
// Field order is the encoding: MarshalFlat and UnmarshalFlat must touch
// the same fields in the same order, and that order is frozen in
// docs/ARCHITECTURE.md. The flat encoding has no field tags, so it cannot
// evolve in place — any incompatible change must bump the version digit in
// wire.FlatPreamble.
//
// Marshal methods take value receivers, so an envelope satisfies
// wire.FlatMarshaler both by value and by pointer; Unmarshal methods need
// pointer receivers. A verb with no body in one direction passes nil to the
// mux instead of an empty envelope. TestFlatEnvelopeRoundTrip's table holds
// every envelope as both interfaces, so a dropped method fails to compile
// there.

import "repro/internal/wire"

// MarshalFlat implements wire.FlatMarshaler.
func (a donorArgs) MarshalFlat(e *wire.Encoder) { e.String(a.Donor) }

// UnmarshalFlat implements wire.FlatUnmarshaler.
func (a *donorArgs) UnmarshalFlat(d *wire.Decoder) { a.Donor = d.String() }

// MarshalFlat implements wire.FlatMarshaler.
func (a waitTaskArgs) MarshalFlat(e *wire.Encoder) {
	e.String(a.Donor)
	e.Varint(a.MaxWaitNs)
	e.Varint(int64(a.MaxBatch))
}

// UnmarshalFlat implements wire.FlatUnmarshaler.
func (a *waitTaskArgs) UnmarshalFlat(d *wire.Decoder) {
	a.Donor = d.String()
	a.MaxWaitNs = d.Varint()
	a.MaxBatch = int(d.Varint())
}

// marshalUnitFlat / unmarshalUnitFlat encode the embedded Unit wherever an
// envelope carries one; Unit is not an envelope itself, so the helpers
// stay off its method set.
func marshalUnitFlat(e *wire.Encoder, u *Unit) {
	e.Varint(u.ID)
	e.String(u.Algorithm)
	e.Bytes(u.Payload)
	e.Varint(u.Cost)
}

func unmarshalUnitFlat(d *wire.Decoder, u *Unit) {
	u.ID = d.Varint()
	u.Algorithm = d.String()
	u.Payload = d.Bytes()
	u.Cost = d.Varint()
}

// MarshalFlat implements wire.FlatMarshaler.
func (r TaskReply) MarshalFlat(e *wire.Encoder) {
	e.Bool(r.HasTask)
	e.String(r.ProblemID)
	marshalUnitFlat(e, &r.Unit)
	e.String(r.BulkKey)
	e.Varint(r.WaitHintNs)
	e.Varint(r.Epoch)
	e.String(r.SharedDigest)
	e.Varint(r.Priority)
	e.Bool(r.Verify)
	e.Uvarint(uint64(len(r.Batch)))
	for i := range r.Batch {
		r.Batch[i].marshalFlat(e)
	}
}

// UnmarshalFlat implements wire.FlatUnmarshaler.
func (r *TaskReply) UnmarshalFlat(d *wire.Decoder) {
	r.HasTask = d.Bool()
	r.ProblemID = d.String()
	unmarshalUnitFlat(d, &r.Unit)
	r.BulkKey = d.String()
	r.WaitHintNs = d.Varint()
	r.Epoch = d.Varint()
	r.SharedDigest = d.String()
	r.Priority = d.Varint()
	r.Verify = d.Bool()
	n := d.Uvarint()
	if d.Err() != nil || n == 0 {
		return
	}
	r.Batch = make([]BatchTask, 0, min(int(n), 1024))
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		var bt BatchTask
		bt.unmarshalFlat(d)
		r.Batch = append(r.Batch, bt)
	}
}

func (t *BatchTask) marshalFlat(e *wire.Encoder) {
	e.String(t.ProblemID)
	marshalUnitFlat(e, &t.Unit)
	e.String(t.BulkKey)
	e.Varint(t.Epoch)
	e.String(t.SharedDigest)
	e.Varint(t.Priority)
	e.Bool(t.Verify)
}

func (t *BatchTask) unmarshalFlat(d *wire.Decoder) {
	t.ProblemID = d.String()
	unmarshalUnitFlat(d, &t.Unit)
	t.BulkKey = d.String()
	t.Epoch = d.Varint()
	t.SharedDigest = d.String()
	t.Priority = d.Varint()
	t.Verify = d.Bool()
}

// MarshalFlat implements wire.FlatMarshaler.
func (a ResultArgs) MarshalFlat(e *wire.Encoder) {
	e.String(a.Donor)
	e.String(a.ProblemID)
	e.Varint(a.UnitID)
	e.Bytes(a.Payload)
	e.Varint(a.ElapsedNs)
	e.Varint(a.Epoch)
}

// UnmarshalFlat implements wire.FlatUnmarshaler.
func (a *ResultArgs) UnmarshalFlat(d *wire.Decoder) {
	a.Donor = d.String()
	a.ProblemID = d.String()
	a.UnitID = d.Varint()
	a.Payload = d.Bytes()
	a.ElapsedNs = d.Varint()
	a.Epoch = d.Varint()
}

// MarshalFlat implements wire.FlatMarshaler.
func (a failureArgs) MarshalFlat(e *wire.Encoder) {
	e.String(a.Donor)
	e.String(a.ProblemID)
	e.Varint(a.UnitID)
	e.String(a.Reason)
	e.Bool(a.Transport)
	e.Varint(a.Epoch)
}

// UnmarshalFlat implements wire.FlatUnmarshaler.
func (a *failureArgs) UnmarshalFlat(d *wire.Decoder) {
	a.Donor = d.String()
	a.ProblemID = d.String()
	a.UnitID = d.Varint()
	a.Reason = d.String()
	a.Transport = d.Bool()
	a.Epoch = d.Varint()
}

// MarshalFlat implements wire.FlatMarshaler.
func (r cancelReply) MarshalFlat(e *wire.Encoder) {
	e.Uvarint(uint64(len(r.Notices)))
	for i := range r.Notices {
		n := &r.Notices[i]
		e.String(n.ProblemID)
		e.Varint(n.Epoch)
		e.Varint(n.UnitID)
	}
}

// UnmarshalFlat implements wire.FlatUnmarshaler.
func (r *cancelReply) UnmarshalFlat(d *wire.Decoder) {
	n := d.Uvarint()
	if d.Err() != nil || n == 0 {
		return
	}
	r.Notices = make([]CancelNotice, 0, min(int(n), 1024))
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		r.Notices = append(r.Notices, CancelNotice{
			ProblemID: d.String(),
			Epoch:     d.Varint(),
			UnitID:    d.Varint(),
		})
	}
}

// MarshalFlat implements wire.FlatMarshaler.
func (r handshakeReply) MarshalFlat(e *wire.Encoder) { e.String(r.BulkAddr) }

// UnmarshalFlat implements wire.FlatUnmarshaler.
func (r *handshakeReply) UnmarshalFlat(d *wire.Decoder) { r.BulkAddr = d.String() }
