package main

import (
	"bytes"
	"context"
	"io"
	"sync"
	"time"

	"repro/internal/dist"
)

// Tracing lives entirely in this directory: spans are recorded around calls
// through the program's public seams (the donor's Coordinator, the donor's
// algorithm wrapper, the problem's DataManager), never inside the program.
// Server.Watch is deliberately not one of them: subscribing slowed drain.tiny
// by a further 40% (three events a unit published under the problem lock,
// and a consumer goroutine competing for two cores), and the one number it
// was wanted for, a unit's turnaround, can be read off the donor's spans. A span's parent is the span that caused it, which for a unit
// is the coordinator call that delivered it:
//
//	dist.wait_tasks            one RequestTask/WaitTask/WaitTasks call; units = the IDs it delivered
//	├─ wire.bulk_fetch         SharedData/FetchContent before a donor's first unit of a problem
//	├─ alg.init                Algorithm.Init, once per donor and problem
//	└─ alg.process             Algorithm.ProcessCtx of one delivered unit
//	   └─ dist.submit          SubmitResult of that unit
//	dm.next_unit, dm.consume, dm.final   DataManager calls, made by the server under the problem lock
//
// Server-side spans have no parent: the link between a dm.consume and the
// dist.submit that caused it crosses the wire, and spans inside the program
// are a later change.

// span is one recorded interval. Times are nanoseconds since the round's
// clock started, so a donor already parked in a long-poll when the problem
// is submitted has a dist.wait_tasks span that starts below zero.
type span struct {
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Parent int     `json:"parent"` // index into the round's span list, -1 for none
	Unit   int64   `json:"unit,omitempty"`
	Units  []int64 `json:"units,omitempty"` // dist.wait_tasks only: the unit IDs delivered
	Donor  string  `json:"donor,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder collects one round's spans in memory.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// add records a finished span and returns its index.
func (r *recorder) add(s span) int {
	s.End = r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// delivered is a unit a coordinator call handed the donor and the donor has
// not started computing yet.
type delivered struct {
	unit    int64
	payload []byte
	wait    int // index of the dist.wait_tasks span that delivered it
}

// tracedCoord wraps one donor's *dist.RPCClient. It forwards every optional
// interface the donor loop probes for, so a traced donor takes the same code
// paths as an untraced one. Everything but CancelNotices runs on the donor's
// Run goroutine, so the delivery queue needs no lock.
type tracedCoord struct {
	inner *dist.RPCClient
	rec   *recorder
	donor string

	pending []delivered
	cur     delivered // the unit being computed
	curProc int       // its alg.process span
}

var (
	_ dist.Coordinator     = (*tracedCoord)(nil)
	_ dist.TaskWaiter      = (*tracedCoord)(nil)
	_ dist.TaskBatchWaiter = (*tracedCoord)(nil)
	_ dist.ContentFetcher  = (*tracedCoord)(nil)
	_ dist.CancelNotifier  = (*tracedCoord)(nil)
	_ io.Closer            = (*tracedCoord)(nil)
)

func (c *tracedCoord) delivered(start int64, tasks []*dist.Task) {
	s := span{Name: "dist.wait_tasks", Start: start, Parent: -1, Donor: c.donor}
	for _, t := range tasks {
		s.Units = append(s.Units, t.Unit.ID)
	}
	idx := c.rec.add(s)
	for _, t := range tasks {
		c.pending = append(c.pending, delivered{unit: t.Unit.ID, payload: t.Unit.Payload, wait: idx})
	}
}

func oneTask(t *dist.Task) []*dist.Task {
	if t == nil {
		return nil
	}
	return []*dist.Task{t}
}

func (c *tracedCoord) RequestTask(ctx context.Context, donor string) (*dist.Task, time.Duration, error) {
	start := c.rec.now()
	t, wait, err := c.inner.RequestTask(ctx, donor)
	c.delivered(start, oneTask(t))
	return t, wait, err
}

func (c *tracedCoord) WaitTask(ctx context.Context, donor string, maxWait time.Duration) (*dist.Task, time.Duration, error) {
	start := c.rec.now()
	t, wait, err := c.inner.WaitTask(ctx, donor, maxWait)
	c.delivered(start, oneTask(t))
	return t, wait, err
}

func (c *tracedCoord) WaitTasks(ctx context.Context, donor string, maxWait time.Duration, max int) ([]*dist.Task, time.Duration, error) {
	start := c.rec.now()
	tasks, wait, err := c.inner.WaitTasks(ctx, donor, maxWait, max)
	c.delivered(start, tasks)
	return tasks, wait, err
}

// next is the parent for spans the donor opens before computing its next
// unit (the shared-blob fetch and Init): the call that delivered that unit.
func (c *tracedCoord) next() int {
	if len(c.pending) == 0 {
		return -1
	}
	return c.pending[0].wait
}

func (c *tracedCoord) SharedData(ctx context.Context, problemID string) ([]byte, error) {
	return c.fetch(func() ([]byte, error) { return c.inner.SharedData(ctx, problemID) })
}

func (c *tracedCoord) FetchContent(ctx context.Context, problemID, digest string) ([]byte, error) {
	return c.fetch(func() ([]byte, error) { return c.inner.FetchContent(ctx, problemID, digest) })
}

func (c *tracedCoord) fetch(fetch func() ([]byte, error)) ([]byte, error) {
	s := span{Name: "wire.bulk_fetch", Start: c.rec.now(), Parent: c.next(), Donor: c.donor}
	b, err := fetch()
	c.rec.add(s)
	return b, err
}

func (c *tracedCoord) SubmitResult(ctx context.Context, res *dist.Result) error {
	s := span{Name: "dist.submit", Start: c.rec.now(), Parent: -1, Unit: res.UnitID, Donor: c.donor}
	if res.UnitID == c.cur.unit {
		s.Parent = c.curProc
	}
	err := c.inner.SubmitResult(ctx, res)
	c.rec.add(s)
	return err
}

func (c *tracedCoord) ReportFailure(ctx context.Context, donor, problemID string, unitID int64, reason string) error {
	return c.inner.ReportFailure(ctx, donor, problemID, unitID, reason)
}

func (c *tracedCoord) CancelNotices(ctx context.Context, donor string) ([]dist.CancelNotice, error) {
	return c.inner.CancelNotices(ctx, donor)
}

func (c *tracedCoord) Close() error { return c.inner.Close() }

// tracedAlg wraps the algorithm instance a donor creates
// (dist.WithAlgorithmWrapper). ProcessCtx receives only the payload, so the
// unit it belongs to is found in the donor's delivery queue: the donor
// computes a batch in delivery order and hands ProcessCtx the very slice the
// coordinator returned.
type tracedAlg struct {
	inner dist.Algorithm
	c     *tracedCoord
}

func (a *tracedAlg) Init(shared []byte) error {
	s := span{Name: "alg.init", Start: a.c.rec.now(), Parent: a.c.next(), Donor: a.c.donor}
	err := a.inner.Init(shared)
	a.c.rec.add(s)
	return err
}

func (a *tracedAlg) ProcessCtx(ctx context.Context, payload []byte) ([]byte, error) {
	c := a.c
	c.cur = delivered{wait: -1}
	for i, d := range c.pending {
		if len(d.payload) == len(payload) && (len(payload) == 0 || &d.payload[0] == &payload[0]) {
			c.cur = d
			c.pending = c.pending[i+1:] // earlier entries were dropped uncomputed (cancelled)
			break
		}
	}
	s := span{Name: "alg.process", Start: c.rec.now(), Parent: c.cur.wait, Unit: c.cur.unit, Donor: c.donor}
	out, err := a.inner.ProcessCtx(ctx, payload)
	c.curProc = c.rec.add(s)
	return out, err
}

// tracedDM wraps a problem's DataManager. The server calls a DataManager
// under the owning problem's lock, so these spans are time spent holding it.
// The optional interfaces with a neutral answer (no estimate, no progress,
// not durable, byte equality) are always present and forward when the inner
// DataManager has them; Requeuer changes what the server does with a lost
// unit, so only traceDM's second type has it — the arrangement dist.AdaptDM
// uses for the same reason.
type tracedDM struct {
	inner dist.DataManager
	rec   *recorder
}

type tracedRequeueDM struct{ tracedDM }

var (
	_ dist.CostReporter    = (*tracedDM)(nil)
	_ dist.Progresser      = (*tracedDM)(nil)
	_ dist.DurableDM       = (*tracedDM)(nil)
	_ dist.ResultEquivaler = (*tracedDM)(nil)
	_ dist.Requeuer        = (*tracedRequeueDM)(nil)
)

func traceDM(dm dist.DataManager, rec *recorder) dist.DataManager {
	base := tracedDM{inner: dm, rec: rec}
	if _, ok := dm.(dist.Requeuer); ok {
		return &tracedRequeueDM{base}
	}
	return &base
}

func (d *tracedDM) NextUnit(budget int64) (*dist.Unit, bool, error) {
	s := span{Name: "dm.next_unit", Start: d.rec.now(), Parent: -1}
	u, ok, err := d.inner.NextUnit(budget)
	if u != nil {
		s.Unit = u.ID
	}
	d.rec.add(s)
	return u, ok, err
}

func (d *tracedDM) Consume(unitID int64, payload []byte) error {
	s := span{Name: "dm.consume", Start: d.rec.now(), Parent: -1, Unit: unitID}
	err := d.inner.Consume(unitID, payload)
	d.rec.add(s)
	return err
}

func (d *tracedDM) Done() bool { return d.inner.Done() }

func (d *tracedDM) FinalResult() ([]byte, error) {
	s := span{Name: "dm.final", Start: d.rec.now(), Parent: -1}
	out, err := d.inner.FinalResult()
	d.rec.add(s)
	return out, err
}

func (d *tracedDM) RemainingCost() int64 {
	if cr, ok := d.inner.(dist.CostReporter); ok {
		return cr.RemainingCost()
	}
	return 0
}

func (d *tracedDM) Progress() (done, total int) {
	if p, ok := d.inner.(dist.Progresser); ok {
		return p.Progress()
	}
	return 0, 0
}

func (d *tracedDM) DurableKind() string {
	if dd, ok := d.inner.(dist.DurableDM); ok {
		return dd.DurableKind()
	}
	return ""
}

func (d *tracedDM) MarshalState() ([]byte, error) {
	return d.inner.(dist.DurableDM).MarshalState() // only called when DurableKind is non-empty
}

func (d *tracedDM) EquivalentResults(unitID int64, a, b []byte) bool {
	if re, ok := d.inner.(dist.ResultEquivaler); ok {
		return re.EquivalentResults(unitID, a, b)
	}
	return bytes.Equal(a, b)
}

func (d *tracedRequeueDM) Requeue(unitID int64) { d.inner.(dist.Requeuer).Requeue(unitID) }

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if overlap := min(s.End, p.End) - max(s.Start, p.Start); overlap > 0 {
			self[s.Parent] -= overlap
		}
	}
	return self
}

// turnarounds returns, for every unit a donor computed, the milliseconds
// from the donor receiving it (the end of the dist.wait_tasks that delivered
// it) to the server's acknowledgement of its result (the end of its
// dist.submit): time queued behind the units it was batched with, compute,
// and the submit round trip.
func turnarounds(spans []span) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name != "dist.submit" || s.Parent < 0 {
			continue
		}
		if proc := spans[s.Parent]; proc.Parent >= 0 {
			out = append(out, float64(s.End-spans[proc.Parent].End)/1e6)
		}
	}
	return out
}
