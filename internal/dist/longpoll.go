package dist

import (
	"context"
	"time"

	"repro/internal/wire"
)

// TaskWaiter is the single-unit form of TaskBatchWaiter: WaitTask parks
// until a unit is dispatchable for the donor (or maxWait passes). *Server
// implements it directly and *RPCClient over the WaitTask verb; the donor
// loop itself parks through WaitTasks.
type TaskWaiter interface {
	// WaitTask is RequestTask with server-side parking. maxWait is an upper
	// bound on the park; ≤ 0 leaves it to the coordinator (a *Server parks
	// for longPoll). A nil task means the park deadline elapsed with
	// nothing to hand out — re-park immediately. The Duration result is
	// always zero.
	WaitTask(ctx context.Context, donor string, maxWait time.Duration) (t *Task, wait time.Duration, err error)
}

var _ TaskWaiter = (*Server)(nil)

// TaskBatchWaiter is the donor's one dispatch call: a long-poll that may
// hand the donor several units, amortizing one frame and one park wakeup
// across the batch. Every unit is leased and epoch-tagged individually —
// batching changes transport granularity, never lease accounting. *Server
// implements it directly (which is how in-process donors batch);
// *RPCClient implements it over the batched WaitTask verb.
type TaskBatchWaiter interface {
	// WaitTasks is WaitTask returning a batch of units: the first obtained
	// by parking exactly like WaitTask, the rest by immediate re-scans
	// that stop as soon as nothing more is dispatchable. The coordinator
	// sizes the batch (a *Server from the donor's measured unit time);
	// maxWait and max are upper bounds, and ≤ 0 leaves the choice to the
	// coordinator. An empty slice means the park expired; the Duration
	// result is always zero.
	WaitTasks(ctx context.Context, donor string, maxWait time.Duration, max int) (tasks []*Task, wait time.Duration, err error)
}

// batchByteBudget caps the bytes of units one batch may carry, so batching
// many small units never snowballs into a frame-sized reply.
const batchByteBudget = 1 << 20

// taskEnvelope bounds what a dispatch reply spends on one unit beside the
// bytes of its strings and payload: the entry's varints, bools and length
// prefixes (10 bytes at most each), with room for the reply's and the
// control frame's own headers.
const taskEnvelope = 128

// maxTaskBytes is the largest unit a dispatch reply carries. A batch stops
// at the first unit that spends batchByteBudget, so the units before the
// last hold less than the budget, and a last unit of at most this size
// keeps every reply inside one wire frame. A larger unit fails its
// problem when it is cut (Server.tryDispatch).
const maxTaskBytes = wire.MaxFrameSize - batchByteBudget

// taskBytes is what one unit of problemID adds to a dispatch reply, at
// most.
func taskBytes(problemID, sharedDigest string, u *Unit) int {
	return len(problemID) + len(sharedDigest) + len(u.Algorithm) + len(u.Payload) + taskEnvelope
}

// WaitTasks implements TaskBatchWaiter. The park semantics are WaitTask's;
// once a first unit arrives, up to batchLimit-1 extras are collected with
// non-parking dispatch scans. Extras stop early when the scan comes up
// empty (leave the rest for other donors' parks), when the byte budget is
// spent, or on error (whatever was already leased is returned — the donor
// computes it; its leases are live either way).
func (s *Server) WaitTasks(ctx context.Context, donor string, maxWait time.Duration, max int) ([]*Task, time.Duration, error) {
	task, _, err := s.WaitTask(ctx, donor, maxWait)
	if err != nil || task == nil {
		return nil, 0, err
	}
	limit := s.batchLimit(donor, max)
	var tasks []*Task
	size := 0
	for {
		tasks = append(tasks, task)
		size += taskBytes(task.ProblemID, task.SharedDigest, &task.Unit)
		if len(tasks) >= limit || size >= batchByteBudget {
			break
		}
		if task, _, err = s.RequestTask(ctx, donor); err != nil || task == nil {
			break
		}
	}
	return tasks, 0, nil
}

// dispatchBatch caps how many units one WaitTasks reply carries; below the
// cap batchLimit sizes each batch from the donor's measured unit time.
const dispatchBatch = 8

// longPoll caps how long one WaitTask call stays parked server-side before
// replying "no task"; the donor re-parks at once, so the cap only bounds
// how long a single call is outstanding.
const longPoll = 45 * time.Second

// batchLatencyTarget bounds the compute time a batch queues behind its
// first unit: small enough that a batch tail never meaningfully delays
// redistribution to an idle donor, large enough to amortize many control
// round trips when units are tiny.
const batchLatencyTarget = 10 * time.Millisecond

// batchLimit sizes one WaitTasks batch for donor. Batching trades load
// balance for fewer control round trips, and that trade only pays when
// units are so small that the round trip dominates: a donor hoarding eight
// 50ms units serializes 400ms of work an idle neighbour could have shared.
// The batch tail is therefore bounded to ~batchLatencyTarget at the donor's
// measured unit time, and capped by dispatchBatch and by the caller's
// requested maximum when that is ≥ 1. A donor with no measurement yet gets
// one unit — the conservative start costs one round trip and keeps a fresh
// fleet from carving an evenly divisible workload into lumpy batches.
func (s *Server) batchLimit(donor string, requested int) int {
	var unitTime time.Duration
	if ds := s.peekDonor(donor); ds != nil {
		ds.mu.Lock()
		unitTime = ds.unitTime
		ds.mu.Unlock()
	}
	if unitTime <= 0 {
		return 1
	}
	limit := min(dispatchBatch, 1+int(batchLatencyTarget/unitTime))
	if requested >= 1 {
		limit = min(limit, requested)
	}
	return max(limit, 1)
}

// parkChan returns the current park broadcast channel. Callers must grab
// it BEFORE scanning for dispatchable work: a wake that fires between the
// grab and the scan closes the grabbed channel, so the subsequent park
// returns immediately instead of missing the event.
func (s *Server) parkChan() <-chan struct{} {
	s.parkMu.Lock()
	defer s.parkMu.Unlock()
	return s.parkCh
}

// wakeParked wakes every parked WaitTask call by closing and replacing the
// broadcast channel. Deliberately a broadcast, not a single hand-off: one
// event can make many units dispatchable (a Submit, a mass lease expiry),
// and a spurious wake only costs a parked donor one dispatch scan before
// it re-parks. Safe under any lock that permits leaf acquisition (see the
// Server lock order); never blocks.
func (s *Server) wakeParked() {
	s.parkMu.Lock()
	close(s.parkCh)
	s.parkCh = make(chan struct{})
	s.parkMu.Unlock()
}

// WaitTask implements TaskWaiter: the long-poll dispatch path. It runs the
// same dispatch scan as RequestTask, but instead of handing an empty reply
// back to a donor that would sleep and ask again, it parks until a wake
// source fires — a Submit, a failure or lease-expiry requeue, or a
// folded result on a problem some scan starved on (stage barriers release
// new units on a fold) — and rescans. The park lasts longPoll, or maxWait
// if the caller sets a shorter positive bound, after which a nil task tells
// the donor to re-park immediately; the bound only limits how long one call
// stays outstanding.
func (s *Server) WaitTask(ctx context.Context, donor string, maxWait time.Duration) (*Task, time.Duration, error) {
	limit := longPoll
	if maxWait > 0 && maxWait < limit {
		limit = maxWait
	}
	deadline := time.NewTimer(limit)
	defer deadline.Stop()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	// A parked donor makes no coordinator calls, but donor-liveness
	// bookkeeping (liveDonors feeding policy budgets, arbitrating reissues
	// and judging whether a quorum's tie-breaker can still arrive) presumes anyone alive has been seen within one
	// Lease. The park is therefore sliced at half the lease: each slice
	// expiry loops back through the dispatch scan, whose touchDonor stamps
	// lastSeen, without ending the caller-visible park. With the default
	// Lease (2m) ≥ longPoll (45s) the slice never fires; it only matters
	// when the operator shortens the lease below the park.
	refresh := s.opts.Lease / 2
	for {
		ch := s.parkChan() // before the scan, or a wake in between is lost
		task, _, err := s.RequestTask(ctx, donor)
		if err != nil || task != nil {
			return task, 0, err
		}
		slice := time.NewTimer(refresh)
		select {
		case <-ch:
			// Something may have become dispatchable; rescan. The deadline
			// keeps running: wakes extend the park's work, not its life.
			slice.Stop()
		case <-slice.C:
			// Liveness refresh: rescan (and re-stamp lastSeen), keep
			// parking against the same deadline.
		case <-deadline.C:
			slice.Stop()
			return nil, 0, nil
		case <-done:
			slice.Stop()
			return nil, 0, ctx.Err()
		case <-s.stop:
			slice.Stop()
			return nil, 0, ErrClosed
		}
	}
}
