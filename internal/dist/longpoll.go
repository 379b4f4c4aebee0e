package dist

import (
	"context"
	"time"
)

// TaskWaiter is implemented by coordinators that support long-poll
// dispatch: WaitTask parks until a unit is dispatchable for the donor (or
// maxWait passes) instead of returning "nothing yet" with a poll hint.
// *Server implements it directly and *RPCClient over the WaitTask verb; a
// foreign Coordinator without it is polled through RequestTask.
type TaskWaiter interface {
	// WaitTask is RequestTask with server-side parking. maxWait is an upper
	// bound on the park; ≤ 0 leaves it to the coordinator (a *Server parks
	// for ServerOptions.LongPoll). A nil task with a zero wait hint means
	// the park deadline elapsed with nothing to hand out — re-park
	// immediately; a nil task with a positive hint means the implementation
	// did not park and the caller should sleep the hint like a poller.
	WaitTask(ctx context.Context, donor string, maxWait time.Duration) (t *Task, wait time.Duration, err error)
}

var _ TaskWaiter = (*Server)(nil)

// TaskBatchWaiter is implemented by coordinators that can hand a donor
// several units per long-poll, amortizing one frame and one park wakeup
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
	// coordinator. A nil/empty slice follows WaitTask's nil-task
	// conventions for the wait hint.
	WaitTasks(ctx context.Context, donor string, maxWait time.Duration, max int) (tasks []*Task, wait time.Duration, err error)
}

var _ TaskBatchWaiter = (*Server)(nil)

// batchByteBudget caps the cumulative inline payload bytes one batch may
// carry, so batching many "small" units never snowballs into a frame-sized
// reply. Offloaded (bulk-channel) payloads don't count against it — the
// reply holds only their keys.
const batchByteBudget = 1 << 20

// WaitTasks implements TaskBatchWaiter. The park semantics are WaitTask's;
// once a first unit arrives, up to batchLimit-1 extras are collected with
// non-parking dispatch scans. Extras stop early when the scan comes up
// empty (leave the rest for other donors' parks), when the inline byte
// budget is spent, or on error (whatever was already leased is returned —
// the donor computes it; its leases are live either way).
func (s *Server) WaitTasks(ctx context.Context, donor string, maxWait time.Duration, max int) ([]*Task, time.Duration, error) {
	task, wait, err := s.WaitTask(ctx, donor, maxWait)
	if err != nil || task == nil {
		return nil, wait, err
	}
	limit := s.batchLimit(donor, max)
	var tasks []*Task
	inline := 0
	for {
		tasks = append(tasks, task)
		if !s.offloads(task.Unit.Payload) {
			inline += len(task.Unit.Payload)
		}
		if len(tasks) >= limit || inline >= batchByteBudget {
			break
		}
		if task, _, err = s.RequestTask(ctx, donor); err != nil || task == nil {
			break
		}
	}
	return tasks, wait, nil
}

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
// measured unit time, and capped by DispatchBatch and by the caller's
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
	limit := min(s.opts.DispatchBatch, 1+int(batchLatencyTarget/unitTime))
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
// new units on a fold) — and rescans. The park lasts ServerOptions.LongPoll,
// or maxWait if the caller sets a shorter positive bound, after which a nil
// task with a zero hint tells the donor to re-park immediately; the bound
// only limits how long one call stays outstanding.
func (s *Server) WaitTask(ctx context.Context, donor string, maxWait time.Duration) (*Task, time.Duration, error) {
	limit := s.opts.LongPoll
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
	// bookkeeping (liveDonorCount feeding policy budgets and arbitrating
	// reissues, liveDonorExcept judging whether a quorum's tie-breaker can
	// still arrive) presumes anyone alive has been seen within one
	// Lease. The park is therefore sliced at half the lease: each slice
	// expiry loops back through the dispatch scan, whose touchDonor stamps
	// lastSeen, without ending the caller-visible park. With the default
	// Lease (2m) ≥ LongPoll (45s) the slice never fires; it only matters
	// when the operator shortens the lease below the park.
	refresh := s.opts.Lease / 2
	for {
		ch := s.parkChan() // before the scan, or a wake in between is lost
		task, wait, err := s.RequestTask(ctx, donor)
		if err != nil || task != nil {
			return task, wait, err
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
