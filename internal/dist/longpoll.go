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
	// WaitTask is RequestTask with server-side parking. A nil task with a
	// zero wait hint means the park deadline elapsed with nothing to hand
	// out — re-park immediately; a nil task with a positive hint means the
	// implementation did not park and the caller should sleep the hint
	// like a poller.
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
	// WaitTasks is WaitTask returning up to max units: the first obtained
	// by parking exactly like WaitTask, the rest by immediate re-scans
	// that stop as soon as nothing more is dispatchable. A nil/empty slice
	// follows WaitTask's nil-task conventions for the wait hint.
	WaitTasks(ctx context.Context, donor string, maxWait time.Duration, max int) (tasks []*Task, wait time.Duration, err error)
}

var _ TaskBatchWaiter = (*Server)(nil)

// batchByteBudget caps the cumulative inline payload bytes one batch may
// carry, so batching many "small" units never snowballs into a frame-sized
// reply. Offloaded (bulk-channel) payloads don't count against it — the
// reply holds only their keys.
const batchByteBudget = 1 << 20

// WaitTasks implements TaskBatchWaiter. The park semantics are WaitTask's;
// once a first unit arrives, up to limit-1 extras are collected with
// non-parking dispatch scans. Extras stop early when the scan comes up
// empty (leave the rest for other donors' parks), when the inline byte
// budget is spent, or on error (whatever was already leased is returned —
// the donor computes it; its leases are live either way).
func (s *Server) WaitTasks(ctx context.Context, donor string, maxWait time.Duration, max int) ([]*Task, time.Duration, error) {
	limit := s.batchLimit(max)
	task, wait, err := s.WaitTask(ctx, donor, maxWait)
	if err != nil || task == nil {
		return nil, wait, err
	}
	tasks := []*Task{task}
	inline := len(task.Unit.Payload)
	for len(tasks) < limit && inline < batchByteBudget {
		extra, _, err := s.RequestTask(ctx, donor)
		if err != nil || extra == nil {
			break
		}
		tasks = append(tasks, extra)
		if !s.offloads(extra.Unit.Payload) {
			inline += len(extra.Unit.Payload)
		}
	}
	return tasks, wait, nil
}

// batchLimit clamps a donor's requested batch size to the server's
// DispatchBatch cap (always at least one unit).
func (s *Server) batchLimit(requested int) int {
	limit := s.opts.DispatchBatch
	if limit < 1 {
		limit = 1
	}
	if requested >= 1 && requested < limit {
		limit = requested
	}
	return limit
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
// new units on a fold) — and rescans. The park is bounded by the smaller of
// maxWait (donor-requested; <=0 means no preference) and
// ServerOptions.LongPoll, after which a nil task with a zero hint tells
// the donor to re-park immediately; the bound only limits how long one
// call stays outstanding.
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
