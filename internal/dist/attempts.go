package dist

// The server's side of the unit lifecycle: the coordinator calls that feed
// a problem's unitTable (units.go) — results, failure reports, the lease
// sweep — and Server.unlock, the one place the effects its transitions owe
// are applied.

import (
	"context"
	"errors"
	"time"
)

// maxPendingCancels bounds one donor's queued cancel notices; a donor that
// never drains loses the oldest notices, which only costs it some wasted
// compute on doomed units.
const maxPendingCancels = 256

// unlock applies what the problem's critical section owes and releases
// ps.mu. Journal records, Watch events, cancel notices and the problem's end
// are applied first, in the order the table owed them, so the journal's
// order is the transitions' order. Waking parked donors, bringing the lease
// sweep forward to the table's alarm and trust outcomes wait until the lock
// drops — donor locks are leaves, and enacting a
// quarantine walks every problem. Every critical section that can change
// the table ends here.
//
//dist:locked mu
func (s *Server) unlock(ps *problemState) {
	t := &ps.table
	var deltas []trustDelta
	for i := range t.fx {
		e := &t.fx[i]
		switch e.kind {
		case fxGrant, fxReplica, fxFold:
			if ps.durable {
				// Journal records are buffered writes before the ack; the
				// group commit makes them durable within one sync interval.
				// A crash inside that window loses the interval's tail, so
				// replay rebuilds the table as it stood a moment earlier and
				// the fleet recomputes the difference. An I/O error here
				// sticks in the store and surfaces at the next checkpoint or
				// Close; the transition itself stands — durability degrades
				// rather than aborting a healthy run.
				_ = s.journal.Append(e.record(ps.id, ps.epoch))
			}
		case fxEvent:
			s.publishEffectLocked(ps, e)
		case fxCancel:
			s.queueCancel(e.donor, CancelNotice{ProblemID: ps.id, Epoch: ps.epoch, UnitID: e.uid})
		case fxTrust:
			deltas = append(deltas, trustDelta{donor: e.donor, outcome: e.outcome})
		case fxEnd:
			s.endLocked(ps, e.err)
		}
	}
	clear(t.fx)
	t.fx = t.fx[:0]
	wake, alarm := t.wake, t.alarm
	t.wake, t.alarm = false, time.Time{}
	ps.mu.Unlock()
	if wake {
		s.wakeParked()
	}
	if !alarm.IsZero() {
		s.sweepBy(alarm, false)
	}
	s.applyTrustDeltas(deltas)
	if ps.durable {
		s.checkpointIfDue()
	}
}

// queueCancel queues one cancel notice for a donor; cancelMu is a leaf
// below ps.mu.
func (s *Server) queueCancel(donor string, n CancelNotice) {
	s.cancelMu.Lock()
	defer s.cancelMu.Unlock()
	q := append(s.cancels[donor], n)
	if len(q) > maxPendingCancels {
		q = q[len(q)-maxPendingCancels:]
	}
	s.cancels[donor] = q
}

// SubmitResult implements Coordinator: fold one completed unit and feed the
// donor's measured cost/elapsed back into its scheduling statistics.
func (s *Server) SubmitResult(ctx context.Context, res *Result) error {
	_, err := s.submitResult(ctx, res)
	return err
}

// submitResult additionally reports whether the result was accepted —
// folded or held — rather than dropped (a straggler whose unit already
// completed elsewhere or whose problem is done, a quarantined donor).
func (s *Server) submitResult(ctx context.Context, res *Result) (accepted bool, err error) {
	if err := ctxErr(ctx); err != nil {
		return false, err
	}
	if res == nil {
		return false, errors.New("dist: SubmitResult with nil result")
	}
	if s.isClosed() {
		return false, ErrClosed
	}
	now := s.opts.Clock.Now()
	ds := s.touchDonor(res.Donor, now)
	donorTrusted, quarantined := s.standing(ds)
	if quarantined {
		// Results from quarantined donors are rejected outright; their
		// revoked leases were already dropped with failure kind verify.
		return false, nil
	}
	ps, lerr := s.lookup(res.ProblemID)
	if lerr != nil {
		return false, nil // problem finished (or was forgotten) while the unit was out
	}
	ps.mu.Lock()
	unit, accepted := ps.table.offer(res, donorTrusted, now, s)
	s.unlock(ps)
	if accepted && unit != nil {
		// Scheduler feedback happens outside the problem lock: stats are
		// per-donor state, not per-problem state.
		s.feedThroughput(ds, unit.Cost, res.Elapsed)
	}
	return accepted, nil
}

// ReportFailure implements Coordinator: attribute the failure to the donor
// and requeue the unit for another donor. The epoch goes unchecked on this
// untagged path; in-process and RPC donors use reportFailure.
func (s *Server) ReportFailure(ctx context.Context, donor, problemID string, unitID int64, reason string) error {
	return s.reportFailure(ctx, donor, problemID, unitID, reason, failCompute, 0)
}

// reportFailure implements failureReporter: it drops the reporting donor's
// lease on a failed unit. kind is failTransport for failures to *fetch*
// the shared data: those say nothing about the unit itself and
// must not feed the poisoned-unit caps — half a fleet with a firewalled
// bulk port would otherwise fail the whole problem while healthy donors
// remain. A non-zero epoch that does not match the problem's incarnation
// marks a straggler report from a forgotten predecessor of a reused ID:
// dropped, like its submitResult counterpart, so it cannot revoke a live
// lease of the successor when donor names collide.
//
// The donor's liveness (lastSeen) is only touched AFTER the report
// validates against a live lease held by this donor under the current
// epoch: a report for a never-leased unit, a stale epoch, or someone
// else's lease says nothing about this donor. (Results from stragglers are
// accepted; their failure reports must not revoke another donor's lease.)
func (s *Server) reportFailure(ctx context.Context, donor, problemID string, unitID int64, reason string, kind failureKind, epoch int64) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if s.isClosed() {
		return ErrClosed
	}
	if _, quarantined := s.standing(s.peekDonor(donor)); quarantined {
		return nil // quarantined donors' reports are rejected like their results
	}
	ps, lerr := s.lookup(problemID)
	if lerr != nil {
		return nil // problem finished or forgotten; nothing to requeue
	}
	now := s.opts.Clock.Now()
	ps.mu.Lock()
	held := ps.table.lose(unitID, donor, reason, kind, epoch, now, s)
	s.unlock(ps)
	if held {
		s.touchDonor(donor, now)
	}
	return nil
}

// CancelNotices implements CancelNotifier: drain and return the donor's
// pending epoch-tagged cancel notices. Donors poll this while computing a
// unit and abort when a notice matches the unit's problem incarnation.
func (s *Server) CancelNotices(ctx context.Context, donor string) ([]CancelNotice, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if s.isClosed() {
		return nil, ErrClosed
	}
	s.cancelMu.Lock()
	notices := s.cancels[donor]
	delete(s.cancels, donor)
	s.cancelMu.Unlock()
	return notices, nil
}

// sweepNow is the lease sweep, run by the Clock's timer: it reissues units
// whose lease has lapsed — the fault-tolerance path that lets the run
// survive donors being powered off — and wakes parked donors for stragglers
// due a speculative copy. It schedules itself: each pass arms the next
// Lease/4 ahead, and the tables bring it forward to the earliest instant
// they report (their alarms, which a grant between passes also raises).
// After Close it does nothing, and Close waits for a pass already running.
func (s *Server) sweepNow() {
	s.sweepMu.Lock()
	if s.sweep == nil {
		s.sweepMu.Unlock()
		return // closed
	}
	s.wg.Add(1)
	s.sweepMu.Unlock()
	defer s.wg.Done()
	now := s.opts.Clock.Now()
	s.sweepBy(now.Add(s.opts.Lease/4), true)
	s.expireLeases(now)
}

// sweepBy brings the next lease sweep forward to at, if it is due later;
// rearm sets it at at regardless, as the pass that just fired does.
func (s *Server) sweepBy(at time.Time, rearm bool) {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	if rearm || at.Before(s.sweepAt) {
		s.sweepAt = at
		if s.sweep != nil {
			s.sweep.Reset(at.Sub(s.opts.Clock.Now()))
		}
	}
}

// expireLeases drops every lease whose deadline passed, re-evaluates held
// quorums whose tie-breaker may have stopped being possible, and prunes
// donors gone long enough that their scheduling statistics are worthless,
// so the donor map stays bounded on a long-lived server.
func (s *Server) expireLeases(now time.Time) {
	if s.isClosed() {
		return
	}
	s.pruneDonors(now)
	for _, ps := range s.allProblems() {
		ps.mu.Lock()
		ps.table.expire(now, s)
		s.unlock(ps)
	}
}
