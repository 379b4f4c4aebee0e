package dist

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/sched"
	"repro/internal/wire"
)

// throughputAlpha weights the newest cost/elapsed sample in the EWMA the
// scheduler sizes units from.
const throughputAlpha = 0.3

// RequestTask is one non-parking dispatch scan, the one WaitTask parks
// around: pick the next unit for a donor, round-robin across live
// problems, or return a nil task (the Duration is always zero). The
// rotation is snapshotted under the registry read lock; each candidate
// problem is then tried under its own lock. The first pass only TryLocks
// each shard — a problem whose DataManager is busy partitioning or folding
// under its lock is skipped rather than blocked on, so one slow problem
// never adds latency to a request that an idle problem could serve. Shards
// skipped as contended are retried with a blocking lock only if the fast
// pass found nothing.
func (s *Server) RequestTask(ctx context.Context, donor string) (*Task, time.Duration, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, 0, err
	}
	s.regMu.RLock()
	if s.closed {
		s.regMu.RUnlock()
		return nil, 0, ErrClosed
	}
	rotation := make([]*problemState, 0, len(s.order))
	for _, id := range s.order {
		if ps := s.problems[id]; ps != nil {
			rotation = append(rotation, ps)
		}
	}
	s.regMu.RUnlock()

	// One clock reading serves the whole request: the donor's last-seen
	// stamp, the liveness cutoff and the deadline of the lease it is granted.
	now := s.opts.Clock.Now()
	ds := s.touchDonor(donor, now)
	n := len(rotation)
	if n == 0 {
		return nil, 0, nil
	}
	view, quarantined := s.donorDispatchView(ds, now)
	if quarantined {
		// A quarantined donor gets no work at all, however long it keeps
		// polling (and long-polling).
		return nil, 0, nil
	}
	live := max(s.liveDonors(now, nil), 1) // the requester itself just polled

	// The visit order starts from the round-robin cursor (the fairness
	// tiebreak) and is then reordered by urgency: priority descending,
	// deadline, then fewest leases first. The lease rank is the
	// work-stealing rule — a starved problem outranks a hot one, so the hot
	// problem's surplus donors drain toward it. Keys are built from
	// immutable Submit-time fields plus an atomic lease counter; no problem
	// lock is taken for problems the scan never reaches.
	start := int(s.rr.Add(1) % uint64(n))
	keys := make([]sched.DispatchKey, n)
	for i, ps := range rotation {
		keys[i] = sched.DispatchKey{Priority: ps.priority, Deadline: ps.deadline, Inflight: ps.inflightN.Load(), Trust: view.trust}
	}
	scan := sched.ScanOrder(keys, start)
	var finished []*problemState
	var contended []*problemState
	for _, idx := range scan {
		ps := rotation[idx]
		task, done, tried := s.tryDispatch(ps, donor, view, live, false)
		if !tried {
			contended = append(contended, ps)
			continue
		}
		if done {
			finished = append(finished, ps)
		}
		if task != nil {
			s.pruneRotation(finished)
			return task, 0, nil
		}
	}
	// Slow pass: everything uncontended came up empty, so waiting on the
	// busy shards is now worth it (their DataManagers may be mid-partition
	// with units to give).
	for _, ps := range contended {
		task, done, _ := s.tryDispatch(ps, donor, view, live, true)
		if done {
			finished = append(finished, ps)
		}
		if task != nil {
			s.pruneRotation(finished)
			return task, 0, nil
		}
	}
	s.pruneRotation(finished)
	return nil, 0, nil
}

// tryDispatch attempts to hand one of ps's units to donor under ps's own
// lock — acquired blockingly when block is set, with TryLock otherwise
// (tried is false when the shard was skipped as contended). live is the
// liveDonors count sampled for this request. It returns the
// dispatched task (nil when the problem has nothing for this donor) and
// whether the problem is done — finished problems are pruned from the
// rotation by the caller.
func (s *Server) tryDispatch(ps *problemState, donor string, view dispatchView, live int, block bool) (task *Task, done, tried bool) {
	if block {
		ps.mu.Lock()
	} else if !ps.mu.TryLock() {
		return nil, false, false
	}
	defer s.unlock(ps)
	t := &ps.table
	if ps.done {
		return nil, true, true
	}
	// An untrusted donor with ProbationUnits of unresolved verification
	// backlog gets no new units — only replica service — until its
	// quorums resolve: every unit it takes must be replicated, so an
	// unbounded stream of them multiplies the problem by the quorum (and
	// hands a malicious donor free amplification).
	capped := view.probation && t.verifyBacklog(donor, s.opts.ProbationUnits)
	// An open set — a requeued unit, or a pending quorum wanting one more
	// replica — outranks fresh work: re-leasing it unblocks its fold.
	if task := t.reissue(donor, view, capped, live > 1); task != nil {
		return task, false, true
	}
	if capped {
		// Parked at the backlog cap: a resolving quorum must wake this
		// donor so it can claim fresh work again.
		return t.idle(donor, view, s), false, true
	}
	budget := s.opts.Policy.Budget(view.stats, remainingCost(ps.p.DM), live)
	budget = scaleBudgetByTrust(budget, view.trust)
	u, ok, err := ps.p.DM.NextUnit(budget)
	if err != nil {
		t.finish(fmt.Errorf("dist: problem %q: NextUnit: %w", ps.id, err))
		return nil, true, true
	}
	if !ok {
		if ps.p.DM.Done() {
			t.finish(nil)
			return nil, true, true
		}
		// Nothing fresh: a speculative copy of a straggler, or park.
		task := t.idle(donor, view, s)
		return task, t.done, true
	}
	if n := taskBytes(ps.id, ps.sharedDigest, u); n > maxTaskBytes {
		// No reply could carry it: fail the problem now rather than lease
		// a unit no donor can be sent.
		t.finish(fmt.Errorf("dist: problem %q: unit %d takes %d bytes of a dispatch reply, over the limit of %d (a %d-byte frame less the %d-byte batch budget)",
			ps.id, u.ID, n, maxTaskBytes, wire.MaxFrameSize, batchByteBudget))
		return nil, true, true
	}
	quorum := 1
	if s.verifyEnabled() && (view.probation || s.sampleVerifyLocked(ps)) {
		quorum = s.opts.VerifyQuorum
	}
	return t.cut(u, budget, quorum, donor, view), false, true
}

// pruneRotation removes finished problems from the dispatch order. Their
// states stay addressable for Wait/Status/Stats until Forget. Pointer
// identity is checked so a forgotten-and-resubmitted ID's fresh problem is
// never pruned by a stale reference to its predecessor.
func (s *Server) pruneRotation(finished []*problemState) {
	if len(finished) == 0 {
		return
	}
	s.regMu.Lock()
	defer s.regMu.Unlock()
	for _, ps := range finished {
		if cur := s.problems[ps.id]; cur != ps {
			continue
		}
		s.removeFromOrderLocked(ps.id)
	}
}

// feedThroughput feeds one completed unit's measured cost/elapsed into the
// donor's scheduling statistics, its unit-time EWMA and the fleet's
// throughput EWMA (which judges an unmeasured donor's leases for
// speculation, see unitTable.due). For the throughput
// Elapsed is floored at 1ms: a sub-millisecond (or bogus donor-reported)
// sample would otherwise make the EWMA throughput — and with it the next
// adaptive budget, which has no upper clamp by default — effectively
// infinite, serializing the whole problem onto one donor. The unit time
// ignores samples ≤ 0 instead: a batch is sized from it with an upper cap.
func (s *Server) feedThroughput(ds *donorState, cost int64, elapsed time.Duration) {
	rate := float64(cost) / max(elapsed.Seconds(), 1e-3)
	// Two results folding at once may lose one of their samples: harmless
	// to an estimate.
	s.fleetRate.Store(math.Float64bits(sched.EWMA(math.Float64frombits(s.fleetRate.Load()), rate, throughputAlpha)))
	ds.mu.Lock()
	ds.stats.Completed++
	ds.stats.Throughput = sched.EWMA(ds.stats.Throughput, rate, throughputAlpha)
	if elapsed > 0 {
		ds.unitTime = time.Duration(sched.EWMA(float64(ds.unitTime), float64(elapsed), throughputAlpha))
	}
	ds.mu.Unlock()
}

// throughput implements fleet: the fleet's throughput EWMA.
func (s *Server) throughput() float64 { return math.Float64frombits(s.fleetRate.Load()) }

// liveDonors counts the donors that can be handed work — seen within the
// last lease interval before now and not quarantined — skipping those skip
// (if non-nil) names: the pool size scheduling policies divide remaining
// work by, and the quorum rule's "can a tie-breaker still arrive". Counting
// every donor ever seen would permanently shrink GSS/factoring unit sizes
// after churn. It takes donor locks, possibly under a problem lock, which
// the lock order permits: donor locks are leaves.
func (s *Server) liveDonors(now time.Time, skip func(name string) bool) int {
	cutoff := now.Add(-s.opts.Lease)
	n := 0
	s.donorMu.RLock()
	defer s.donorMu.RUnlock()
	for name, ds := range s.donors {
		if skip != nil && skip(name) {
			continue
		}
		ds.mu.Lock()
		if ds.lastSeen.After(cutoff) && !ds.quarantined {
			n++
		}
		ds.mu.Unlock()
	}
	return n
}

// touchDonor returns the donor's state, creating it on first contact, and
// stamps its last-seen time.
func (s *Server) touchDonor(name string, now time.Time) *donorState {
	s.donorMu.RLock()
	ds, ok := s.donors[name]
	s.donorMu.RUnlock()
	if !ok {
		s.donorMu.Lock()
		ds, ok = s.donors[name]
		if !ok {
			ds = &donorState{trust: sched.TrustNeutral}
			s.donors[name] = ds
		}
		s.donorMu.Unlock()
	}
	ds.mu.Lock()
	ds.lastSeen = now
	ds.mu.Unlock()
	return ds
}

// peekDonor returns the donor's state without creating it or stamping its
// last-seen time — for checks that must not count as donor activity.
func (s *Server) peekDonor(name string) *donorState {
	s.donorMu.RLock()
	defer s.donorMu.RUnlock()
	return s.donors[name]
}

// pruneDonors forgets donors gone long enough that their scheduling
// statistics are worthless, so the donor map stays bounded on a long-lived
// server. A quarantined donor is kept: quarantine lasts for the server's
// lifetime, and a liar that stayed away must not redial at neutral trust.
func (s *Server) pruneDonors(now time.Time) {
	cutoff := now.Add(-10 * s.opts.Lease)
	s.donorMu.Lock()
	var pruned []string
	for name, ds := range s.donors {
		ds.mu.Lock()
		gone := ds.lastSeen.Before(cutoff) && !ds.quarantined
		ds.mu.Unlock()
		if gone {
			delete(s.donors, name)
			pruned = append(pruned, name)
		}
	}
	s.donorMu.Unlock()
	if len(pruned) > 0 {
		// A pruned donor will never drain its cancel queue; drop it.
		s.cancelMu.Lock()
		for _, name := range pruned {
			delete(s.cancels, name)
		}
		s.cancelMu.Unlock()
	}
}

func remainingCost(dm DataManager) int64 {
	if cr, ok := dm.(CostReporter); ok {
		return cr.RemainingCost()
	}
	return 0
}
