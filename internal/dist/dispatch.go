package dist

import (
	"context"
	"fmt"
	"time"

	"repro/internal/sched"
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
	now := time.Now()
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
	live := s.liveDonorCount(now)

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
// liveDonorCount sampled for this request. It returns the
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
	if ps.done {
		return nil, true, true
	}
	// An untrusted donor with ProbationUnits of unresolved verification
	// backlog gets no new units — only replica service — until its
	// quorums resolve: every unit it takes must be replicated, so an
	// unbounded stream of them multiplies the problem by the quorum (and
	// hands a malicious donor free amplification).
	capped := view.probation && ps.verifyBacklogLocked(donor, s.opts.ProbationUnits)
	// An open set — a requeued unit, or a pending quorum wanting one more
	// replica — outranks fresh work: re-leasing it unblocks its fold.
	if t := s.reissueLocked(ps, donor, view, capped, live > 1); t != nil {
		return t, false, true
	}
	if capped {
		// Parked at the backlog cap: a resolving quorum must wake this
		// donor so it can claim fresh work again.
		ps.starved = true
		return nil, false, true
	}
	budget := s.opts.Policy.Budget(view.stats, remainingCost(ps.p.DM), live)
	budget = scaleBudgetByTrust(budget, view.trust)
	for {
		u, ok, err := ps.p.DM.NextUnit(budget)
		if err != nil {
			s.failLocked(ps, fmt.Errorf("dist: problem %q: NextUnit: %w", ps.id, err))
			return nil, true, true
		}
		if !ok {
			if ps.p.DM.Done() {
				s.finalizeLocked(ps)
				return nil, true, true
			}
			if len(ps.units) == 0 {
				// Nothing dispatchable, no unit outstanding, not done: no
				// future event can unstick this problem. Fail loudly rather
				// than leaving Wait hanging.
				s.failLocked(ps, fmt.Errorf("dist: problem %q stalled: no dispatchable units, none in flight, not done", ps.id))
				return nil, true, true
			}
			// Nothing fresh, but the problem is close to done with leases
			// still out: offer this free donor a speculative copy of the
			// oldest straggler before parking it. A donor below the trust
			// bar is never offered speculation — first-result-wins would
			// let an untrusted copy fold unverified.
			if !view.probation {
				if t := s.speculateLocked(ps, donor, view); t != nil {
					return t, false, true
				}
			}
			// A dispatch scan starved on this problem: the next folded result
			// may release stage-barrier units, so it must wake parked donors.
			ps.starved = true
			return nil, false, true
		}
		if set := ps.units[u.ID]; set != nil {
			// A set rebuilt from the journal whose unit the DataManager
			// just regenerated: attach the unit, which opens the set. If
			// this donor cannot serve it, keep scanning — other donors will.
			if set.unit == nil {
				set.unit = u
				s.syncOpenLocked(ps, set)
			}
			if t := s.reissueLocked(ps, donor, view, false, live > 1); t != nil {
				return t, false, true
			}
			continue
		}
		quorum := 1
		if s.verifyEnabled() && (view.probation || s.sampleVerifyLocked(ps)) {
			quorum = s.opts.VerifyQuorum
		}
		return s.grantLeaseLocked(ps, ps.addSetLocked(u.ID, u, quorum), donor, view), false, true
	}
}

// reissueLocked leases donor the first open set it is eligible for: not
// already involved in it, trusted when the set waits for a trusted
// tie-breaker, and — for a requeued ordinary unit — preferably not the
// donor that just lost it, so a unit one machine cannot compute migrates.
// That preference only holds while some *other* donor is actually alive
// (othersAlive: the request's live-donor count exceeds the requester
// itself) — a donor that has not polled for a full lease is presumed gone,
// and waiting for it would starve the unit forever. The count can be a poll
// interval stale; the consequence is at most one deferred pickup, never a
// lost unit. capped donors (see tryDispatch) only serve replicas of sets
// already spot-checked. Callers hold ps.mu.
//
//dist:locked mu
func (s *Server) reissueLocked(ps *problemState, donor string, view dispatchView, capped, othersAlive bool) *Task {
	var own *attemptSet
	for _, set := range ps.open {
		if set.involves(donor) || (set.trustedOnly && view.probation) || (set.quorum == 1 && capped) {
			continue
		}
		if set.quorum == 1 && set.lastDonor == donor {
			if own == nil {
				own = set
			}
			continue
		}
		return s.grantLeaseLocked(ps, set, donor, view)
	}
	if own != nil && !othersAlive {
		return s.grantLeaseLocked(ps, own, donor, view) // no other live donor: better to retry than to stall
	}
	return nil
}

// speculateLocked implements straggler speculation (ServerOptions.
// SpeculateAfter): when a problem has no fresh units but is at least the
// configured fraction complete, a free donor is granted a second,
// concurrent lease on the ordinary unit whose only lease is oldest, instead
// of parking. Whichever copy reports first folds and the other donor is
// sent a cancel notice; a failure or expiry of either lease leaves the
// other standing. Each unit is speculated at most once, never to its own
// holder, and never while open sets are waiting for a donor. Callers hold
// ps.mu.
//
//dist:locked mu
func (s *Server) speculateLocked(ps *problemState, donor string, view dispatchView) *Task {
	frac := s.opts.SpeculateAfter
	if frac <= 0 || frac > 1 || len(ps.open) > 0 {
		return nil
	}
	if float64(ps.completed) < frac*float64(ps.completed+len(ps.units)) {
		return nil
	}
	var pick *attemptSet
	for _, set := range ps.units {
		if set.quorum != 1 || set.speculated || len(set.leases) != 1 || set.leases[0].donor == donor {
			continue
		}
		if pick == nil || set.leases[0].deadline.Before(pick.leases[0].deadline) {
			pick = set
		}
	}
	if pick == nil {
		return nil
	}
	pick.speculated = true
	ps.speculated++
	return s.grantLeaseLocked(ps, pick, donor, view)
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
// donor's scheduling statistics and its unit-time EWMA. For the throughput
// Elapsed is floored at 1ms: a sub-millisecond (or bogus donor-reported)
// sample would otherwise make the EWMA throughput — and with it the next
// adaptive budget, which has no upper clamp by default — effectively
// infinite, serializing the whole problem onto one donor. The unit time
// ignores samples ≤ 0 instead: a batch is sized from it with an upper cap.
func (s *Server) feedThroughput(ds *donorState, cost int64, elapsed time.Duration) {
	sec := elapsed.Seconds()
	if sec < 1e-3 {
		sec = 1e-3
	}
	ds.mu.Lock()
	ds.stats.Completed++
	ds.stats.Throughput = sched.EWMA(ds.stats.Throughput, float64(cost)/sec, throughputAlpha)
	if elapsed > 0 {
		ds.unitTime = time.Duration(sched.EWMA(float64(ds.unitTime), float64(elapsed), throughputAlpha))
	}
	ds.mu.Unlock()
}

// liveDonorExcept reports whether any donor that could still be handed
// work — it polled within the last lease interval before now and is not
// quarantined — is not skipped. It takes donor locks, possibly under a
// problem lock, which the lock order permits: donor locks are leaves.
func (s *Server) liveDonorExcept(now time.Time, skip func(name string) bool) bool {
	cutoff := now.Add(-s.opts.Lease)
	s.donorMu.RLock()
	defer s.donorMu.RUnlock()
	for name, ds := range s.donors {
		if skip(name) {
			continue
		}
		ds.mu.Lock()
		alive := ds.lastSeen.After(cutoff) && !ds.quarantined
		ds.mu.Unlock()
		if alive {
			return true
		}
	}
	return false
}

// liveDonorCount counts the donors that can be handed work — seen within
// the last lease interval and not quarantined: the pool size scheduling
// policies divide remaining work by. Counting every donor ever seen would
// permanently shrink GSS/factoring unit sizes after churn. Never returns
// less than 1 (the caller itself just polled), so a count above 1 means
// some other donor is alive.
func (s *Server) liveDonorCount(now time.Time) int {
	cutoff := now.Add(-s.opts.Lease)
	n := 0
	s.donorMu.RLock()
	for _, ds := range s.donors {
		ds.mu.Lock()
		if ds.lastSeen.After(cutoff) && !ds.quarantined {
			n++
		}
		ds.mu.Unlock()
	}
	s.donorMu.RUnlock()
	if n < 1 {
		n = 1
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

// bumpFailures charges one failure to a donor's scheduling statistics, if
// the donor is still tracked.
func (s *Server) bumpFailures(name string) {
	if ds := s.peekDonor(name); ds != nil {
		ds.mu.Lock()
		ds.stats.Failures++
		ds.mu.Unlock()
	}
}

// pruneDonors forgets donors gone long enough that their scheduling
// statistics are worthless, so the donor map stays bounded on a long-lived
// server.
func (s *Server) pruneDonors(now time.Time) {
	cutoff := now.Add(-10 * s.opts.Lease)
	s.donorMu.Lock()
	var pruned []string
	for name, ds := range s.donors {
		ds.mu.Lock()
		gone := ds.lastSeen.Before(cutoff)
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
