package dist

// The unit lifecycle, as one clock-free state machine. Every outstanding
// unit of a problem is one attemptSet in its unitTable, and walks:
//
//	fresh ──grant──▶ leased ──offer──▶ held ──resolve──▶ folded
//	                  │  ▲               │
//	                  └──┘ drop          └──▶ failed (a cap, or no quorum
//	             (reopens the set)            agreement within maxVerifyDonors)
//
// A set's quorum is how many agreeing results fold it. An ordinary unit has
// quorum 1: the first result offered folds. Speculation is a quorum-1 set
// granted a second concurrent lease once its first is overdue (see below) —
// first result wins, the loser is cancelled. Verification
// (ServerOptions.VerifyFraction) is a set created with quorum VerifyQuorum:
// results are held until enough of them agree. A set with no lease that
// wants one is "open" (unitTable.open) — what a requeue queue would hold;
// dispatch serves open sets before fresh units and never scans the whole
// table.
//
// Invariants, for every set: at most one lease per donor, and at most
// max(quorum, 2) leases; exactly one fold (the set leaves the table in fold,
// so late and duplicate results find nothing); no held result from another
// incarnation or from a donor not involved in the set; a spot-checked set
// involves at most maxVerifyDonors donors at a time (a quarantine frees the
// donor's place). For the table: completed ≤ dispatched, the problem's
// inflight count equals its live leases, and a unit the DataManager holds
// pending is in the table iff the problem has not ended. checkUnits (lifecycle_test.go) asserts all
// of them after every event of an exhaustive bounded explorer
// (units_test.go) and of a seeded walk through a whole server.
//
// Overdue: one rule judges every lease against the scheduler's own estimate
// of how long it should take — the unit's cost over the donor's measured
// throughput (the number its budget was cut from), plus batchLatencyTarget
// for the batch tail and the result riding the next park. A lease past
// speculateFactor times that expectation may be granted one speculative
// copy; past expireFactor times it (but never before expiryFloor, nor after
// ServerOptions.Lease) it expires. A donor with no throughput yet is judged
// for speculation against the fleet's throughput as it stands when the
// lease is judged, and expires only after Lease. The table reports the
// earliest instant it next wants judged (alarm), so the server's sweep runs
// when a lease falls due rather than on a fixed tick.
//
// Collusion defence: a donor is trusted iff its trust EWMA is at or above
// the one bar (trust.go), and a result is trusted iff its donor was when it
// answered. Once any known donor is trusted, a result group only wins a
// quorum if it contains at least one trusted result — two unproven donors
// can never validate each other past the cold start, so a pair submitting
// identical wrong answers merely forces a trusted tie-breaking replica that
// outvotes them. Before any trusted donor exists (bootstrap), and when no
// tie-breaker can ever arrive (no replica is out, every live donor is
// already involved, and none of them was trusted when it answered), plain
// count quorum applies.
//
// The table acts on nothing outside itself but the DataManager, whose
// answers steer the next transition (Consume, Requeuer.Requeue, Done,
// ResultEquivaler). It never reads the clock — every transition is handed
// now — and asks the server-wide questions of the quorum rule through a
// fleet. What the server owes for a transition (a journal record, a Watch
// event, a cancel notice, a trust outcome, the problem's end) is appended
// to fx, which Server.unlock applies in order before the problem lock
// drops; wake asks it to wake parked donors after. The journal records are
// the table's own: a durable problem's Grant, Replica and Fold records
// replay through these same transitions after a crash (unitTable.replay,
// durable.go).

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
	"time"
)

// maxUnitAttempts bounds how often one cached unit is re-dispatched after
// failures before the whole problem is failed — a deterministically
// poisoned unit must not ping-pong between donors forever.
const maxUnitAttempts = 8

// maxConsecutiveFailures bounds compute failures with no intervening
// success for one problem. Requeuer DataManagers regenerate lost units
// under fresh IDs, so the per-unit attempt cap cannot see a poisoned unit
// cycling there; this problem-level bound catches it.
const maxConsecutiveFailures = 64

// maxConsecutiveTransport bounds transport failures (unfetchable shared data)
// with no intervening success. Deliberately very loose — partial-fleet
// bulk-connectivity problems self-heal via requeue and any completed unit
// resets it — but it turns "no donor can reach the bulk channel at all"
// (a misconfigured advertised address, a NAT forwarding only the RPC port)
// from a silent livelock into a diagnosable failure.
const maxConsecutiveTransport = 1024

// maxVerifyDonors caps how many distinct donors one spot-checked set may
// involve. A unit that burns through this many donors without reaching
// quorum agreement fails the problem loudly — a nondeterministic
// DataManager (missing its ResultEquivaler) or a majority-malicious fleet
// must surface, not livelock. Quarantined donors do not count: their
// results were evicted, so they are no evidence either way, and each donor
// is quarantined at most once per readmission.
const maxVerifyDonors = 8

// The overdue rule's factors and floor: a lease is due a speculative copy
// past speculateFactor times its expectation and expires past expireFactor
// times it, but never sooner than expiryFloor, which keeps GC and scheduler
// pauses from reissuing healthy units. The factors come from a straggler
// sweep recorded in CHANGES.md.
const (
	speculateFactor = 2
	expireFactor    = 8
	expiryFloor     = time.Second
)

// failureKind classifies why a lease was lost, because each class gets a
// different bound: compute failures feed the tight poisoned-unit caps;
// transport failures (shared data unfetchable) feed only a very loose cap that
// catches a bulk channel no donor can reach; lease expiries feed no cap at
// all — a healthy unit that merely takes many lease periods, or a mass
// outage expiring every lease in one sweep, must reissue, not fail the
// problem. Verify failures (a quarantined donor's revoked leases) are
// uncapped like expiries: they blame the donor, not the unit.
type failureKind int

const (
	failCompute failureKind = iota
	failTransport
	failExpiry
	failVerify
)

// lease is one donor's live claim on a set's unit: when it was granted, the
// donor's throughput then (zero before its first result) and when it
// expires.
type lease struct {
	donor             string
	granted, deadline time.Time
	rate              float64
}

// heldResult is one result of a spot-checked unit awaiting quorum.
type heldResult struct {
	donor   string
	payload []byte
	// trusted records the donor's standing when the result was accepted —
	// the quorum rule keys on it, and a donor promoted later must not
	// retroactively legitimize a result it submitted while unproven.
	// Recovered results are never trusted: trust is soft state.
	trusted bool
}

// attemptSet tracks every attempt at one outstanding unit. The first lease
// lives in the struct, so an ordinary unit costs one allocation; results
// and donors stay nil unless the unit is spot-checked.
type attemptSet struct {
	uid    int64
	unit   *Unit
	leases []lease
	first  [1]lease
	// results are the held results of a spot-checked set; donors is every
	// donor ever granted one of its leases (or, after recovery, journaled
	// with a result) and not quarantined since — none of them is granted
	// another, even after its lease expired.
	results []heldResult
	donors  []string
	// lastDonor is the donor that most recently lost a lease on the set;
	// reissue prefers anyone else, so a unit one machine cannot compute
	// migrates.
	lastDonor string
	// quorum is how many agreeing results fold the unit: 1, or VerifyQuorum
	// once the set is spot-checked.
	quorum int
	// fails counts compute failures, feeding maxUnitAttempts.
	fails int
	// open mirrors membership of unitTable.open; trustedOnly narrows an
	// open spot-checked set to trusted donors.
	open, trustedOnly bool
	// speculated marks a set that was granted its second concurrent lease
	// because its first was overdue, so the unit is never offered again.
	speculated bool
}

// leaseOf returns the index of donor's live lease, or -1.
func (set *attemptSet) leaseOf(donor string) int {
	for i := range set.leases {
		if set.leases[i].donor == donor {
			return i
		}
	}
	return -1
}

// involves reports whether donor may not be granted a lease on the set:
// it holds one, or the set is spot-checked and the donor ever did (and was
// not quarantined since).
func (set *attemptSet) involves(donor string) bool {
	return set.leaseOf(donor) >= 0 || slices.Contains(set.donors, donor)
}

// fleet answers the server-wide questions the quorum and overdue rules ask:
// is any known donor trusted, how many donors that could still be handed
// work are alive at now and not skipped, and what is the fleet's throughput
// EWMA (zero before any result).
type fleet interface {
	trustedDonorExists() bool
	liveDonors(now time.Time, skip func(name string) bool) int
	throughput() float64
}

// effectKind names what the server owes for a transition.
type effectKind uint8

const (
	fxGrant   effectKind = iota // journal the cut of uid (budget, quorum)
	fxFold                      // journal a fold of uid (payload)
	fxReplica                   // journal a held replica of uid (donor, payload)
	fxEvent                     // a Watch event (event, uid, donor, counters)
	fxCancel                    // a cancel notice to donor for its lease on uid
	fxTrust                     // a quorum outcome for donor's trust
	fxEnd                       // the problem ended: finalize, or fail with err
)

// effect is one entry of the table's effects buffer.
type effect struct {
	kind    effectKind
	event   EventKind
	outcome verifyOutcome
	uid     int64
	donor   string
	payload []byte
	err     error
	// budget and quorum are a Grant's: what NextUnit was asked for, and the
	// set's quorum.
	budget int64
	quorum int
	// completed and inflight are the counters when the event occurred.
	completed, inflight int
}

// unitTable is a problem's attempt table and the only code that changes
// it: the sets, the open list, the lifecycle counters and the problem's
// inflight count. It lives in problemState under the problem lock.
type unitTable struct {
	// task is the template of every task granted: problem ID, epoch,
	// shared digest and priority. Its epoch fences results and failure
	// reports from other incarnations.
	task     Task
	dm       DataManager
	opts     ServerOptions
	inflight *atomic.Int64
	// sets holds every outstanding unit — leased, awaiting reissue, or held
	// for quorum — keyed by unit ID; open lists the sets that currently
	// want a lease, oldest first. Both are nil once the problem ended.
	sets map[int64]*attemptSet
	open []*attemptSet

	dispatched, completed, reissued int
	// speculated counts units re-dispatched by the straggler-speculation
	// scan; each also counts once more in dispatched. verified counts units
	// folded through quorum agreement; conflicts counts quorum resolutions
	// that discarded at least one disagreeing replica result.
	speculated, verified, conflicts int
	// consecFails / consecTransport count compute and transport failures
	// since the last successful Consume.
	consecFails, consecTransport int
	// starved records that a dispatch scan came up empty-handed while the
	// problem was live (NextUnit said "nothing yet" — a stage barrier,
	// typically). Only then can folding a result release new units, so only
	// then does fold ask for a wake: an unconditional wake would make every
	// parked donor rescan on every result a busy fleet folds.
	starved bool
	// wake asks for parked donors to be woken once the lock drops; done
	// marks a problem that ended (finish).
	wake, done bool
	// alarm is the earliest instant a transition since the lock was taken
	// wants the lease sweep to run by (zero for none): a lease's deadline, or
	// when a starved problem's straggler falls due. Server.unlock hands it
	// to the sweep.
	alarm time.Time
	fx    []effect
}

func newUnitTable(task Task, dm DataManager, opts ServerOptions, inflight *atomic.Int64) unitTable {
	return unitTable{task: task, dm: dm, opts: opts, inflight: inflight, sets: make(map[int64]*attemptSet)}
}

// resume seeds the counters of a problem recovered from the journal.
func (t *unitTable) resume(dispatched, completed, reissued int) {
	t.dispatched, t.completed, t.reissued = dispatched, completed, reissued
}

// event records a Watch event with the current counters.
func (t *unitTable) event(kind EventKind, uid int64, donor string) {
	t.fx = append(t.fx, effect{kind: fxEvent, event: kind, uid: uid, donor: donor, completed: t.completed, inflight: int(t.inflight.Load())})
}

// cancel owes a cancel notice to every donor holding a live lease on the
// set — its unit just folded from another donor's result, or its problem
// ended — so they abort compute whose result would be dropped.
func (t *unitTable) cancel(set *attemptSet) {
	for _, l := range set.leases {
		t.fx = append(t.fx, effect{kind: fxCancel, uid: set.uid, donor: l.donor})
	}
}

// finish ends the problem — finalized when err is nil, failed otherwise —
// and releases the table: a problem that finalized early (Done with units
// still out) must not pin unit payloads, every lease still out is
// cancelled, and the inflight count drops to zero. Idempotent.
func (t *unitTable) finish(err error) {
	if t.done {
		return
	}
	t.done = true
	for _, set := range t.acting(func(set *attemptSet) bool { return len(set.leases) > 0 }) {
		t.cancel(set)
	}
	t.inflight.Store(0)
	t.sets, t.open = nil, nil
	t.fx = append(t.fx, effect{kind: fxEnd, err: err})
}

// acting returns the sets that pred selects in unit-ID order: a transition
// that acts on several sets walks them through acting, so that one schedule
// of events owes its effects, and requeues its units (which numbers the
// regenerated ones), in one order.
func (t *unitTable) acting(pred func(*attemptSet) bool) []*attemptSet {
	var sets []*attemptSet
	for _, set := range t.sets {
		if pred(set) {
			sets = append(sets, set)
		}
	}
	slices.SortFunc(sets, func(a, b *attemptSet) int { return cmp.Compare(a.uid, b.uid) })
	return sets
}

// add registers a fresh attempt set for unit u, which the DataManager just
// cut, spot-checked when quorum is above one.
func (t *unitTable) add(uid int64, u *Unit, quorum int) *attemptSet {
	set := &attemptSet{uid: uid, unit: u, quorum: quorum}
	set.leases = set.first[:0]
	t.sets[uid] = set
	return set
}

// cut is where a unit enters the table: the DataManager just cut u for
// budget, and donor is granted the first lease. The cut owes a Grant
// record — replay re-cuts the unit by calling NextUnit with the same budget.
func (t *unitTable) cut(u *Unit, budget int64, quorum int, donor string, v dispatchView) *Task {
	set := t.add(u.ID, u, quorum)
	task := t.grant(set, donor, v)
	t.fx = append(t.fx, effect{kind: fxGrant, uid: set.uid, budget: budget, quorum: set.quorum})
	return task
}

// remove takes a set out of the table: its unit folded, or was handed back
// to a Requeuer DataManager.
func (t *unitTable) remove(set *attemptSet) {
	delete(t.sets, set.uid)
	t.setOpen(set, false)
}

// setOpen lists or unlists a set in open. Leaving a set open asks for a
// wake of parked donors: a lease on it is claimable.
func (t *unitTable) setOpen(set *attemptSet, want bool) {
	t.wake = t.wake || want
	if want != set.open {
		set.open = want
		if want {
			t.open = append(t.open, set)
		} else {
			t.open = slices.DeleteFunc(t.open, func(o *attemptSet) bool { return o == set })
		}
	}
}

// unlease removes the lease at index i.
func (t *unitTable) unlease(set *attemptSet, i int) {
	set.leases = slices.Delete(set.leases, i, i+1)
	t.inflight.Add(-1)
}

// grant is the only place a lease is recorded: it leases the set's unit to
// donor, seen as v, under the overdue rule and returns the task, or nil when
// the donor is already involved in the set. A unit handed to a donor on
// probation (below the trust bar) is spot-checked from here on — no unit an
// untrusted donor computes may fold unverified.
func (t *unitTable) grant(set *attemptSet, donor string, v dispatchView) *Task {
	if set.involves(donor) {
		return nil
	}
	if set.quorum == 1 && v.probation {
		set.quorum = t.opts.VerifyQuorum
	}
	kind := EventUnitDispatched
	switch {
	case set.quorum > 1:
		if len(set.donors) > 0 {
			kind = EventUnitReplicaDispatched
		}
		set.donors = append(set.donors, donor)
	case len(set.leases) > 0:
		kind = EventUnitSpeculated
	}
	l := lease{donor: donor, granted: v.now, deadline: v.now.Add(t.opts.Lease), rate: v.stats.Throughput}
	if l.rate > 0 {
		l.deadline = v.now.Add(min(t.opts.Lease, max(expiryFloor, expireFactor*t.expect(set.unit, l.rate))))
	}
	set.leases = append(set.leases, l)
	t.remind(l.deadline)
	t.inflight.Add(1)
	t.dispatched++
	t.event(kind, set.uid, donor)
	t.sync(set)
	task := t.task
	task.Unit, task.Verify = *set.unit, set.quorum > 1
	return &task
}

// expect is how long u should take at rate (cost units per second): its
// cost over rate, capped at Lease so a tiny rate cannot overflow it, plus
// batchLatencyTarget for the batch tail and the result riding the next
// park.
func (t *unitTable) expect(u *Unit, rate float64) time.Duration {
	secs := min(max(float64(u.Cost), 0)/rate, t.opts.Lease.Seconds())
	return time.Duration(secs*float64(time.Second)) + batchLatencyTarget
}

// due is when lease l on set falls due a speculative copy: past
// speculateFactor times its expectation at the holder's throughput, or, for
// a holder not measured yet, at fleet, the fleet's as it stands. Zero when
// neither is known.
func (t *unitTable) due(set *attemptSet, l lease, fleet float64) time.Time {
	rate := cmp.Or(l.rate, fleet)
	if rate <= 0 {
		return time.Time{}
	}
	return l.granted.Add(speculateFactor * t.expect(set.unit, rate))
}

// remind asks for the lease sweep to run by at (see alarm).
func (t *unitTable) remind(at time.Time) {
	if !at.IsZero() && (t.alarm.IsZero() || at.Before(t.alarm)) {
		t.alarm = at
	}
}

// reissue leases donor the first open set it is eligible for: not already
// involved in it, trusted when the set waits for a trusted tie-breaker, and
// — for a requeued ordinary unit — preferably not the donor that just lost
// it, so a unit one machine cannot compute migrates. That preference only
// holds while some *other* donor is actually alive (othersAlive) — a donor
// that has not polled for a full lease is presumed gone, and waiting for it
// would starve the unit forever. The liveness can be a poll interval stale;
// the consequence is at most one deferred pickup, never a lost unit. capped
// donors (an untrusted donor at its verification backlog, see
// verifyBacklog) only serve replicas of sets already spot-checked.
func (t *unitTable) reissue(donor string, v dispatchView, capped, othersAlive bool) *Task {
	var own *attemptSet
	for _, set := range t.open {
		if (set.trustedOnly && v.probation) || (set.quorum == 1 && capped) {
			continue
		}
		if set.quorum == 1 && set.lastDonor == donor {
			if own == nil {
				own = set
			}
			continue
		}
		if task := t.grant(set, donor, v); task != nil {
			return task
		}
	}
	if own != nil && !othersAlive {
		return t.grant(own, donor, v) // no other live donor: better to retry than to stall
	}
	return nil
}

// idle is the dispatch scan's dead end — no open set for donor and nothing
// fresh from the DataManager. With no unit outstanding either, no future
// event can unstick the problem, so it fails loudly rather than leaving
// Wait hanging. Otherwise a donor not on probation may be granted a
// speculative copy of an overdue straggler (first-result-wins would let an
// untrusted copy fold unverified); failing that the scan starved: the next
// fold — which may release stage-barrier units — must wake parked donors,
// and so must the sweep when a straggler falls due.
func (t *unitTable) idle(donor string, v dispatchView, f fleet) *Task {
	if len(t.sets) == 0 {
		t.finish(fmt.Errorf("dist: problem %q stalled: no dispatchable units, none in flight, not done", t.task.ProblemID))
		return nil
	}
	pick, next := t.straggler(donor, v.now, f.throughput())
	if pick != nil && !v.probation {
		pick.speculated = true
		t.speculated++
		return t.grant(pick, donor, v)
	}
	t.starved = true
	t.remind(next)
	return nil
}

// straggler returns the set a speculative copy would go to at now — the
// ordinary set whose one lease is most overdue, of equals the lowest unit
// ID — and the earliest instant another set falls due. A set is due from
// its due instant on, so the sweep its alarm fires finds it due. A set is
// never speculated twice, nor to its own holder, nor while open sets are
// waiting for a donor. Whichever copy reports first folds and the other
// donor is cancelled; a failure or expiry of either lease leaves the other
// standing.
func (t *unitTable) straggler(donor string, now time.Time, fleet float64) (pick *attemptSet, next time.Time) {
	if len(t.open) > 0 {
		return nil, time.Time{}
	}
	var pickDue time.Time
	for _, set := range t.sets {
		if set.quorum != 1 || set.speculated || len(set.leases) != 1 || set.leases[0].donor == donor {
			continue
		}
		due := t.due(set, set.leases[0], fleet)
		switch {
		case due.IsZero():
		case now.Before(due):
			if next.IsZero() || due.Before(next) {
				next = due
			}
		case pick == nil || due.Before(pickDue) || (due.Equal(pickDue) && set.uid < pick.uid):
			pick, pickDue = set, due
		}
	}
	return pick, next
}

// verifyBacklog reports whether the donor is involved in at least limit
// pending spot-checked sets — outstanding unverified work attributable to
// it. An untrusted donor at ProbationUnits of backlog receives no fresh
// units (it may still serve other sets' replicas): without the bound, a
// fast unproven donor streams primaries quicker than the fleet resolves
// them and every one must be replicated, so the cold-start (or an
// attacker) multiplies the whole problem by the quorum.
func (t *unitTable) verifyBacklog(donor string, limit int) bool {
	n := 0
	for _, set := range t.sets {
		if set.quorum > 1 && set.involves(donor) {
			if n++; n >= limit {
				return true
			}
		}
	}
	return false
}

// drop is the only place a lease is lost, and the only copy of the failure
// caps. A set left with no lease returns to the pool: a Requeuer
// DataManager regenerates the unit (under a fresh ID — the set goes),
// otherwise the set stays in the table, open, with its cached payload, so a
// straggler's late result is still accepted until the unit is
// re-dispatched. A speculated unit therefore requeues when its last lease
// goes, not its first.
func (t *unitTable) drop(set *attemptSet, donor, reason string, kind failureKind, now time.Time, f fleet) {
	i := set.leaseOf(donor)
	if i < 0 || t.done {
		return
	}
	t.unlease(set, i)
	set.lastDonor = donor
	var capped error
	switch kind {
	case failCompute:
		t.consecFails++
		if set.fails++; set.fails >= maxUnitAttempts {
			capped = fmt.Errorf("dist: problem %q: unit %d failed %d times, last: %s", t.task.ProblemID, set.uid, set.fails, reason)
		} else if t.consecFails >= maxConsecutiveFailures {
			capped = fmt.Errorf("dist: problem %q: %d consecutive failures without a completed unit, last: %s", t.task.ProblemID, t.consecFails, reason)
		}
	case failTransport:
		if t.consecTransport++; t.consecTransport >= maxConsecutiveTransport {
			capped = fmt.Errorf("dist: problem %q: %d consecutive transport failures without a completed unit (bulk channel unreachable from every donor?), last: %s",
				t.task.ProblemID, t.consecTransport, reason)
		}
	case failExpiry:
		if set.quorum > 1 {
			// A replica timeout is a quorum outcome that drags the donor's
			// trust down (gently — an outage is not a wrong answer).
			t.fx = append(t.fx, effect{kind: fxTrust, donor: donor, outcome: outcomeTimeout})
		}
	}
	if capped != nil {
		t.finish(capped)
		return
	}
	if rq, ok := t.dm.(Requeuer); ok && set.quorum == 1 && len(set.leases) == 0 {
		t.remove(set)
		rq.Requeue(set.uid)
		t.reissued++
		t.wake = true
		return
	}
	t.settle(set, now, f)
	if set.open {
		t.reissued++ // the loss put a lease back up for dispatch
	}
}

// lose drops donor's lease on unit uid after the donor reported the unit
// failed, and reports whether it held one. A non-zero epoch that is not
// this incarnation's marks a straggler report from a forgotten predecessor
// of the problem ID: like a report for someone else's lease, it must not
// revoke a live lease.
func (t *unitTable) lose(uid int64, donor, reason string, kind failureKind, epoch int64, now time.Time, f fleet) bool {
	set := t.sets[uid]
	if t.done || (epoch != 0 && epoch != t.task.Epoch) || set == nil || set.leaseOf(donor) < 0 {
		return false
	}
	t.drop(set, donor, reason, kind, now, f)
	return true
}

// offer takes one result and reports whether it was accepted (folded or
// held), with the unit it answered when that is known. A result of another
// incarnation (a non-zero epoch that is not this one's: unit numbering
// restarts per incarnation, so IDs collide while payloads mean different
// work) or for a unit no longer in the table (folded, or regenerated under
// a new ID) is dropped. Quorum 1: the first result folds, whoever computed
// it — a donor that outlived its lease but finished before the unit was
// re-dispatched saves recomputing the whole unit. Quorum k: the donor must
// be involved in the set, duplicates are dropped, and the result is held
// until the set resolves; trusted is the donor's standing now.
func (t *unitTable) offer(res *Result, trusted bool, now time.Time, f fleet) (*Unit, bool) {
	set := t.sets[res.UnitID]
	if t.done || (res.Epoch != 0 && res.Epoch != t.task.Epoch) || set == nil {
		return nil, false
	}
	if set.quorum > 1 {
		if !set.involves(res.Donor) {
			return nil, false // never leased a replica of this unit
		}
		if slices.ContainsFunc(set.results, func(r heldResult) bool { return r.donor == res.Donor }) {
			return nil, false // duplicate submission
		}
	}
	if i := set.leaseOf(res.Donor); i >= 0 {
		t.unlease(set, i)
	}
	if set.quorum == 1 {
		t.fold(set, res.Payload, res.Donor)
		return set.unit, true
	}
	// A straggler replica whose lease already expired is still evidence:
	// the donor computed the unit, and its answer joins the comparison.
	// Held replicas are journaled so a pending quorum survives a
	// coordinator crash.
	set.results = append(set.results, heldResult{donor: res.Donor, payload: res.Payload, trusted: trusted})
	t.fx = append(t.fx, effect{kind: fxReplica, uid: set.uid, donor: res.Donor, payload: res.Payload})
	t.settle(set, now, f)
	return set.unit, true
}

// fold is the only caller of DataManager.Consume, live and in replay: the
// set leaves the table, every lease still out on it is cancelled, and the
// result is folded and journaled.
func (t *unitTable) fold(set *attemptSet, payload []byte, donor string) {
	t.cancel(set)
	t.inflight.Add(-int64(len(set.leases)))
	set.leases = nil
	t.remove(set)
	if err := t.dm.Consume(set.uid, payload); err != nil {
		t.finish(fmt.Errorf("dist: problem %q: Consume unit %d: %w", t.task.ProblemID, set.uid, err))
		return
	}
	t.fx = append(t.fx, effect{kind: fxFold, uid: set.uid, payload: payload})
	t.completed++
	t.consecFails, t.consecTransport = 0, 0
	if set.quorum > 1 {
		t.verified++
		t.event(EventQuorumAgreed, set.uid, donor)
	}
	t.event(EventUnitDone, set.uid, donor)
	t.event(EventProgress, 0, "")
	if t.dm.Done() {
		t.finish(nil)
	} else if t.starved {
		t.wake = true // see starved
	}
	t.starved = false
}

// settle brings a set to rest after any change to it: a spot-checked set
// folds if some result group now wins its quorum, or fails the problem if
// it exhausted every allowed donor without one; a set still outstanding is
// re-listed.
func (t *unitTable) settle(set *attemptSet, now time.Time, f fleet) {
	if t.done || (set.quorum > 1 && t.resolve(set, now, f)) {
		return
	}
	t.sync(set)
}

// sync lists the set in open exactly when it wants a lease.
func (t *unitTable) sync(set *attemptSet) {
	want, trustedOnly := t.wantsLease(set)
	set.trustedOnly = trustedOnly
	t.setOpen(set, want)
}

// wantsLease reports whether the set wants another lease, and whether it
// must go to a trusted donor. An ordinary set wants a lease while it has
// none — its second, speculative lease is offered, never wanted. A
// spot-checked set wants replicas while no result group can reach quorum
// with what is held plus what is outstanding; once some group has quorum
// count but (necessarily — it would have resolved otherwise) no trusted
// member, one trusted tie-breaker is wanted instead, and only while no
// replica is out — resolve waits on any outstanding lease anyway — so a
// colluding pair cannot burn the donor cap by piling on untrusted
// agreement.
func (t *unitTable) wantsLease(set *attemptSet) (want, trustedOnly bool) {
	switch {
	case set.quorum == 1:
		return len(set.leases) == 0, false
	case len(set.donors) >= maxVerifyDonors:
		return false, false
	}
	best := 0
	for _, g := range t.groups(set) {
		best = max(best, len(g))
	}
	if missing := set.quorum - best; missing > 0 {
		return missing > len(set.leases), false
	}
	return len(set.leases) == 0, true
}

// groups partitions the set's held results into equivalence groups (byte
// equality, or the DataManager's ResultEquivaler), each group a slice of
// result indices in arrival order.
func (t *unitTable) groups(set *attemptSet) [][]int {
	eq := bytes.Equal
	if re, ok := t.dm.(ResultEquivaler); ok {
		eq = func(a, b []byte) bool { return re.EquivalentResults(set.uid, a, b) }
	}
	var groups [][]int
	for i, r := range set.results {
		gi := slices.IndexFunc(groups, func(g []int) bool { return eq(set.results[g[0]].payload, r.payload) })
		if gi < 0 {
			gi, groups = len(groups), append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups
}

// resolve folds a spot-checked set's winning result group, if one exists,
// owing every held result its quorum outcome (agree for the winners,
// disagree for the rest); or fails the problem when the set exhausted every
// allowed donor without agreement. It reports whether the set is finished
// either way. Once a trusted donor exists, a group with quorum count but no
// trusted member waits for a tie-breaker — unless none can ever arrive: no
// trusted donor has weighed in on the set, no replica is still out, and
// every live donor is already involved in it. That is evaluated on every
// offer and again by the expiry sweep, since liveness and trust change with
// time.
func (t *unitTable) resolve(set *attemptSet, now time.Time, f fleet) bool {
	groups := t.groups(set)
	trusted := func(i int) bool { return set.results[i].trusted }
	trustedVoted := slices.ContainsFunc(set.results, func(r heldResult) bool { return r.trusted })
	winner := -1
	for gi, g := range groups {
		if len(g) < set.quorum {
			continue
		}
		if !slices.ContainsFunc(g, trusted) && f.trustedDonorExists() &&
			(trustedVoted || len(set.leases) > 0 || f.liveDonors(now, set.involves) > 0) {
			continue
		}
		winner = gi
		break
	}
	if winner < 0 {
		if len(set.donors) >= maxVerifyDonors && len(set.leases) == 0 {
			t.finish(fmt.Errorf("dist: problem %q: unit %d: verification exhausted %d donors without quorum agreement (nondeterministic results need a ResultEquivaler; otherwise the fleet is majority-malicious)",
				t.task.ProblemID, set.uid, len(set.donors)))
			return true
		}
		return false
	}
	win := groups[winner]
	// Fold a trusted member's payload when one exists (all winners are
	// equivalent, but byte-exact provenance should favor the proven donor).
	pick := win[0]
	if i := slices.IndexFunc(win, trusted); i >= 0 {
		pick = win[i]
	}
	loser := ""
	for gi, g := range groups {
		outcome := outcomeAgree
		if gi != winner {
			outcome = outcomeDisagree
			loser = set.results[g[0]].donor
		}
		for _, i := range g {
			t.fx = append(t.fx, effect{kind: fxTrust, donor: set.results[i].donor, outcome: outcome})
		}
	}
	if len(groups) > 1 {
		t.conflicts++
		t.event(EventQuorumConflict, set.uid, loser)
	}
	t.fold(set, set.results[pick].payload, set.results[pick].donor)
	return true
}

// expire is the lease sweep at now: it drops every lease whose deadline is
// not after now (a sweep the alarm fires at a deadline must act on it, or
// it re-arms for the same instant), re-evaluates held quorums whose
// tie-breaker may have stopped being possible, wakes parked donors when a
// starved problem has a straggler due a speculative copy, and sets the
// alarm to the next deadline or, while starved, the next straggler due.
func (t *unitTable) expire(now time.Time, f fleet) {
	for _, set := range t.acting(func(set *attemptSet) bool {
		return (set.quorum > 1 && len(set.results) >= set.quorum) ||
			slices.ContainsFunc(set.leases, func(l lease) bool { return !now.Before(l.deadline) })
	}) {
		dropped := false
		// A drop removes leases[i] — or, when it resolves the set or fails
		// the problem, ends the loop.
		for i := 0; i < len(set.leases) && !t.done; {
			if l := set.leases[i]; !now.Before(l.deadline) {
				dropped = true
				t.drop(set, l.donor, "lease expired", failExpiry, now, f)
			} else {
				i++
			}
		}
		if !dropped && set.quorum > 1 && len(set.results) >= set.quorum {
			t.settle(set, now, f)
		}
	}
	for _, set := range t.sets {
		for _, l := range set.leases {
			t.remind(l.deadline)
		}
	}
	if t.starved {
		pick, next := t.straggler("", now, f.throughput())
		t.wake = t.wake || pick != nil
		t.remind(next)
	}
}

// evict enacts a donor's quarantine on this problem: its leases are dropped
// (failure kind verify), its held results — a proven-bad donor's answers
// must not keep counting toward quorums — and its places in spot-checked
// sets, which must not use up a set's maxVerifyDonors while an honest
// result waits there for a tie-breaker. Evicting results can resolve
// quorums.
func (t *unitTable) evict(donor string, now time.Time, f fleet) {
	for _, set := range t.acting(func(set *attemptSet) bool {
		return set.involves(donor) || slices.ContainsFunc(set.results, func(r heldResult) bool { return r.donor == donor })
	}) {
		if t.done {
			return
		}
		before := len(set.results) + len(set.donors)
		set.results = slices.DeleteFunc(set.results, func(r heldResult) bool { return r.donor == donor })
		set.donors = slices.DeleteFunc(set.donors, func(d string) bool { return d == donor })
		if set.leaseOf(donor) >= 0 {
			t.drop(set, donor, "donor quarantined", failVerify, now, f)
		} else if len(set.results)+len(set.donors) < before {
			t.settle(set, now, f)
		}
	}
	if !t.done {
		t.event(EventDonorQuarantined, 0, donor)
	}
}

// rejournal owes the records that rebuild every outstanding set on top of
// a checkpoint — its Grant, then its held replicas — because the checkpoint
// prunes the segments holding their originals. A re-appended Grant carries
// no budget: its unit is pending in the checkpointed state, and a restored
// DataManager re-emits pending units first, whatever the budget.
func (t *unitTable) rejournal() {
	for _, set := range t.acting(func(*attemptSet) bool { return true }) {
		t.fx = append(t.fx, effect{kind: fxGrant, uid: set.uid, quorum: set.quorum})
		for _, r := range set.results {
			t.fx = append(t.fx, effect{kind: fxReplica, uid: set.uid, donor: r.donor, payload: r.payload})
		}
	}
}
