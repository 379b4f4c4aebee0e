package dist

// The unit lifecycle. Every outstanding unit of a problem is one attemptSet
// in problemState.units, and walks one machine:
//
//	fresh ──grant──▶ leased ──offer──▶ held ──resolve──▶ folded
//	                  │  ▲               │
//	                  └──┘ drop          └──▶ failed (a cap, or no quorum
//	             (reopens the set)            agreement within maxVerifyDonors)
//
// A set's quorum is how many agreeing results fold it. An ordinary unit has
// quorum 1: the first result offered folds. Speculation
// (ServerOptions.SpeculateAfter) is a quorum-1 set granted a second
// concurrent lease — first result wins, the loser is cancelled. Verification
// (ServerOptions.VerifyFraction) is a set created with quorum VerifyQuorum:
// results are held until enough of them agree. A set with no lease that
// wants one is "open" (problemState.open) — what a requeue queue would
// hold; dispatch serves open sets before fresh units and never scans the
// whole table.
//
// Invariants, for every set: at most one lease per donor; exactly one fold
// (the set leaves the table in foldLocked, so late and duplicate results
// find nothing); a spot-checked set involves at most maxVerifyDonors donors
// at a time (a quarantine frees the donor's place).
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

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/journal"
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

// maxConsecutiveTransport bounds transport failures (unfetchable payloads)
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

// maxPendingCancels bounds one donor's queued cancel notices; a donor that
// never drains loses the oldest notices, which only costs it some wasted
// compute on doomed units.
const maxPendingCancels = 256

// failureKind classifies why a lease was lost, because each class gets a
// different bound: compute failures feed the tight poisoned-unit caps;
// transport failures (payload unfetchable) feed only a very loose cap that
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

// lease is one donor's live claim on a set's unit.
type lease struct {
	donor    string
	deadline time.Time
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

// attemptSet tracks every attempt at one outstanding unit. Guarded by the
// owning problemState.mu. The first lease lives in the struct, so an
// ordinary unit costs one allocation; results and donors stay nil unless
// the unit is spot-checked.
type attemptSet struct {
	uid int64
	// unit is nil for a set rebuilt from the journal until the DataManager
	// regenerates the unit under its original ID; no lease can be granted
	// before then.
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
	// open mirrors membership of problemState.open; trustedOnly narrows an
	// open spot-checked set to trusted donors.
	open, trustedOnly bool
	// speculated marks a set that was granted its second concurrent lease
	// under SpeculateAfter, so the tail-chasing scan never offers the unit
	// again.
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
	if set.leaseOf(donor) >= 0 {
		return true
	}
	for _, d := range set.donors {
		if d == donor {
			return true
		}
	}
	return false
}

// addSetLocked registers a fresh attempt set. Callers hold mu.
//
//dist:locked mu
func (ps *problemState) addSetLocked(uid int64, u *Unit, quorum int) *attemptSet {
	set := &attemptSet{uid: uid, unit: u, quorum: quorum}
	set.leases = set.first[:0]
	ps.units[uid] = set
	return set
}

// removeSetLocked takes a set out of the table: its unit folded, or was
// handed back to a Requeuer DataManager. Callers hold mu.
//
//dist:locked mu
func (ps *problemState) removeSetLocked(set *attemptSet) {
	delete(ps.units, set.uid)
	ps.setOpenLocked(set, false)
}

// setOpenLocked lists or unlists a set in ps.open. Leaving a set open
// requests a wake of parked donors: a lease on it is claimable. Callers
// hold mu.
//
//dist:locked mu
func (ps *problemState) setOpenLocked(set *attemptSet, want bool) {
	if want {
		ps.wake = true
	}
	if want == set.open {
		return
	}
	set.open = want
	if want {
		ps.open = append(ps.open, set)
		return
	}
	for i, o := range ps.open {
		if o == set {
			ps.open = append(ps.open[:i], ps.open[i+1:]...)
			return
		}
	}
}

// unlock releases ps.mu and then performs what the critical section
// deferred: waking parked donors (ps.wake) and applying trust outcomes
// (ps.trustDeltas) — donor locks are leaves, and enacting a quarantine
// walks every problem, so neither may run under a problem lock. Every
// critical section that can grant, drop, offer or fold ends here.
//
//dist:locked mu
func (s *Server) unlock(ps *problemState) {
	wake, deltas := ps.wake, ps.trustDeltas
	ps.wake, ps.trustDeltas = false, nil
	ps.mu.Unlock()
	if wake {
		s.wakeParked()
	}
	s.applyTrustDeltas(deltas)
}

// grantLeaseLocked is the only place a lease is recorded: it leases the
// set's unit to donor and returns the task, or nil when the donor is
// already involved in the set. A unit handed to a donor below the trust bar
// is spot-checked from here on — no unit an untrusted donor computes may
// fold unverified. Callers hold ps.mu.
//
//dist:locked mu
func (s *Server) grantLeaseLocked(ps *problemState, set *attemptSet, donor string, view dispatchView) *Task {
	if set.involves(donor) {
		return nil
	}
	if set.quorum == 1 && view.probation {
		set.quorum = s.opts.VerifyQuorum
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
	set.leases = append(set.leases, lease{donor: donor, deadline: view.now.Add(s.opts.Lease)})
	ps.inflightN.Add(1)
	ps.dispatched++
	s.publishUnitEventLocked(ps, kind, set.uid, donor)
	s.syncOpenLocked(ps, set)
	return &Task{ProblemID: ps.id, Unit: *set.unit, Epoch: ps.epoch, SharedDigest: ps.sharedDigest, Priority: ps.priority, Verify: set.quorum > 1}
}

// dropLeaseLocked is the only place a lease is lost, and the only copy of
// the failure caps. A set left with no lease returns to the pool: a
// Requeuer DataManager regenerates the unit (under a fresh ID — the set
// goes), otherwise the set stays in the table, open, with its cached
// payload, so a straggler's late result is still accepted until the unit is
// re-dispatched. A speculated unit therefore requeues when its last lease
// goes, not its first. Callers hold ps.mu.
//
//dist:locked mu
func (s *Server) dropLeaseLocked(ps *problemState, set *attemptSet, donor, reason string, kind failureKind, now time.Time) {
	i := set.leaseOf(donor)
	if i < 0 || ps.done {
		return
	}
	set.leases = append(set.leases[:i], set.leases[i+1:]...)
	ps.inflightN.Add(-1)
	set.lastDonor = donor
	switch kind {
	case failCompute:
		ps.consecFails++
		set.fails++
		if set.fails >= maxUnitAttempts {
			s.failLocked(ps, fmt.Errorf("dist: problem %q: unit %d failed %d times, last: %s",
				ps.id, set.uid, set.fails, reason))
			return
		}
		if ps.consecFails >= maxConsecutiveFailures {
			s.failLocked(ps, fmt.Errorf("dist: problem %q: %d consecutive failures without a completed unit, last: %s",
				ps.id, ps.consecFails, reason))
			return
		}
	case failTransport:
		ps.consecTransport++
		if ps.consecTransport >= maxConsecutiveTransport {
			s.failLocked(ps, fmt.Errorf("dist: problem %q: %d consecutive transport failures without a completed unit (bulk channel unreachable from every donor?), last: %s",
				ps.id, ps.consecTransport, reason))
			return
		}
	case failExpiry:
		if set.quorum > 1 {
			// A replica timeout is a quorum outcome that drags the donor's
			// trust down (gently — an outage is not a wrong answer).
			ps.trustDeltas = append(ps.trustDeltas, trustDelta{donor: donor, outcome: outcomeTimeout})
		}
	}
	if rq, ok := ps.p.DM.(Requeuer); ok && set.quorum == 1 && len(set.leases) == 0 {
		ps.removeSetLocked(set)
		rq.Requeue(set.uid)
		ps.reissued++
		ps.wake = true
		return
	}
	s.settleLocked(ps, set, now)
	if set.open {
		ps.reissued++ // the loss put a lease back up for dispatch
	}
}

// offerResultLocked takes one result for the set's unit and reports whether
// it was accepted (folded or held). Quorum 1: the first result folds,
// whoever computed it — a donor that outlived its lease but finished before
// the unit was re-dispatched saves recomputing the whole unit. Quorum k:
// the donor must be involved in the set, duplicates are dropped, and the
// result is held until the set resolves. Callers hold ps.mu.
//
//dist:locked mu
func (s *Server) offerResultLocked(ps *problemState, set *attemptSet, res *Result, trusted bool) bool {
	if set.quorum > 1 {
		if !set.involves(res.Donor) {
			return false // never leased a replica of this unit
		}
		for _, r := range set.results {
			if r.donor == res.Donor {
				return false // duplicate submission
			}
		}
	}
	if i := set.leaseOf(res.Donor); i >= 0 {
		set.leases = append(set.leases[:i], set.leases[i+1:]...)
		ps.inflightN.Add(-1)
	}
	if set.quorum == 1 {
		s.foldLocked(ps, set, res.Payload, res.Donor)
		return true
	}
	// A straggler replica whose lease already expired is still evidence:
	// the donor computed the unit, and its answer joins the comparison.
	set.results = append(set.results, heldResult{donor: res.Donor, payload: res.Payload, trusted: trusted})
	if ps.durable {
		// Held replicas are journaled so a pending quorum survives a
		// coordinator crash: replay rebuilds the set and the quorum
		// completes across the restart instead of recomputing every copy.
		// Buffered like folds — losing a sync interval's replicas merely
		// recomputes them.
		_ = s.journal.Append(&journal.Replica{ProblemID: ps.id, Epoch: ps.epoch, UnitID: set.uid, Donor: res.Donor, Payload: res.Payload})
	}
	s.settleLocked(ps, set, time.Now())
	return true
}

// foldLocked is the only live-path caller of DataManager.Consume: the set
// leaves the table, every lease still out on it gets a cancel notice, and
// the result is folded and journaled. Callers hold ps.mu.
//
//dist:locked mu
func (s *Server) foldLocked(ps *problemState, set *attemptSet, payload []byte, donor string) {
	s.cancelLeasesLocked(ps, set)
	ps.inflightN.Add(-int64(len(set.leases)))
	set.leases = nil
	ps.removeSetLocked(set)
	if cerr := ps.p.DM.Consume(set.uid, payload); cerr != nil {
		s.failLocked(ps, fmt.Errorf("dist: problem %q: Consume unit %d: %w", ps.id, set.uid, cerr))
		return
	}
	if ps.durable {
		// Folds are journaled with a buffered write before the ack; the
		// group commit makes them durable within one sync interval. A
		// crash inside that window loses at most an interval's folds,
		// which recovery regenerates and the fleet recomputes. An I/O
		// error here sticks in the store and surfaces at the next
		// checkpoint or Close; the fold itself proceeds — durability
		// degrades rather than aborting a healthy run.
		_ = s.journal.Append(&journal.Fold{ProblemID: ps.id, Epoch: ps.epoch, UnitID: set.uid, Payload: payload})
	}
	ps.completed++
	ps.consecFails = 0
	ps.consecTransport = 0
	if set.quorum > 1 {
		ps.verified++
		s.publishUnitEventLocked(ps, EventQuorumAgreed, set.uid, donor)
	}
	s.publishUnitEventLocked(ps, EventUnitDone, set.uid, donor)
	s.publishProgressLocked(ps)
	if ps.p.DM.Done() {
		s.finalizeLocked(ps)
	} else if ps.starved {
		// Folding a result only creates dispatchable work when a dispatch
		// scan previously starved on this problem (stage-barrier
		// DataManagers release their next stage on a fold). Wake parked
		// donors exactly then — an unconditional wake would make every
		// parked donor rescan on every result a busy fleet folds.
		ps.wake = true
	}
	ps.starved = false
}

// settleLocked brings a set to rest after any change to it: a spot-checked
// set folds if some result group now wins its quorum, or fails the problem
// if it exhausted every allowed donor without one; a set still outstanding
// is re-listed. now dates resolveLocked's donor-liveness test. Callers hold
// ps.mu.
//
//dist:locked mu
func (s *Server) settleLocked(ps *problemState, set *attemptSet, now time.Time) {
	if ps.done || (set.quorum > 1 && s.resolveLocked(ps, set, now)) {
		return
	}
	s.syncOpenLocked(ps, set)
}

// syncOpenLocked lists the set in ps.open exactly when it wants a lease.
// Callers hold ps.mu.
//
//dist:locked mu
func (s *Server) syncOpenLocked(ps *problemState, set *attemptSet) {
	want, trustedOnly := s.wantsLeaseLocked(ps, set)
	set.trustedOnly = trustedOnly
	ps.setOpenLocked(set, want)
}

// wantsLeaseLocked reports whether the set wants another lease, and whether
// it must go to a trusted donor. An ordinary set wants a lease while it has
// none — its second, speculative lease is offered, never wanted. A
// spot-checked set wants replicas while no result group can reach quorum
// with what is held plus what is outstanding; once some group has quorum
// count but (necessarily — it would have resolved otherwise) no trusted
// member, one trusted tie-breaker is wanted instead, and only while no
// replica is out — resolveLocked waits on any outstanding lease anyway —
// so a colluding pair cannot burn the donor cap by piling on untrusted
// agreement. Callers hold ps.mu.
//
//dist:locked mu
func (s *Server) wantsLeaseLocked(ps *problemState, set *attemptSet) (want, trustedOnly bool) {
	switch {
	case set.unit == nil:
		return false, false
	case set.quorum == 1:
		return len(set.leases) == 0, false
	case len(set.donors) >= maxVerifyDonors:
		return false, false
	}
	best := 0
	for _, g := range s.groupResultsLocked(ps, set) {
		if len(g) > best {
			best = len(g)
		}
	}
	if missing := set.quorum - best; missing > 0 {
		return missing > len(set.leases), false
	}
	return len(set.leases) == 0, true
}

// groupResultsLocked partitions the set's held results into equivalence
// groups (byte equality, or the DataManager's ResultEquivaler), each group
// a slice of result indices in arrival order. Callers hold ps.mu.
//
//dist:locked mu
func (s *Server) groupResultsLocked(ps *problemState, set *attemptSet) [][]int {
	eq := bytes.Equal
	if re, ok := ps.p.DM.(ResultEquivaler); ok {
		uid := set.uid
		eq = func(a, b []byte) bool { return re.EquivalentResults(uid, a, b) }
	}
	var groups [][]int
	for i := range set.results {
		placed := false
		for gi, g := range groups {
			if eq(set.results[g[0]].payload, set.results[i].payload) {
				groups[gi] = append(g, i)
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, []int{i})
		}
	}
	return groups
}

// resolveLocked folds a spot-checked set's winning result group, if one
// exists, charging every held result its quorum outcome (agree for the
// winners, disagree for the rest); or fails the problem when the set
// exhausted every allowed donor without agreement. It reports whether the
// set is finished either way. Once a trusted donor exists, a group with
// quorum count but no trusted member waits for a tie-breaker — unless none
// can ever arrive: no trusted donor has weighed in on the set, no replica
// is still out, and every live donor is already involved in it. That is
// evaluated on every offer and again by the expiry sweep, since liveness
// and trust change with time. Callers hold ps.mu.
//
//dist:locked mu
func (s *Server) resolveLocked(ps *problemState, set *attemptSet, now time.Time) bool {
	groups := s.groupResultsLocked(ps, set)
	trustedVoted := false
	for _, r := range set.results {
		trustedVoted = trustedVoted || r.trusted
	}
	winner := -1
	for gi, g := range groups {
		if len(g) < set.quorum {
			continue
		}
		if !groupHasTrusted(set, g) && s.trustedDonorExists() &&
			(trustedVoted || len(set.leases) > 0 || s.liveDonorExcept(now, set.involves)) {
			continue
		}
		winner = gi
		break
	}
	if winner < 0 {
		if len(set.donors) >= maxVerifyDonors && len(set.leases) == 0 {
			s.failLocked(ps, fmt.Errorf("dist: problem %q: unit %d: verification exhausted %d donors without quorum agreement (nondeterministic results need a ResultEquivaler; otherwise the fleet is majority-malicious)",
				ps.id, set.uid, len(set.donors)))
			return true
		}
		return false
	}
	win := groups[winner]
	// Fold a trusted member's payload when one exists (all winners are
	// equivalent, but byte-exact provenance should favor the proven donor).
	pick := win[0]
	for _, i := range win {
		if set.results[i].trusted {
			pick = i
			break
		}
	}
	loser := ""
	for gi, g := range groups {
		outcome := outcomeAgree
		if gi != winner {
			outcome = outcomeDisagree
			loser = set.results[g[0]].donor
		}
		for _, i := range g {
			ps.trustDeltas = append(ps.trustDeltas, trustDelta{donor: set.results[i].donor, outcome: outcome})
		}
	}
	if len(groups) > 1 {
		ps.conflicts++
		s.publishUnitEventLocked(ps, EventQuorumConflict, set.uid, loser)
	}
	s.foldLocked(ps, set, set.results[pick].payload, set.results[pick].donor)
	return true
}

// groupHasTrusted reports whether any result of the group was submitted
// by a then-trusted donor.
func groupHasTrusted(set *attemptSet, group []int) bool {
	for _, i := range group {
		if set.results[i].trusted {
			return true
		}
	}
	return false
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
	ds := s.touchDonor(res.Donor, time.Now())
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
	set := ps.units[res.UnitID]
	// A non-matching epoch marks a straggler computed for a forgotten
	// predecessor of this ID: unit numbering restarts per incarnation, so
	// the IDs can collide while the payloads mean entirely different work.
	// A missing set means the unit already folded (or was regenerated under
	// a new ID). Either way the result is dropped.
	if ps.done || (res.Epoch != 0 && res.Epoch != ps.epoch) || set == nil {
		ps.mu.Unlock()
		return false, nil
	}
	unit := set.unit
	accepted = s.offerResultLocked(ps, set, res, donorTrusted)
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
// the payload or shared data: those say nothing about the unit itself and
// must not feed the poisoned-unit caps — half a fleet with a firewalled
// bulk port would otherwise fail the whole problem while healthy donors
// remain. A non-zero epoch that does not match the
// problem's incarnation marks a straggler report from a forgotten
// predecessor of a reused ID: dropped, like its submitResult counterpart,
// so it cannot revoke a live lease of the successor when donor names
// collide.
//
// The donor's reputation (its Failures count, and lastSeen liveness) is
// only touched AFTER the report validates against a live lease held by
// this donor under the current epoch: a report for a never-leased unit, a
// stale epoch, or someone else's lease says nothing about this donor and
// must not move its stats.
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
	ps.mu.Lock()
	set := ps.units[unitID]
	if ps.done || (epoch != 0 && epoch != ps.epoch) || set == nil || set.leaseOf(donor) < 0 {
		// No live lease of this donor: the lease already expired and the
		// unit went to someone else, or the reporter is an impostor.
		// Results from stragglers are accepted; their failure reports must
		// not revoke another donor's lease.
		ps.mu.Unlock()
		return nil
	}
	now := time.Now()
	s.dropLeaseLocked(ps, set, donor, reason, kind, now)
	s.unlock(ps)
	s.touchDonor(donor, now)
	s.bumpFailures(donor)
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
	if notices != nil {
		delete(s.cancels, donor)
	}
	s.cancelMu.Unlock()
	return notices, nil
}

// cancelLeasesLocked queues a cancel notice for every donor holding a live
// lease on the set — its unit just folded from another donor's result, or
// its problem ended (finalized early, failed, forgotten, closed) — so they
// abort compute whose result would be dropped. Callers hold ps.mu; cancelMu
// is a leaf below it.
//
//dist:locked mu
func (s *Server) cancelLeasesLocked(ps *problemState, set *attemptSet) {
	if len(set.leases) == 0 {
		return
	}
	s.cancelMu.Lock()
	defer s.cancelMu.Unlock()
	for _, l := range set.leases {
		q := append(s.cancels[l.donor], CancelNotice{ProblemID: ps.id, Epoch: ps.epoch, UnitID: set.uid})
		if len(q) > maxPendingCancels {
			q = q[len(q)-maxPendingCancels:]
		}
		s.cancels[l.donor] = q
	}
}

// expiryLoop periodically reissues units whose lease has lapsed — the
// fault-tolerance path that lets the run survive donors being powered off.
func (s *Server) expiryLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.opts.ExpiryScan)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.expireLeases(time.Now())
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
		var blamed []string
		ps.mu.Lock()
		for _, set := range ps.units {
			before := len(blamed)
			// A drop removes leases[i] — or, when it resolves the set or
			// fails the problem, ends the loop.
			for i := 0; i < len(set.leases) && !ps.done; {
				if l := set.leases[i]; now.After(l.deadline) {
					blamed = append(blamed, l.donor)
					s.dropLeaseLocked(ps, set, l.donor, "lease expired", failExpiry, now)
				} else {
					i++
				}
			}
			if len(blamed) == before && set.quorum > 1 && len(set.results) >= set.quorum {
				s.settleLocked(ps, set, now)
			}
		}
		s.unlock(ps)
		// Donor stats are charged outside the problem lock (lock order:
		// problem locks never nest around donor state).
		for _, name := range blamed {
			s.bumpFailures(name)
		}
	}
}
