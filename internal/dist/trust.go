package dist

// Donor standing for result verification (BOINC-style quorum spot
// checking). The paper's premise is folding results computed on donated
// machines; without verification any donor can submit an arbitrary fold
// and the coordinator trusts it blindly. With ServerOptions.VerifyFraction
// set, a sampled fraction of units — and every unit handed to a donor
// that is not trusted — becomes an attempt set with quorum VerifyQuorum
// (attempts.go). Quorum outcomes feed the per-donor trust EWMA kept here,
// the only per-donor verification state: a donor is trusted iff it is not
// quarantined and its trust is at or above Server.trustBar, and donors
// falling below the trust floor are quarantined.

import (
	"slices"
	"sort"
	"time"

	"repro/internal/sched"
)

// Trust EWMA weights per quorum outcome. Disagreement is punished much
// harder than it is forgiven: from neutral (0.5), two disagreements cross
// the default quarantine floor (0.3), while climbing back the same
// distance takes many agreements. Timeouts drag gently — an outage is not
// a wrong answer.
const (
	trustAgreeAlpha    = 0.15
	trustDisagreeAlpha = 0.5
	trustTimeoutAlpha  = 0.1
)

// verifyOutcome classifies one donor's part in a quorum resolution.
type verifyOutcome int

const (
	outcomeAgree verifyOutcome = iota
	outcomeDisagree
	outcomeTimeout
)

// trustDelta is one pending trust update, collected under a problem lock
// (problemState.trustDeltas) and applied after it drops: donor locks are
// leaves, and enacting a quarantine walks every problem.
type trustDelta struct {
	donor   string
	outcome verifyOutcome
}

// dispatchView is the per-request donor snapshot the dispatch scan
// carries: the request's clock reading, scheduling stats, and the donor's
// verification standing (zero values when verification is disabled).
type dispatchView struct {
	now       time.Time
	stats     sched.DonorStats
	trust     float64
	probation bool
}

// verifyEnabled reports whether quorum spot-checking is configured.
func (s *Server) verifyEnabled() bool { return s.opts.VerifyFraction > 0 }

// probationBar is the trust a donor must hold to be trusted: what
// ProbationUnits consecutive agreements make of neutral trust, so a new
// donor graduates on exactly its ProbationUnits-th agreement (the same
// float steps, hence bit-identical). Zero — everyone trusted — when
// probation is off.
func probationBar(units int) float64 {
	if units <= 0 {
		return 0
	}
	bar := sched.TrustNeutral
	for ; units > 0; units-- {
		bar = nextTrust(bar, outcomeAgree)
	}
	return bar
}

// trustedLocked is the one trust predicate every probation question reads:
// not quarantined, and trust at or above the bar. A trusted donor that
// loses a quorum or lets a replica lease lapse drops below the bar and is
// spot-checked again until agreements earn it back. Callers hold ds.mu.
//
//dist:locked mu
func (s *Server) trustedLocked(ds *donorState) bool {
	return !ds.quarantined && ds.trust >= s.trustBar
}

// standing reports whether a donor is trusted or quarantined; neither for
// an unknown donor or with verification disabled.
func (s *Server) standing(ds *donorState) (trusted, quarantined bool) {
	if ds == nil || !s.verifyEnabled() {
		return false, false
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return s.trustedLocked(ds), ds.quarantined
}

// trustedDonorExists reports whether some known donor is trusted — the
// fleet-wide condition under which a quorum must include a trusted member
// (see resolveLocked). It takes donor locks, possibly under a problem
// lock, which the lock order permits: donor locks are leaves.
func (s *Server) trustedDonorExists() bool {
	s.donorMu.RLock()
	defer s.donorMu.RUnlock()
	for _, ds := range s.donors {
		ds.mu.Lock()
		trusted := s.trustedLocked(ds)
		ds.mu.Unlock()
		if trusted {
			return true
		}
	}
	return false
}

// donorDispatchView snapshots the donor's stats and verification standing
// for one dispatch scan.
func (s *Server) donorDispatchView(ds *donorState, now time.Time) (view dispatchView, quarantined bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	view.now, view.stats = now, ds.stats
	if !s.verifyEnabled() {
		return view, false
	}
	if ds.quarantined {
		return view, true
	}
	view.trust = ds.trust
	view.probation = !s.trustedLocked(ds)
	return view, false
}

// scaleBudgetByTrust shrinks a below-neutral donor's unit budget
// proportionally, floored at one cost unit: less of the computation rides
// on a machine whose results are suspect.
func scaleBudgetByTrust(budget int64, trust float64) int64 {
	if trust <= 0 || trust >= sched.TrustNeutral {
		return budget
	}
	b := int64(float64(budget) * (trust / sched.TrustNeutral))
	if b < 1 {
		b = 1
	}
	return b
}

// verifyBacklogLocked reports whether the donor is involved in at least
// limit pending spot-checked sets — outstanding unverified work
// attributable to it. An untrusted donor at ProbationUnits of backlog
// receives no fresh units (it may still serve other sets' replicas):
// without the bound, a fast unproven donor streams primaries quicker than
// the fleet resolves them and every one must be replicated, so the
// cold-start (or an attacker) multiplies the whole problem by the quorum.
// Callers hold mu.
//
//dist:locked mu
func (ps *problemState) verifyBacklogLocked(donor string, limit int) (atCap bool) {
	n := 0
	for _, set := range ps.units {
		if set.quorum > 1 && set.involves(donor) {
			if n++; n >= limit {
				return true
			}
		}
	}
	return false
}

// sampleVerifyLocked advances the problem's deterministic sampling
// accumulator by VerifyFraction and reports whether this fresh dispatch
// should be spot-checked. Callers hold ps.mu.
//
//dist:locked mu
func (s *Server) sampleVerifyLocked(ps *problemState) bool {
	ps.verifyAcc += s.opts.VerifyFraction
	if ps.verifyAcc >= 1 {
		ps.verifyAcc--
		return true
	}
	return false
}

// nextTrust is the pure reputation step: one quorum outcome folded into a
// trust EWMA. Agreement pulls toward 1, disagreement and timeout decay
// toward 0 — so trust under repeated disagreement is strictly decreasing
// and never recovers without agreements.
func nextTrust(cur float64, o verifyOutcome) float64 {
	if cur < 0 {
		cur = 0
	}
	switch o {
	case outcomeAgree:
		return cur + (1-cur)*trustAgreeAlpha
	case outcomeDisagree:
		return cur * (1 - trustDisagreeAlpha)
	default: // outcomeTimeout
		return cur * (1 - trustTimeoutAlpha)
	}
}

// applyTrustDeltas feeds quorum outcomes into donor trust EWMAs — which
// alone moves a donor across the trust bar, either way — and enacts
// quarantine for donors crossing the floor. Must be called with no problem
// lock held: donor locks are leaves, and a quarantine walks every
// problem's attempt table.
func (s *Server) applyTrustDeltas(deltas []trustDelta) {
	if len(deltas) == 0 || !s.verifyEnabled() {
		return
	}
	var newlyQuarantined []string
	for _, d := range deltas {
		ds := s.peekDonor(d.donor)
		if ds == nil {
			continue // pruned while the outcome was pending
		}
		ds.mu.Lock()
		if !ds.quarantined {
			ds.trust = nextTrust(ds.trust, d.outcome)
			if floor := s.opts.QuarantineBelow; floor > 0 && ds.trust < floor {
				ds.quarantined = true
				newlyQuarantined = append(newlyQuarantined, d.donor)
			}
		}
		ds.mu.Unlock()
	}
	for _, name := range newlyQuarantined {
		s.quarantineDonor(name)
	}
}

// quarantineDonor enacts one donor's quarantine across the server: every
// problem drops the donor's leases (failure kind verify), its held results
// — a proven-bad donor's answers must not keep counting toward quorums —
// and its places in spot-checked sets, which must not use up a set's
// maxVerifyDonors while an honest result waits there for a tie-breaker;
// then it publishes EventDonorQuarantined. Called with no locks held;
// evicting results can itself resolve quorums, whose outcomes may cascade
// into further quarantines (bounded: each donor transitions once).
func (s *Server) quarantineDonor(name string) {
	now := time.Now()
	for _, ps := range s.allProblems() {
		ps.mu.Lock()
		for _, set := range ps.units {
			if ps.done {
				break
			}
			before := len(set.results) + len(set.donors)
			set.results = slices.DeleteFunc(set.results, func(r heldResult) bool { return r.donor == name })
			set.donors = slices.DeleteFunc(set.donors, func(d string) bool { return d == name })
			evicted := len(set.results)+len(set.donors) < before
			if set.leaseOf(name) >= 0 {
				s.dropLeaseLocked(ps, set, name, "donor quarantined", failVerify, now)
			} else if evicted {
				s.settleLocked(ps, set, now)
			}
		}
		if !ps.done {
			s.publishUnitEventLocked(ps, EventDonorQuarantined, 0, name)
		}
		s.unlock(ps)
	}
}

// DonorTrustInfo is a point-in-time view of one donor's verification
// standing (see Server.DonorTrust).
type DonorTrustInfo struct {
	// Trust is the donor's reputation EWMA in [0, 1].
	Trust float64
	// Probation reports a donor below the trust bar — the trust
	// ServerOptions.ProbationUnits agreements earn from neutral — whose
	// every unit is spot-checked; a quarantined donor is neither on
	// probation nor trusted.
	Probation   bool
	Quarantined bool
}

// DonorTrust reports one donor's verification standing; ok is false for a
// donor the server has never seen. Zero values with verification disabled.
func (s *Server) DonorTrust(name string) (DonorTrustInfo, bool) {
	ds := s.peekDonor(name)
	if ds == nil {
		return DonorTrustInfo{}, false
	}
	if !s.verifyEnabled() {
		return DonorTrustInfo{}, true
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return DonorTrustInfo{
		Trust:       ds.trust,
		Probation:   !ds.quarantined && !s.trustedLocked(ds),
		Quarantined: ds.quarantined,
	}, true
}

// QuarantinedDonors lists the currently quarantined donors, sorted.
func (s *Server) QuarantinedDonors() []string {
	s.donorMu.RLock()
	var names []string
	for name, ds := range s.donors {
		ds.mu.Lock()
		if ds.quarantined {
			names = append(names, name)
		}
		ds.mu.Unlock()
	}
	s.donorMu.RUnlock()
	sort.Strings(names)
	return names
}

// VerifyStats summarises the fleet's verification standing.
type VerifyStats struct {
	// Trusted counts donors at or above the trust bar and not quarantined;
	// Probation counts the other non-quarantined donors; Quarantined counts
	// donors that fell below the trust floor (quarantine is permanent).
	Trusted, Probation, Quarantined int
}

// FleetTrust reports the fleet-wide verification tallies. All zero with
// verification disabled.
func (s *Server) FleetTrust() VerifyStats {
	var vs VerifyStats
	if !s.verifyEnabled() {
		return vs
	}
	s.donorMu.RLock()
	defer s.donorMu.RUnlock()
	for _, ds := range s.donors {
		ds.mu.Lock()
		switch {
		case ds.quarantined:
			vs.Quarantined++
		case s.trustedLocked(ds):
			vs.Trusted++
		default:
			vs.Probation++
		}
		ds.mu.Unlock()
	}
	return vs
}
