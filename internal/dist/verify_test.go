package dist

// Property tests for quorum verification and donor trust: the EWMA's
// monotonicity, probation's always-spot-check guarantee, quorum's
// never-fold-a-minority rule, replica-set donor distinctness, quarantine's
// exactly-once requeue, readmission, and the crash-recovery of pending
// verification sets.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
)

// recDM hands out `units` unit-cost units with distinct payloads and
// records every folded payload — the wrong-fold/double-fold detector for
// the manual-submit tests below. Like every DataManager it runs under the
// problem lock; the mutex covers the test's own reads.
type recDM struct {
	mu    sync.Mutex
	units int64
	seq   int64
	folds map[int64][][]byte
}

func newRecDM(units int64) *recDM {
	return &recDM{units: units, folds: make(map[int64][][]byte)}
}

func (d *recDM) NextUnit(int64) (*Unit, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.seq >= d.units {
		return nil, false, nil
	}
	d.seq++
	return &Unit{ID: d.seq, Algorithm: "verify-test/echo", Cost: 1, Payload: []byte{byte(d.seq)}}, true, nil
}

func (d *recDM) Consume(unitID int64, payload []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.folds[unitID] = append(d.folds[unitID], append([]byte(nil), payload...))
	return nil
}

func (d *recDM) Done() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.folds)) >= d.units
}

func (d *recDM) FinalResult() ([]byte, error) { return nil, nil }

func (d *recDM) foldsOf(unitID int64) [][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.folds[unitID]
}

// submitRaw submits an arbitrary payload for the task, reporting whether
// the server accepted it.
func submitRaw(t *testing.T, s *Server, task *Task, donor string, payload []byte) bool {
	t.Helper()
	accepted, err := s.submitResult(bg, &Result{
		ProblemID: task.ProblemID, UnitID: task.Unit.ID, Payload: payload,
		Elapsed: time.Millisecond, Donor: donor, Epoch: task.Epoch,
	})
	if err != nil {
		t.Fatalf("submitResult(%s): %v", donor, err)
	}
	return accepted
}

// verifyTestOptions is the shared bag: deterministic single-unit
// dispatches, verification on every unit, quorum 2, no quarantine, no
// probation — individual tests override the knobs they exercise.
func verifyTestOptions() ServerOptions {
	return ServerOptions{
		Policy:          sched.Fixed{Size: 1},
		VerifyFraction:  1,
		VerifyQuorum:    2,
		ProbationUnits:  -1,
		QuarantineBelow: -1,
	}
}

// TestTrustEWMAMonotone pins the reputation step's properties: strictly
// decreasing under disagreement and timeout, strictly increasing (toward
// 1) under agreement, always within [0, 1], and — the quarantine
// guarantee — repeated disagreement from neutral crosses the default
// floor within two steps and never climbs back without agreements.
func TestTrustEWMAMonotone(t *testing.T) {
	for _, outcome := range []verifyOutcome{outcomeDisagree, outcomeTimeout} {
		cur := sched.TrustNeutral
		for i := 0; i < 64; i++ {
			next := nextTrust(cur, outcome)
			if next >= cur {
				t.Fatalf("outcome %d step %d: trust %v -> %v did not decrease", outcome, i, cur, next)
			}
			if next < 0 {
				t.Fatalf("outcome %d step %d: trust %v below 0", outcome, i, next)
			}
			cur = next
		}
	}
	cur := 0.01
	for i := 0; i < 64; i++ {
		next := nextTrust(cur, outcomeAgree)
		if next <= cur || next > 1 {
			t.Fatalf("agree step %d: trust %v -> %v not increasing within (cur, 1]", i, cur, next)
		}
		cur = next
	}
	if after2 := nextTrust(nextTrust(sched.TrustNeutral, outcomeDisagree), outcomeDisagree); after2 >= 0.3 {
		t.Errorf("two disagreements from neutral left trust at %v, above the default 0.3 floor", after2)
	}
}

// TestProbationAlwaysVerifies: a donor inside its probation window has
// every unit spot-checked regardless of the sampling fraction, and stops
// being spot-checked (modulo sampling) once it has accrued the configured
// quorum agreements — while a donor joining later starts its own window.
func TestProbationAlwaysVerifies(t *testing.T) {
	o := verifyTestOptions()
	o.VerifyFraction = 0.0001 // sampling alone would verify ~nothing
	o.ProbationUnits = 2
	s := newTestServer(o)
	defer s.Close()
	dm := newRecDM(20)
	if err := s.Submit(bg, &Problem{ID: "prob", DM: dm}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		ta := dispatch(t, s, "a")
		if !ta.Verify {
			t.Fatalf("round %d: unit %d for probationary donor a not spot-checked", round, ta.Unit.ID)
		}
		tb := dispatch(t, s, "b")
		if !tb.Verify || tb.Unit.ID != ta.Unit.ID {
			t.Fatalf("round %d: donor b got %+v, want a verify replica of unit %d", round, tb, ta.Unit.ID)
		}
		if !submitRaw(t, s, ta, "a", []byte{42}) {
			t.Fatalf("round %d: primary replica result rejected", round)
		}
		if !submitRaw(t, s, tb, "b", []byte{42}) {
			t.Fatalf("round %d: agreeing replica result rejected", round)
		}
		if got := dm.foldsOf(ta.Unit.ID); len(got) != 1 {
			t.Fatalf("round %d: unit %d folded %d times, want exactly 1", round, ta.Unit.ID, len(got))
		}
	}
	for _, donor := range []string{"a", "b"} {
		info, ok := s.DonorTrust(donor)
		if !ok || info.Probation {
			t.Fatalf("donor %s after 2 agreements: %+v, ok=%v; want out of probation", donor, info, ok)
		}
	}
	if task := dispatch(t, s, "a"); task.Verify {
		t.Error("post-probation dispatch still spot-checked at fraction 0.0001")
	}
	if task := dispatch(t, s, "late"); !task.Verify {
		t.Error("late-joining donor's first unit not spot-checked")
	}
}

// TestDemotedDonorIsSpotCheckedAgain: trust, not a count of past
// agreements, decides probation. Donor a graduates, then loses a quorum on
// a late donor's unit — its trust halves to just above the quarantine
// floor, below the bar — so its next unit is spot-checked again even at a
// sampling fraction that would verify almost nothing.
func TestDemotedDonorIsSpotCheckedAgain(t *testing.T) {
	o := verifyTestOptions()
	o.VerifyFraction = 0.0001
	o.ProbationUnits = 2
	o.QuarantineBelow = 0.3
	s := newTestServer(o)
	defer s.Close()
	if err := s.Submit(bg, &Problem{ID: "demote", DM: newRecDM(20)}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		ta, tb := dispatch(t, s, "a"), dispatch(t, s, "b")
		submitRaw(t, s, ta, "a", []byte("ok"))
		submitRaw(t, s, tb, "b", []byte("ok"))
	}
	if info, _ := s.DonorTrust("a"); info.Probation {
		t.Fatalf("a still on probation after 2 agreements: %+v", info)
	}
	// c is on probation, so its unit is replicated — to a, which lies; b
	// breaks the tie against a.
	tc := dispatch(t, s, "c")
	ta := dispatch(t, s, "a")
	if !tc.Verify || ta.Unit.ID != tc.Unit.ID {
		t.Fatalf("a got %+v, want the replica of c's unit %d", ta, tc.Unit.ID)
	}
	submitRaw(t, s, ta, "a", []byte("WRONG"))
	submitRaw(t, s, tc, "c", []byte("right"))
	tb := dispatch(t, s, "b")
	if tb.Unit.ID != tc.Unit.ID {
		t.Fatalf("b got unit %d, want the tie-breaker of %d", tb.Unit.ID, tc.Unit.ID)
	}
	submitRaw(t, s, tb, "b", []byte("right"))
	if info, _ := s.DonorTrust("a"); info.Quarantined {
		t.Fatalf("a quarantined after one lost quorum: %+v", info)
	}
	if task := dispatch(t, s, "a"); !task.Verify {
		t.Errorf("demoted donor a's next unit %d not spot-checked", task.Unit.ID)
	}
	if info, _ := s.DonorTrust("a"); !info.Probation {
		t.Errorf("a after losing a quorum: %+v, want back on probation", info)
	}
}

// TestTwoDonorQuorumWithProbationDrains is the liveness case for the
// smallest verifying fleet: two donors, quorum 2, default probation, so
// every spot-checked unit needs both donors and no third can ever break a
// tie. Seeded interleavings of requests and submissions run in both submit
// orders of a replicated unit, and include submissions whose trust
// snapshot is taken before the peer's result on another unit graduates
// both donors and whose offer lands after it — the window between
// submitResult's standing read and its resolve. Every unit must fold
// exactly once and Wait must return promptly.
func TestTwoDonorQuorumWithProbationDrains(t *testing.T) {
	graduatedInWindow := 0
	for seed := int64(0); seed < 50; seed++ {
		for _, replicaFirst := range []bool{false, true} {
			graduatedInWindow += runTwoDonorDrain(t, seed, replicaFirst)
		}
	}
	if graduatedInWindow == 0 {
		t.Error("no interleaving graduated a donor between a submission's trust snapshot and its offer")
	}
}

// heldTask is a task some donor holds and has not yet answered.
type heldTask struct {
	donor string
	task  *Task
}

// runTwoDonorDrain runs one seed and reports how many stale-snapshot
// submissions straddled the donors' graduation.
func runTwoDonorDrain(t *testing.T, seed int64, replicaFirst bool) (graduatedInWindow int) {
	const units = 200
	rng := rand.New(rand.NewSource(seed))
	s := newTestServer(ServerOptions{Policy: sched.Fixed{Size: 1}, VerifyFraction: 0.05, VerifyQuorum: 2})
	defer s.Close()
	dm := newRecDM(units)
	if err := s.Submit(bg, &Problem{ID: "pair", DM: dm}); err != nil {
		t.Fatal(err)
	}
	ps, _ := s.lookup("pair")
	donors := [2]string{"x", "y"}
	var out []heldTask // grant order
	result := func(h heldTask) *Result {
		return &Result{ProblemID: h.task.ProblemID, UnitID: h.task.Unit.ID, Payload: h.task.Unit.Payload,
			Elapsed: time.Millisecond, Donor: h.donor, Epoch: h.task.Epoch}
	}
	submit := func(h heldTask) {
		if _, err := s.submitResult(bg, result(h)); err != nil {
			t.Fatalf("seed %d: submitResult: %v", seed, err)
		}
	}
	// take removes a random held task — or the other replica of its unit,
	// when the submit order puts that one first.
	take := func() heldTask {
		i := rng.Intn(len(out))
		for j, o := range out {
			if o.task.Unit.ID == out[i].task.Unit.ID && (replicaFirst && j > i || !replicaFirst && j < i) {
				i = j
				break
			}
		}
		h := out[i]
		out = append(out[:i], out[i+1:]...)
		return h
	}
	for step := 0; step < 20*units; step++ {
		if st, _ := s.Status(bg, "pair"); st.Done {
			break
		}
		switch op := rng.Intn(6); {
		case op < 3 || len(out) == 0:
			donor := donors[rng.Intn(2)]
			task, _, err := s.RequestTask(bg, donor)
			if err != nil {
				t.Fatalf("seed %d: RequestTask: %v", seed, err)
			}
			if task != nil {
				out = append(out, heldTask{donor, task})
			}
		case op == 5:
			// submitResult's window: snapshot h's standing, let the peer's
			// result for another unit land, then offer h's.
			h := take()
			var peers []int
			for i, o := range out {
				if o.donor != h.donor && o.task.Unit.ID != h.task.Unit.ID {
					peers = append(peers, i)
				}
			}
			if len(peers) == 0 {
				submit(h)
				break
			}
			trusted, _ := s.standing(s.peekDonor(h.donor))
			i := peers[rng.Intn(len(peers))]
			peer := out[i]
			out = append(out[:i], out[i+1:]...)
			submit(peer)
			if !trusted && s.trustedDonorExists() {
				graduatedInWindow++
			}
			ps.mu.Lock()
			if set := ps.units[h.task.Unit.ID]; set != nil && !ps.done {
				s.offerResultLocked(ps, set, result(h), trusted)
			}
			s.unlock(ps)
		default:
			submit(take())
		}
	}
	ctx, cancel := context.WithTimeout(bg, 2*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, "pair"); err != nil {
		ps.mu.Lock()
		outstanding := len(ps.units)
		ps.mu.Unlock()
		t.Fatalf("seed %d replicaFirst %v: Wait: %v (%d units outstanding, %d held tasks)", seed, replicaFirst, err, outstanding, len(out))
	}
	for id := int64(1); id <= units; id++ {
		if n := len(dm.foldsOf(id)); n != 1 {
			t.Fatalf("seed %d replicaFirst %v: unit %d folded %d times", seed, replicaFirst, id, n)
		}
	}
	return graduatedInWindow
}

// TestQuorumNeverFoldsMinority: with results X, Y, Y held for one unit,
// the quorum folds Y exactly once, records the conflict, and charges the
// minority donor a disagreement — X never reaches the DataManager.
func TestQuorumNeverFoldsMinority(t *testing.T) {
	s := newTestServer(verifyTestOptions())
	defer s.Close()
	dm := newRecDM(1)
	if err := s.Submit(bg, &Problem{ID: "minority", DM: dm}); err != nil {
		t.Fatal(err)
	}
	ta := dispatch(t, s, "a")
	tb := dispatch(t, s, "b")
	if !ta.Verify || !tb.Verify || ta.Unit.ID != tb.Unit.ID {
		t.Fatalf("expected two replicas of one unit, got %+v / %+v", ta, tb)
	}
	if !submitRaw(t, s, ta, "a", []byte("X")) {
		t.Fatal("a's result rejected")
	}
	if !submitRaw(t, s, tb, "b", []byte("Y")) {
		t.Fatal("b's result rejected")
	}
	// 1-vs-1: no quorum yet, nothing may fold, and a tie-breaking replica
	// must be wanted.
	if got := dm.foldsOf(ta.Unit.ID); len(got) != 0 {
		t.Fatalf("folded %v before quorum", got)
	}
	tc := dispatch(t, s, "c")
	if !tc.Verify || tc.Unit.ID != ta.Unit.ID {
		t.Fatalf("tie-breaker dispatch got %+v, want replica of unit %d", tc, ta.Unit.ID)
	}
	if !submitRaw(t, s, tc, "c", []byte("Y")) {
		t.Fatal("c's result rejected")
	}
	folds := dm.foldsOf(ta.Unit.ID)
	if len(folds) != 1 || string(folds[0]) != "Y" {
		t.Fatalf("folds = %q, want exactly one Y", folds)
	}
	stats, err := s.Stats(bg, "minority")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Verified != 1 || stats.Conflicts != 1 {
		t.Errorf("Verified/Conflicts = %d/%d, want 1/1", stats.Verified, stats.Conflicts)
	}
	ia, _ := s.DonorTrust("a")
	ib, _ := s.DonorTrust("b")
	if ia.Trust >= sched.TrustNeutral {
		t.Errorf("minority donor a's trust %v did not drop below neutral", ia.Trust)
	}
	if ib.Trust <= sched.TrustNeutral {
		t.Errorf("majority donor b's trust %v did not rise above neutral", ib.Trust)
	}
}

// TestReplicaDonorsDistinct: a verification set never leases two replicas
// of its unit to one donor, even across that donor's repeated requests.
func TestReplicaDonorsDistinct(t *testing.T) {
	s := newTestServer(verifyTestOptions())
	defer s.Close()
	if err := s.Submit(bg, &Problem{ID: "distinct", DM: newRecDM(1)}); err != nil {
		t.Fatal(err)
	}
	ta := dispatch(t, s, "a")
	if !ta.Verify {
		t.Fatalf("fraction 1 dispatch not verified: %+v", ta)
	}
	for i := 0; i < 3; i++ {
		task, _, err := s.RequestTask(bg, "a")
		if err != nil {
			t.Fatal(err)
		}
		if task != nil {
			t.Fatalf("donor a holding a replica of unit %d was leased %+v of the same set", ta.Unit.ID, task)
		}
	}
	tb := dispatch(t, s, "b")
	if !tb.Verify || tb.Unit.ID != ta.Unit.ID {
		t.Fatalf("donor b got %+v, want the second replica of unit %d", tb, ta.Unit.ID)
	}
}

// TestQuarantineRequeuesInflightOnce: when a donor crosses the trust
// floor, its unverified in-flight lease is requeued exactly once, its
// later result for that lease is rejected, and it stops receiving work.
func TestQuarantineRequeuesInflightOnce(t *testing.T) {
	o := verifyTestOptions()
	o.VerifyFraction = 0.5 // alternate: unit1 unverified, unit2 verified
	o.QuarantineBelow = 0.3
	s := newTestServer(o)
	defer s.Close()
	dm := newRecDM(3)
	if err := s.Submit(bg, &Problem{ID: "quar", DM: dm}); err != nil {
		t.Fatal(err)
	}
	held := dispatch(t, s, "evil") // unit1, unverified, stays in flight
	if held.Verify {
		t.Fatalf("first unit at fraction 0.5 unexpectedly verified")
	}
	tv := dispatch(t, s, "evil") // unit2, verified, primary=evil
	if !tv.Verify {
		t.Fatalf("second unit at fraction 0.5 not verified")
	}
	tb := dispatch(t, s, "b")
	if tb.Unit.ID != tv.Unit.ID {
		t.Fatalf("donor b got unit %d, want replica of %d", tb.Unit.ID, tv.Unit.ID)
	}
	if !submitRaw(t, s, tv, "evil", []byte("WRONG")) {
		t.Fatal("evil's held result rejected before any quorum")
	}
	if !submitRaw(t, s, tb, "b", []byte("right")) {
		t.Fatal("b's result rejected")
	}
	tc := dispatch(t, s, "c")
	if tc.Unit.ID != tv.Unit.ID {
		t.Fatalf("donor c got unit %d, want the tie-breaker of %d", tc.Unit.ID, tv.Unit.ID)
	}
	if !submitRaw(t, s, tc, "c", []byte("right")) {
		t.Fatal("c's result rejected")
	}
	// The quorum resolved against evil: one disagreement from neutral is
	// 0.25, under the floor — quarantined, and unit1's lease requeued.
	if q := s.QuarantinedDonors(); len(q) != 1 || q[0] != "evil" {
		t.Fatalf("QuarantinedDonors = %v, want [evil]", q)
	}
	stats, err := s.Stats(bg, "quar")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reissued != 1 {
		t.Errorf("Reissued = %d, want exactly 1 (the quarantined donor's in-flight unit)", stats.Reissued)
	}
	if submitRaw(t, s, held, "evil", []byte("late")) {
		t.Error("quarantined donor's result was accepted")
	}
	if task, _, err := s.RequestTask(bg, "evil"); err != nil || task != nil {
		t.Errorf("quarantined donor was dispatched %+v, %v", task, err)
	}
	// The requeued unit goes back into play for someone else — once.
	td := dispatch(t, s, "d")
	if td.Unit.ID != held.Unit.ID {
		t.Fatalf("donor d got unit %d, want the requeued unit %d", td.Unit.ID, held.Unit.ID)
	}
	if stats2, _ := s.Stats(bg, "quar"); stats2.Reissued != 1 {
		t.Errorf("Reissued = %d after re-dispatch, want still 1", stats2.Reissued)
	}
}

// TestReadmitAfterReprobation: with ReadmitAfter set, a quarantined donor
// re-enters after the window on a fresh probation — neutral trust,
// spot-checked work.
func TestReadmitAfterReprobation(t *testing.T) {
	o := verifyTestOptions()
	o.QuarantineBelow = 0.3
	o.ProbationUnits = 1
	o.ReadmitAfter = 30 * time.Millisecond
	s := newTestServer(o)
	defer s.Close()
	dm := newRecDM(8)
	if err := s.Submit(bg, &Problem{ID: "readmit", DM: dm}); err != nil {
		t.Fatal(err)
	}
	ta := dispatch(t, s, "evil")
	tb := dispatch(t, s, "b")
	if ta.Unit.ID != tb.Unit.ID {
		t.Fatalf("donors got units %d/%d, want replicas of one unit", ta.Unit.ID, tb.Unit.ID)
	}
	submitRaw(t, s, ta, "evil", []byte("WRONG"))
	submitRaw(t, s, tb, "b", []byte("right"))
	tc := dispatch(t, s, "c")
	submitRaw(t, s, tc, "c", []byte("right"))
	if q := s.QuarantinedDonors(); len(q) != 1 || q[0] != "evil" {
		t.Fatalf("QuarantinedDonors = %v, want [evil]", q)
	}
	if task, _, _ := s.RequestTask(bg, "evil"); task != nil {
		t.Fatalf("quarantined donor dispatched %+v before the readmission window", task)
	}
	time.Sleep(40 * time.Millisecond)
	task := dispatch(t, s, "evil")
	if !task.Verify {
		t.Error("readmitted donor's first unit not spot-checked")
	}
	info, ok := s.DonorTrust("evil")
	if !ok || info.Quarantined || !info.Probation || info.Trust != sched.TrustNeutral {
		t.Errorf("readmitted donor state %+v, want fresh probation at neutral trust", info)
	}
}

// TestCrashRecoveryResumesVerification is the durability satellite: a
// coordinator crashes holding one replica result of a spot-checked unit;
// the restarted coordinator replays the pending replica, re-attaches the
// regenerated unit, leases the remaining replica to a second donor, and
// the quorum completes across the crash — folding exactly once.
func TestCrashRecoveryResumesVerification(t *testing.T) {
	registerDurSum(t)
	dir := t.TempDir()
	const n = 20 // 2 units of 10 under Fixed{10}

	o := durableServerOptions(dir)
	o.VerifyFraction = 1
	o.VerifyQuorum = 2
	o.ProbationUnits = -1
	o.QuarantineBelow = -1
	s1, err := OpenServer(WithServerOptions(o))
	if err != nil {
		t.Fatalf("OpenServer: %v", err)
	}
	if err := s1.Submit(bg, &Problem{ID: "vcrash", DM: newDurSumDM(n)}); err != nil {
		t.Fatal(err)
	}
	ta := dispatch(t, s1, "a")
	if !ta.Verify {
		t.Fatalf("fraction-1 dispatch not verified: %+v", ta)
	}
	if !foldTask(t, s1, ta, "a") {
		t.Fatal("replica result rejected")
	}
	st, err := s1.Stats(bg, "vcrash")
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 0 {
		t.Fatalf("held replica folded before quorum: completed %d", st.Completed)
	}
	crashServer(s1)

	s2, err := OpenServer(WithServerOptions(o))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	// The restored DataManager regenerates the unit under its original ID;
	// the recovered verification set must hand donor b the second replica
	// of it rather than a fresh single lease.
	tb := dispatch(t, s2, "b")
	if tb.Unit.ID != ta.Unit.ID {
		t.Fatalf("post-crash dispatch got unit %d, want the pending verified unit %d", tb.Unit.ID, ta.Unit.ID)
	}
	if !tb.Verify {
		t.Error("post-crash replica of a recovered set not marked Verify")
	}
	if !foldTask(t, s2, tb, "b") {
		t.Fatal("second replica result rejected after recovery")
	}
	st2, err := s2.Stats(bg, "vcrash")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Completed != 1 || st2.Verified != 1 {
		t.Fatalf("after cross-crash quorum: completed %d verified %d, want 1/1", st2.Completed, st2.Verified)
	}
	// Finish the remaining unit — also spot-checked at fraction 1, so it
	// needs two distinct donors — and check the exact total: the
	// cross-crash unit folded exactly once (a double fold would double its
	// range's sum and fail the DataManager's unknown-unit check).
	tc := dispatch(t, s2, "c")
	if !foldTask(t, s2, tc, "c") {
		t.Fatal("post-crash primary result rejected")
	}
	td := dispatch(t, s2, "d")
	if td.Unit.ID != tc.Unit.ID {
		t.Fatalf("donor d got unit %d, want a replica of %d", td.Unit.ID, tc.Unit.ID)
	}
	if !foldTask(t, s2, td, "d") {
		t.Fatal("post-crash replica result rejected")
	}
	out, err := s2.Wait(bg, "vcrash")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := decodeSum(t, out); got != sumSquares(n) {
		t.Errorf("sum = %d, want %d", got, sumSquares(n))
	}
}

// TestQuorumResolvesWhenNoTieBreakerCanExist is the regression test for a
// quorum that waited forever: unit U holds two agreeing results, both
// submitted by donors still on probation, while the only trusted donor left
// in the fleet is one of those two (it graduated after submitting). The
// trusted-member rule then wants a trusted tie-breaker that cannot exist —
// every live, non-quarantined donor is already involved in U — so the set
// must resolve by plain count. (With exactly two donors the same state needs
// a graduation to land between a concurrent submit's trust snapshot and its
// resolve; the third donor c, later quarantined, reaches it without a race.)
func TestQuorumResolvesWhenNoTieBreakerCanExist(t *testing.T) {
	o := verifyTestOptions()
	o.ProbationUnits, o.QuarantineBelow = 0, 0 // the defaults: 4 agreements, floor 0.3
	o.Lease, o.ExpiryScan = time.Hour, time.Hour
	s := newTestServer(o)
	defer s.Close()
	if err := s.Submit(bg, &Problem{ID: "stuck", DM: newRecDM(7)}); err != nil {
		t.Fatal(err)
	}
	// U: a's result is held while a is on probation; b sits on its replica.
	ua, ub := dispatch(t, s, "a"), dispatch(t, s, "b")
	if ub.Unit.ID != ua.Unit.ID {
		t.Fatalf("b got unit %d, want the replica of %d", ub.Unit.ID, ua.Unit.ID)
	}
	submitRaw(t, s, ua, "a", []byte("u"))
	// a graduates through four other units, each agreed with c.
	for i := 0; i < 4; i++ {
		ta, tc := dispatch(t, s, "a"), dispatch(t, s, "c")
		if tc.Unit.ID != ta.Unit.ID {
			t.Fatalf("round %d: c got unit %d, want the replica of %d", i, tc.Unit.ID, ta.Unit.ID)
		}
		submitRaw(t, s, ta, "a", []byte("ok"))
		submitRaw(t, s, tc, "c", []byte("ok"))
	}
	if info, _ := s.DonorTrust("a"); info.Probation {
		t.Fatalf("a still on probation after 4 agreements: %+v", info)
	}
	// c is caught lying twice — a and b outvote it — and is quarantined.
	for i := 0; i < 2; i++ {
		ta, tc := dispatch(t, s, "a"), dispatch(t, s, "c")
		submitRaw(t, s, ta, "a", []byte("right"))
		submitRaw(t, s, tc, "c", []byte("WRONG"))
		tb := dispatch(t, s, "b")
		if tb.Unit.ID != ta.Unit.ID {
			t.Fatalf("round %d: b got unit %d, want the tie-breaker of %d", i, tb.Unit.ID, ta.Unit.ID)
		}
		submitRaw(t, s, tb, "b", []byte("right"))
	}
	if q := s.QuarantinedDonors(); len(q) != 1 || q[0] != "c" {
		t.Fatalf("QuarantinedDonors = %v, want [c]", q)
	}
	if info, _ := s.DonorTrust("b"); !info.Probation {
		t.Fatalf("b graduated early: %+v", info)
	}
	// b agrees with a on U. Neither result was trusted when submitted, a
	// trusted donor exists, and nobody is left to break the tie.
	if !submitRaw(t, s, ub, "b", []byte("u")) {
		t.Fatal("b's result for U rejected")
	}
	ctx, cancel := context.WithTimeout(bg, 2*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, "stuck"); err != nil {
		t.Fatalf("Wait: %v — the quorum is waiting for a tie-breaker that cannot exist", err)
	}
}

// TestNoTieBreakerFallbackDefersToTrustedVote: the count-quorum fallback
// above must not let two unproven donors outvote a trusted one. Here every
// live donor is involved in the unit too, but the trusted tie-breaker did
// arrive and disagreed — the set keeps waiting (and the second trusted
// replica then settles it) instead of folding the untrusted pair's answer.
func TestNoTieBreakerFallbackDefersToTrustedVote(t *testing.T) {
	o := verifyTestOptions()
	o.ProbationUnits = 1
	o.Lease, o.ExpiryScan = time.Hour, time.Hour
	s := newTestServer(o)
	defer s.Close()
	dm := newRecDM(2)
	if err := s.Submit(bg, &Problem{ID: "defer", DM: dm}); err != nil {
		t.Fatal(err)
	}
	t0, p0 := dispatch(t, s, "T"), dispatch(t, s, "p")
	submitRaw(t, s, t0, "T", []byte("ok"))
	submitRaw(t, s, p0, "p", []byte("ok")) // T and p are trusted from here on
	ua, ub := dispatch(t, s, "a"), dispatch(t, s, "b")
	submitRaw(t, s, ua, "a", []byte("WRONG"))
	submitRaw(t, s, ub, "b", []byte("WRONG"))
	ut := dispatch(t, s, "T")
	if ut.Unit.ID != ua.Unit.ID {
		t.Fatalf("T got unit %d, want the trusted tie-breaker of %d", ut.Unit.ID, ua.Unit.ID)
	}
	submitRaw(t, s, ut, "T", []byte("right"))
	up := dispatch(t, s, "p") // the last uninvolved donor takes a replica and sits on it
	if up.Unit.ID != ua.Unit.ID {
		t.Fatalf("p got unit %d, want a replica of %d", up.Unit.ID, ua.Unit.ID)
	}
	s.expireLeases(time.Now()) // re-evaluates held quorums; nothing has expired
	if got := dm.foldsOf(ua.Unit.ID); len(got) != 0 {
		t.Fatalf("folded %q over a trusted donor's dissent", got)
	}
	submitRaw(t, s, up, "p", []byte("right"))
	if got := dm.foldsOf(ua.Unit.ID); len(got) != 1 || string(got[0]) != "right" {
		t.Fatalf("folds = %q, want exactly one \"right\"", got)
	}
}

// TestNoTieBreakerFallbackWaitsForOutstandingReplica: the fallback also
// holds off while any replica of the unit is still out — its donor counts as
// involved, but it may be the very tie-breaker the set asked for. Driven on
// the set directly: a fleet whose only trusted donor holds the lease.
func TestNoTieBreakerFallbackWaitsForOutstandingReplica(t *testing.T) {
	o := verifyTestOptions()
	o.ProbationUnits = 1 // a bar above neutral, so a and b are not trusted
	s := newTestServer(o)
	defer s.Close()
	dm := newRecDM(1)
	if err := s.Submit(bg, &Problem{ID: "out", DM: dm}); err != nil {
		t.Fatal(err)
	}
	for _, donor := range []string{"a", "b", "T"} {
		s.touchDonor(donor, time.Now())
	}
	ds := s.peekDonor("T")
	ds.mu.Lock()
	ds.trust = 1 // T alone is above the bar
	ds.mu.Unlock()
	ps, _ := s.lookup("out")
	ps.mu.Lock()
	defer ps.mu.Unlock()
	set := ps.addSetLocked(1, &Unit{ID: 1}, 2)
	set.donors = []string{"a", "b", "T"}
	set.results = []heldResult{{donor: "a", payload: []byte("x")}, {donor: "b", payload: []byte("x")}}
	set.leases = append(set.leases, lease{donor: "T", deadline: time.Now().Add(time.Hour)})
	if s.resolveLocked(ps, set, time.Now()) {
		t.Fatalf("resolved (folds %q) while the trusted tie-breaker is still computing", dm.foldsOf(1))
	}
	set.leases = set.leases[:0] // T's lease is lost without a result
	if !s.resolveLocked(ps, set, time.Now()) || len(dm.foldsOf(1)) != 1 {
		t.Fatalf("not resolved by count once no replica is out and every live donor is involved")
	}
}

// TestVerifyExhaustionFailsLoudly: a unit whose replicas never agree must
// fail the problem with a diagnostic once it has burned the donor cap —
// not livelock redispatching forever.
func TestVerifyExhaustionFailsLoudly(t *testing.T) {
	s := newTestServer(verifyTestOptions())
	defer s.Close()
	if err := s.Submit(bg, &Problem{ID: "exhaust", DM: newRecDM(1)}); err != nil {
		t.Fatal(err)
	}
	var first *Task
	for i := 0; ; i++ {
		donor := fmt.Sprintf("d%02d", i)
		task, _, err := s.RequestTask(bg, donor)
		if err != nil {
			t.Fatal(err)
		}
		if task == nil {
			break // set stopped wanting replicas: either resolved or failed
		}
		if first == nil {
			first = task
		} else if task.Unit.ID != first.Unit.ID {
			t.Fatalf("dispatch %d switched units: %d then %d", i, first.Unit.ID, task.Unit.ID)
		}
		// Every donor answers differently: no group ever reaches quorum.
		submitRaw(t, s, task, donor, []byte(donor))
		if i > maxVerifyDonors+2 {
			t.Fatalf("still dispatching replicas after %d distinct donors (cap %d)", i, maxVerifyDonors)
		}
	}
	if _, err := s.Wait(bg, "exhaust"); err == nil {
		t.Fatal("problem with un-agreeable replicas completed instead of failing")
	} else if got := err.Error(); !contains(got, "verification exhausted") {
		t.Errorf("failure %q does not name verification exhaustion", got)
	}
}

// TestQuarantinedDonorsFreeTheDonorCap: a spot-checked set's donor cap
// counts only donors whose involvement still stands. Seven liars in turn
// take the replica of a unit whose one honest result is held, and each is
// caught lying on another unit and quarantined — its result evicted. Their
// places must not use up the set's maxVerifyDonors, or the unit fails as
// "verification exhausted" while honest donors could still break the tie.
func TestQuarantinedDonorsFreeTheDonorCap(t *testing.T) {
	o := verifyTestOptions()
	o.QuarantineBelow = 0.3
	s := newTestServer(o)
	defer s.Close()
	dm := newRecDM(1)
	if err := s.Submit(bg, &Problem{ID: "cap", DM: dm}); err != nil {
		t.Fatal(err)
	}
	th := dispatch(t, s, "h")
	submitRaw(t, s, th, "h", []byte("right"))
	for i := 0; i < maxVerifyDonors-1; i++ {
		liar := fmt.Sprintf("liar%d", i)
		task := dispatch(t, s, liar)
		if task.Unit.ID != th.Unit.ID {
			t.Fatalf("%s got unit %d, want the replica of %d", liar, task.Unit.ID, th.Unit.ID)
		}
		submitRaw(t, s, task, liar, []byte(liar))
		// The liar loses a quorum elsewhere: from neutral, one disagreement
		// crosses the floor.
		s.applyTrustDeltas([]trustDelta{{donor: liar, outcome: outcomeDisagree}})
	}
	if q := s.QuarantinedDonors(); len(q) != maxVerifyDonors-1 {
		t.Fatalf("QuarantinedDonors = %v, want all %d liars", q, maxVerifyDonors-1)
	}
	tg := dispatch(t, s, "g")
	if tg.Unit.ID != th.Unit.ID {
		t.Fatalf("g got unit %d, want the replica of %d", tg.Unit.ID, th.Unit.ID)
	}
	submitRaw(t, s, tg, "g", []byte("right"))
	if _, err := s.Wait(bg, "cap"); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := dm.foldsOf(th.Unit.ID); len(got) != 1 || string(got[0]) != "right" {
		t.Fatalf("folds = %q, want exactly one \"right\"", got)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
