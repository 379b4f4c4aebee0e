package dist

// A seeded, clock-free check of the unit lifecycle (units.go): each
// seed fixes a schedule of coordinator calls and injected faults against one
// in-process Server whose lease clock never fires on its own, and the
// invariants are asserted after every single step rather than sampled under
// wall-clock timing. (Go's map iteration order still varies between runs of
// one seed; that only widens what a seed covers — the invariants hold for
// every order.)

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/sched"
)

// lifeDM hands out n one-byte items, one per unit, and counts folds per
// item. Folding an ID it does not know — a retired or never-issued unit —
// is recorded as a violation instead of an error, so the run continues and
// the check reports it.
type lifeDM struct {
	n       int
	next    int
	seq     int64
	byID    map[int64]int
	again   []int // items handed back through Requeue
	folds   []int
	unknown int
	// resume lists the pending unit IDs a DataManager restored from a
	// checkpoint re-emits first (see restored).
	resume []int64
}

func newLifeDM(n int) *lifeDM {
	return &lifeDM{n: n, byID: make(map[int64]int), folds: make([]int, n)}
}

func (d *lifeDM) NextUnit(int64) (*Unit, bool, error) {
	for len(d.resume) > 0 {
		id := d.resume[0]
		d.resume = d.resume[1:]
		if item, ok := d.byID[id]; ok {
			return &Unit{ID: id, Algorithm: "life", Cost: 1, Payload: []byte{byte(item)}}, true, nil
		}
	}
	var item int
	switch {
	case len(d.again) > 0:
		item, d.again = d.again[0], d.again[1:]
	case d.next < d.n:
		item = d.next
		d.next++
	default:
		return nil, false, nil
	}
	d.seq++
	d.byID[d.seq] = item
	return &Unit{ID: d.seq, Algorithm: "life", Cost: 1, Payload: []byte{byte(item)}}, true, nil
}

func (d *lifeDM) Consume(unitID int64, _ []byte) error {
	item, ok := d.byID[unitID]
	if !ok {
		d.unknown++
		return nil
	}
	delete(d.byID, unitID)
	d.folds[item]++
	return nil
}

func (d *lifeDM) Done() bool {
	for _, f := range d.folds {
		if f == 0 {
			return false
		}
	}
	return true
}

func (d *lifeDM) FinalResult() ([]byte, error) { return nil, nil }

// lifeRequeueDM is lifeDM regenerating lost units under fresh IDs.
type lifeRequeueDM struct{ *lifeDM }

func (d lifeRequeueDM) Requeue(unitID int64) {
	if item, ok := d.byID[unitID]; ok {
		delete(d.byID, unitID)
		d.again = append(d.again, item)
	}
}

// lifeRun is one seed's harness state.
type lifeRun struct {
	t    *testing.T
	seed int64
	step int
	s    *Server
	ps   *problemState
	dm   *lifeDM
	// out are tasks handed to a donor and not yet answered by it; answered
	// keeps a few for duplicate submissions.
	out, answered []*Task
	owner         map[*Task]string
	wrong         map[int64]bool // units already given one wrong answer
}

func (r *lifeRun) failf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("seed %d step %d: %s", r.seed, r.step, fmt.Sprintf(format, args...))
}

// check asserts the lifecycle invariants (checkUnits) against the server's
// own state, and that Status and Stats agree with the table.
func (r *lifeRun) check() {
	r.t.Helper()
	status, err := r.s.Status(bg, "life")
	if err != nil {
		r.failf("Status: %v", err)
	}
	stats, _ := r.s.Stats(bg, "life")
	ps := r.ps
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := checkUnits(&ps.table, r.dm); err != nil {
		r.failf("%v", err)
	}
	if status.Inflight != int(ps.inflightN.Load()) || stats.Completed != ps.table.completed || stats.Dispatched != ps.table.dispatched {
		r.failf("Status.Inflight %d, Stats %d/%d completed/dispatched; table %d inflight, %d/%d",
			status.Inflight, stats.Completed, stats.Dispatched, ps.inflightN.Load(), ps.table.completed, ps.table.dispatched)
	}
}

// checkUnits asserts the invariants units.go claims against one table and
// the lifeDM behind it, returning the first violation: each item folded at
// most once and only through IDs the DataManager issued; completed ≤
// dispatched; open lists exactly the sets that want a lease, each once; at
// most one lease per donor per unit and max(quorum, 2) per unit; held
// results only on spot-checked sets, one per donor, each from a donor
// involved in the set; at most maxVerifyDonors donors per set; the inflight
// count equal to the live leases; and the table holding exactly the units
// the DataManager has issued and not yet folded or taken back — none at
// all once the problem ended.
// The seeded walk below and the exhaustive explorer (units_test.go) both
// call it after every step.
func checkUnits(t *unitTable, dm *lifeDM) error {
	for item, f := range dm.folds {
		if f > 1 {
			return fmt.Errorf("item %d folded %d times", item, f)
		}
	}
	if dm.unknown > 0 {
		return fmt.Errorf("%d results folded for units the DataManager retired or never issued", dm.unknown)
	}
	if t.completed > t.dispatched {
		return fmt.Errorf("completed %d > dispatched %d", t.completed, t.dispatched)
	}
	listed := make(map[*attemptSet]bool, len(t.open))
	for _, set := range t.open {
		if t.sets[set.uid] != set {
			return fmt.Errorf("open lists unit %d, which is not in the table", set.uid)
		}
		if listed[set] {
			return fmt.Errorf("open lists unit %d twice", set.uid)
		}
		listed[set] = true
	}
	leases := 0
	for uid, set := range t.sets {
		leases += len(set.leases)
		if limit := max(set.quorum, 2); len(set.leases) > limit {
			return fmt.Errorf("unit %d has %d live leases, quorum %d", uid, len(set.leases), set.quorum)
		}
		if len(set.donors) > maxVerifyDonors {
			return fmt.Errorf("unit %d involves %d donors", uid, len(set.donors))
		}
		seen := make(map[string]bool, len(set.leases))
		for _, l := range set.leases {
			if seen[l.donor] {
				return fmt.Errorf("donor %s holds two leases on unit %d", l.donor, uid)
			}
			seen[l.donor] = true
		}
		if set.quorum == 1 && len(set.results) > 0 {
			return fmt.Errorf("unit %d of quorum 1 holds %d results", uid, len(set.results))
		}
		clear(seen)
		for _, r := range set.results {
			if seen[r.donor] {
				return fmt.Errorf("unit %d holds two results of donor %s", uid, r.donor)
			}
			seen[r.donor] = true
			if !slices.Contains(set.donors, r.donor) {
				return fmt.Errorf("unit %d holds a result of donor %s, which is not involved in it", uid, r.donor)
			}
		}
		if want, _ := t.wantsLease(set); want != set.open || want != listed[set] {
			return fmt.Errorf("unit %d: wants lease %v, open flag %v, listed %v", uid, want, set.open, listed[set])
		}
		if _, ok := dm.byID[uid]; !ok {
			return fmt.Errorf("unit %d is in the table, but the DataManager folded or took it back", uid)
		}
	}
	for uid := range dm.byID {
		if _, ok := t.sets[uid]; ok == t.done {
			return fmt.Errorf("unit %d is pending at the DataManager; in the table %v, problem ended %v", uid, ok, t.done)
		}
	}
	if t.done && (len(t.sets) > 0 || len(t.open) > 0) {
		return fmt.Errorf("ended with %d units, %d open", len(t.sets), len(t.open))
	}
	if n := t.inflight.Load(); n != int64(leases) {
		return fmt.Errorf("inflight %d, live leases %d", n, leases)
	}
	return nil
}

func (r *lifeRun) request(donor string) {
	task, _, err := r.s.RequestTask(bg, donor)
	if err != nil {
		r.failf("RequestTask(%s): %v", donor, err)
	}
	if task != nil {
		if info, _ := r.s.DonorTrust(donor); info.Probation && !task.Verify {
			r.failf("unit %d granted to probationary donor %s without Verify", task.Unit.ID, donor)
		}
		r.out = append(r.out, task)
		r.owner[task] = donor
	}
}

func (r *lifeRun) submit(task *Task, donor string, payload []byte, epoch int64) bool {
	accepted, err := r.s.submitResult(bg, &Result{
		ProblemID: task.ProblemID, UnitID: task.Unit.ID, Payload: payload,
		Elapsed: time.Millisecond, Donor: donor, Epoch: epoch,
	})
	if err != nil {
		r.failf("submitResult(%s, unit %d): %v", donor, task.Unit.ID, err)
	}
	return accepted
}

// take removes and returns a random outstanding task, or nil.
func (r *lifeRun) take(rng *rand.Rand) *Task {
	if len(r.out) == 0 {
		return nil
	}
	i := rng.Intn(len(r.out))
	task := r.out[i]
	r.out = append(r.out[:i], r.out[i+1:]...)
	return task
}

func TestAttemptLifecycleInvariants(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		runLifecycleSeed(t, seed)
	}
}

func runLifecycleSeed(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	o := ServerOptions{Policy: sched.Fixed{Size: 1}, Lease: time.Hour}
	if seed%2 == 0 {
		o.VerifyFraction, o.VerifyQuorum = 0.5, 2
		if seed%4 == 0 {
			o.ProbationUnits = 1
		} else {
			o.ProbationUnits = -1
		}
	}
	s := newQuietServer(o)
	defer s.Close()
	dm := newLifeDM(12)
	var pdm DataManager = dm
	if seed%3 == 0 {
		pdm = lifeRequeueDM{dm}
	}
	if err := s.Submit(bg, &Problem{ID: "life", DM: pdm}); err != nil {
		t.Fatal(err)
	}
	ps, err := s.lookup("life")
	if err != nil {
		t.Fatal(err)
	}
	r := &lifeRun{t: t, seed: seed, s: s, ps: ps, dm: dm, owner: make(map[*Task]string), wrong: make(map[int64]bool)}
	donors := []string{"d0", "d1", "d2", "d3", "d4"}
	// Injected compute failures and quarantines are budgeted so no schedule
	// can trip a problem-failing cap or strand a quorum: the run must finish.
	computeFails, quarantines := 6, 2
	far := time.Now().Add(2 * time.Hour) // past every lease deadline, Lease being an hour

	for r.step = 0; r.step < 250; r.step++ {
		donor := donors[rng.Intn(len(donors))]
		switch op := rng.Intn(20); {
		case op < 7:
			r.request(donor)
		case op < 11: // honest result
			if task := r.take(rng); task != nil {
				r.submit(task, r.owner[task], task.Unit.Payload, task.Epoch)
				r.answered = append(r.answered, task)
			}
		case op == 11 && o.ProbationUnits <= 0:
			// A wrong result, at most one per unit — and only while no donor
			// can become trusted: a trusted donor's wrong vote rightly blocks
			// an untrusted majority until another trusted donor breaks the
			// tie, which this closed fleet could not guarantee.
			if task := r.take(rng); task != nil && !r.wrong[task.Unit.ID] {
				r.wrong[task.Unit.ID] = true
				r.submit(task, r.owner[task], []byte("wrong-"+r.owner[task]), task.Epoch)
				r.answered = append(r.answered, task)
			}
		case op == 12: // duplicate of an earlier submission
			if len(r.answered) > 0 {
				task := r.answered[rng.Intn(len(r.answered))]
				r.submit(task, r.owner[task], task.Unit.Payload, task.Epoch)
			}
		case op == 13: // straggler from another incarnation
			if len(r.out) > 0 {
				task := r.out[rng.Intn(len(r.out))]
				if r.submit(task, r.owner[task], task.Unit.Payload, task.Epoch+1000) {
					r.failf("stale-epoch result for unit %d accepted", task.Unit.ID)
				}
			}
		case op == 14: // a donor that never held the unit
			if len(r.out) > 0 {
				task := r.out[rng.Intn(len(r.out))]
				r.submit(task, "ghost", task.Unit.Payload, task.Epoch)
			}
		case op == 15 || op == 16: // compute / transport failure
			if task := r.take(rng); task != nil {
				kind := failTransport
				if op == 15 {
					if computeFails == 0 {
						r.out = append(r.out, task)
						break
					}
					computeFails--
					kind = failCompute
				}
				if err := s.reportFailure(bg, r.owner[task], task.ProblemID, task.Unit.ID, "injected", kind, task.Epoch); err != nil {
					r.failf("reportFailure: %v", err)
				}
			}
		case op == 17: // failure report from a donor without the lease
			if len(r.out) > 0 {
				task := r.out[rng.Intn(len(r.out))]
				before, _ := s.Stats(bg, "life")
				_ = s.ReportFailure(bg, "ghost", task.ProblemID, task.Unit.ID, "not mine")
				if after, _ := s.Stats(bg, "life"); after.Reissued != before.Reissued {
					r.failf("failure report from a non-holder revoked a lease of unit %d", task.Unit.ID)
				}
			}
		case op == 18 && rng.Intn(2) == 0:
			age(t, s, "life", overdue) // every lease falls due a speculative copy
		case op == 18:
			s.expireLeases(far)
		case op == 19:
			if quarantines > 0 {
				quarantines--
				s.quarantineDonor(donor)
			}
		}
		r.check()
		if st, _ := s.Status(bg, "life"); st.Done {
			break
		}
	}

	// Drain honestly. Fresh donors can always be granted a lease the five
	// originals no longer may, and the far-future sweep both returns
	// abandoned leases to the pool and lets held quorums resolve by count
	// once no tie-breaker can arrive.
	donors = append(donors, "f0", "f1", "f2", "f3")
	for round := 0; ; round++ {
		if st, _ := s.Status(bg, "life"); st.Done {
			break
		}
		if round == 64 {
			r.failf("problem did not finish: %d outstanding units", len(ps.table.sets))
		}
		for _, donor := range donors {
			r.step++
			r.request(donor)
			for len(r.out) > 0 {
				task := r.take(rng)
				r.submit(task, r.owner[task], task.Unit.Payload, task.Epoch)
			}
			r.check()
		}
		s.expireLeases(far)
		r.check()
	}
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, "life"); err != nil {
		r.failf("Wait: %v", err)
	}
	for item, f := range dm.folds {
		if f != 1 {
			r.failf("item %d folded %d times at the end", item, f)
		}
	}
	ps.mu.Lock()
	units, open := len(ps.table.sets), len(ps.table.open)
	ps.mu.Unlock()
	if st, _ := s.Status(bg, "life"); units != 0 || open != 0 || st.Inflight != 0 {
		r.failf("finished with %d units, %d open, %d inflight", units, open, st.Inflight)
	}
}
