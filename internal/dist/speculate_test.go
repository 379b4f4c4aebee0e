package dist

// Tests for the PR 9 scheduler work: speculative re-dispatch of
// stragglers, priority- and deadline-aware dispatch ordering, and the
// inflight-balancing scan that lets a starved problem borrow donors from
// a saturated one. All drive the in-process Server directly through the
// Coordinator surface, so the assertions are about scheduling decisions,
// not transport.

import (
	"testing"
	"time"

	"repro/internal/sched"
)

// gridDM hands out n unit-cost units and counts folds per unit.
type gridDM struct {
	n     int64
	seq   int64
	folds map[int64]int
}

func newGridDM(n int64) *gridDM { return &gridDM{n: n, folds: make(map[int64]int)} }

func (d *gridDM) NextUnit(int64) (*Unit, bool, error) {
	if d.seq >= d.n {
		return nil, false, nil
	}
	d.seq++
	return &Unit{ID: d.seq, Algorithm: "sum", Cost: 1, Payload: []byte{byte(d.seq)}}, true, nil
}

func (d *gridDM) Consume(unitID int64, _ []byte) error { d.folds[unitID]++; return nil }
func (d *gridDM) Done() bool                           { return int64(len(d.folds)) >= d.n }
func (d *gridDM) FinalResult() ([]byte, error)         { return nil, nil }

func TestSpeculativeRedispatch(t *testing.T) {
	srv := newTestServer(ServerOptions{
		Policy:         sched.Fixed{Size: 1},
		Lease:          time.Hour, // expiry must not rescue the straggler
		ExpiryScan:     time.Hour,
		SpeculateAfter: 0.7,
	})
	defer srv.Close()
	dm := newGridDM(4)
	if err := srv.Submit(bg, &Problem{ID: "spec", DM: dm}); err != nil {
		t.Fatal(err)
	}
	// Donor a claims all four units, completes three, sits on the last.
	var tasks []*Task
	for i := 0; i < 4; i++ {
		task, _, err := srv.RequestTask(bg, "a")
		if err != nil || task == nil {
			t.Fatalf("a task %d: %v %v", i, task, err)
		}
		tasks = append(tasks, task)
	}
	for _, task := range tasks[:3] {
		if err := srv.SubmitResult(bg, &Result{ProblemID: "spec", UnitID: task.Unit.ID, Donor: "a"}); err != nil {
			t.Fatal(err)
		}
	}
	straggler := tasks[3].Unit.ID

	// Donor b arrives: 3/4 complete >= 0.7, so it gets a speculative
	// copy of the straggler instead of a "nothing to do" reply.
	spec, _, err := srv.RequestTask(bg, "b")
	if err != nil {
		t.Fatal(err)
	}
	if spec == nil || spec.Unit.ID != straggler {
		t.Fatalf("b got %+v, want speculative copy of unit %d", spec, straggler)
	}
	if spec.Priority != 0 {
		t.Errorf("speculated task priority = %d, want the problem's (0)", spec.Priority)
	}

	// A third donor gets nothing: the one straggler is already
	// speculated, and a unit is never offered a third concurrent lease.
	if extra, _, _ := srv.RequestTask(bg, "c"); extra != nil {
		t.Fatalf("c got %+v, want nothing (straggler already speculated)", extra)
	}

	// First result wins: b reports, the problem finishes.
	if err := srv.SubmitResult(bg, &Result{ProblemID: "spec", UnitID: straggler, Donor: "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Wait(bg, "spec"); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	// The original donor's late result lands harmlessly: no double fold.
	if err := srv.SubmitResult(bg, &Result{ProblemID: "spec", UnitID: straggler, Donor: "a"}); err != nil {
		t.Errorf("late duplicate result rejected loudly: %v", err)
	}
	if got := dm.folds[straggler]; got != 1 {
		t.Errorf("straggler folded %d times, want exactly 1", got)
	}

	st, _ := srv.Stats(bg, "spec")
	if st.Speculated != 1 {
		t.Errorf("Speculated = %d, want 1", st.Speculated)
	}
	if st.Dispatched != 5 || st.Completed != 4 {
		t.Errorf("dispatched/completed = %d/%d, want 5/4", st.Dispatched, st.Completed)
	}
	if st.Completed > st.Dispatched {
		t.Errorf("completed %d > dispatched %d", st.Completed, st.Dispatched)
	}
	status, _ := srv.Status(bg, "spec")
	if status.Inflight != 0 {
		t.Errorf("inflight = %d after completion, want 0", status.Inflight)
	}
}

func TestSpeculationOffByDefault(t *testing.T) {
	srv := newTestServer(ServerOptions{
		Policy:     sched.Fixed{Size: 1},
		Lease:      time.Hour,
		ExpiryScan: time.Hour,
	})
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "nospec", DM: newGridDM(2)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if task, _, err := srv.RequestTask(bg, "a"); err != nil || task == nil {
			t.Fatalf("a task %d: %v %v", i, task, err)
		}
	}
	if err := srv.SubmitResult(bg, &Result{ProblemID: "nospec", UnitID: 1, Donor: "a"}); err != nil {
		t.Fatal(err)
	}
	// 1/2 complete, one straggler out — but speculation is disabled, so
	// a second donor is told to wait.
	if task, _, _ := srv.RequestTask(bg, "b"); task != nil {
		t.Fatalf("b got %+v with speculation disabled", task)
	}
}

func TestSpeculatedUnitSurvivesOriginalDonorFailure(t *testing.T) {
	srv := newTestServer(ServerOptions{
		Policy:         sched.Fixed{Size: 1},
		Lease:          time.Hour,
		ExpiryScan:     time.Hour,
		SpeculateAfter: 0.5,
	})
	defer srv.Close()
	dm := newGridDM(2)
	if err := srv.Submit(bg, &Problem{ID: "fail", DM: dm}); err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for i := 0; i < 2; i++ {
		task, _, err := srv.RequestTask(bg, "a")
		if err != nil || task == nil {
			t.Fatalf("a task %d: %v %v", i, task, err)
		}
		ids = append(ids, task.Unit.ID)
	}
	if err := srv.SubmitResult(bg, &Result{ProblemID: "fail", UnitID: ids[0], Donor: "a"}); err != nil {
		t.Fatal(err)
	}
	spec, _, err := srv.RequestTask(bg, "b")
	if err != nil || spec == nil || spec.Unit.ID != ids[1] {
		t.Fatalf("b got %+v, want speculative copy of %d", spec, ids[1])
	}
	// The original donor now reports a (compute) failure for its copy: that
	// drops a's lease only — b's is still live, so the unit must not
	// requeue (and, already speculated once, is not offered again).
	if err := srv.ReportFailure(bg, "a", "fail", ids[1], "boom"); err != nil {
		t.Fatalf("stale failure report: %v", err)
	}
	if task, _, _ := srv.RequestTask(bg, "c"); task != nil {
		t.Fatalf("stale failure requeued the unit: c got %+v", task)
	}
	if err := srv.SubmitResult(bg, &Result{ProblemID: "fail", UnitID: ids[1], Donor: "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Wait(bg, "fail"); err != nil {
		t.Fatal(err)
	}
	if got := dm.folds[ids[1]]; got != 1 {
		t.Errorf("unit folded %d times, want 1", got)
	}
}

// speculated drives a fresh server to the point where donor a holds every
// unit of an n-unit problem, has completed the first, and donor b has just
// been granted a speculative second lease on one of the rest; it returns
// that unit's ID and the incarnation epoch.
func speculated(t *testing.T, id string, n int64) (srv *Server, dm *gridDM, unitID, epoch int64) {
	t.Helper()
	srv = newTestServer(ServerOptions{
		Policy:         sched.Fixed{Size: 1},
		Lease:          time.Hour,
		ExpiryScan:     time.Hour,
		SpeculateAfter: 0.3,
	})
	dm = newGridDM(n)
	if err := srv.Submit(bg, &Problem{ID: id, DM: dm}); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if task, _, err := srv.RequestTask(bg, "a"); err != nil || task == nil {
			t.Fatalf("a task %d: %v %v", i, task, err)
		}
	}
	if err := srv.SubmitResult(bg, &Result{ProblemID: id, UnitID: 1, Donor: "a"}); err != nil {
		t.Fatal(err)
	}
	spec, _, err := srv.RequestTask(bg, "b")
	if err != nil || spec == nil || spec.Unit.ID == 1 {
		t.Fatalf("b got %+v (%v), want a speculative copy of an outstanding unit", spec, err)
	}
	return srv, dm, spec.Unit.ID, spec.Epoch
}

// TestSpeculationLoserIsCancelled: a speculated unit has two live leases;
// whichever donor reports first folds it, and the other is sent exactly one
// cancel notice for that unit and incarnation so it stops computing a result
// that would only be dropped. The problem is still running afterwards, so
// the notice comes from the fold, not from the problem ending.
func TestSpeculationLoserIsCancelled(t *testing.T) {
	for _, c := range []struct{ winner, loser string }{{"b", "a"}, {"a", "b"}} {
		srv, dm, unit, epoch := speculated(t, "race", 3)
		if err := srv.SubmitResult(bg, &Result{ProblemID: "race", UnitID: unit, Donor: c.winner, Epoch: epoch}); err != nil {
			t.Fatal(err)
		}
		if got := dm.folds[unit]; got != 1 {
			t.Errorf("%s wins: unit folded %d times, want 1", c.winner, got)
		}
		notices, err := srv.CancelNotices(bg, c.loser)
		if err != nil {
			t.Fatal(err)
		}
		if want := (CancelNotice{ProblemID: "race", Epoch: epoch, UnitID: unit}); len(notices) != 1 || notices[0] != want {
			t.Errorf("%s wins: loser %s got notices %+v, want exactly %+v", c.winner, c.loser, notices, want)
		}
		if notices, _ := srv.CancelNotices(bg, c.winner); len(notices) != 0 {
			t.Errorf("winner %s got cancel notices %+v", c.winner, notices)
		}
		if st, _ := srv.Status(bg, "race"); st.Done || st.Inflight != 1 {
			t.Errorf("%s wins: status %+v, want running with the one other unit in flight", c.winner, st)
		}
		srv.Close()
	}
}

// TestSpeculatorFailureKeepsOriginalLease: the unit returns to the pool when
// its LAST lease goes. The speculator's failure leaves the original lease
// standing — no third dispatch, nothing reissued — and only the original's
// expiry makes the unit dispatchable again, counted as one reissue.
func TestSpeculatorFailureKeepsOriginalLease(t *testing.T) {
	srv, dm, unit, _ := speculated(t, "last", 2)
	defer srv.Close()
	if err := srv.ReportFailure(bg, "b", "last", unit, "speculator crashed"); err != nil {
		t.Fatal(err)
	}
	if task, _, _ := srv.RequestTask(bg, "c"); task != nil {
		t.Fatalf("c got %+v while the original lease is still live", task)
	}
	if st, _ := srv.Stats(bg, "last"); st.Reissued != 0 {
		t.Errorf("Reissued = %d after the speculator's failure, want 0", st.Reissued)
	}
	if st, _ := srv.Status(bg, "last"); st.Inflight != 1 {
		t.Errorf("Inflight = %d, want the original lease only", st.Inflight)
	}
	srv.expireLeases(time.Now().Add(2 * time.Hour))
	task, _, err := srv.RequestTask(bg, "c")
	if err != nil || task == nil || task.Unit.ID != unit {
		t.Fatalf("after the original lease expired c got %+v (%v), want unit %d", task, err, unit)
	}
	if st, _ := srv.Stats(bg, "last"); st.Reissued != 1 || st.Speculated != 1 {
		t.Errorf("Reissued/Speculated = %d/%d, want 1/1", st.Reissued, st.Speculated)
	}
	if err := srv.SubmitResult(bg, &Result{ProblemID: "last", UnitID: unit, Donor: "c"}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Wait(bg, "last"); err != nil {
		t.Fatal(err)
	}
	if got := dm.folds[unit]; got != 1 {
		t.Errorf("unit folded %d times, want 1", got)
	}
}

func TestPriorityDispatchOrder(t *testing.T) {
	srv := newTestServer(ServerOptions{
		Policy:     sched.Fixed{Size: 1},
		Lease:      time.Hour,
		ExpiryScan: time.Hour,
	})
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "low", DM: newGridDM(2), Priority: -1}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(bg, &Problem{ID: "mid", DM: newGridDM(2)}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(bg, &Problem{ID: "high", DM: newGridDM(2), Priority: 5}); err != nil {
		t.Fatal(err)
	}
	// The scan drains strictly by priority tier: high, high, mid, mid,
	// low, low — whatever the round-robin start position.
	want := []string{"high", "high", "mid", "mid", "low", "low"}
	for i, w := range want {
		task, _, err := srv.RequestTask(bg, "d")
		if err != nil || task == nil {
			t.Fatalf("request %d: %v %v", i, task, err)
		}
		if task.ProblemID != w {
			t.Fatalf("request %d went to %s, want %s", i, task.ProblemID, w)
		}
		if w == "high" && task.Priority != 5 {
			t.Errorf("high-priority task carries Priority %d, want 5", task.Priority)
		}
	}
}

func TestDeadlineBreaksPriorityTies(t *testing.T) {
	srv := newTestServer(ServerOptions{
		Policy:     sched.Fixed{Size: 1},
		Lease:      time.Hour,
		ExpiryScan: time.Hour,
	})
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "whenever", DM: newGridDM(1)}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(bg, &Problem{ID: "soon", DM: newGridDM(1), Deadline: time.Now().Add(time.Minute)}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(bg, &Problem{ID: "later", DM: newGridDM(1), Deadline: time.Now().Add(time.Hour)}); err != nil {
		t.Fatal(err)
	}
	want := []string{"soon", "later", "whenever"}
	for i, w := range want {
		task, _, err := srv.RequestTask(bg, "d")
		if err != nil || task == nil {
			t.Fatalf("request %d: %v %v", i, task, err)
		}
		if task.ProblemID != w {
			t.Fatalf("request %d went to %s, want %s", i, task.ProblemID, w)
		}
	}
}

func TestStarvedProblemBorrowsDonors(t *testing.T) {
	srv := newTestServer(ServerOptions{
		Policy:     sched.Fixed{Size: 1},
		Lease:      time.Hour,
		ExpiryScan: time.Hour,
	})
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "saturated", DM: newGridDM(8)}); err != nil {
		t.Fatal(err)
	}
	// Four donors pile onto the only problem: 4 leases out.
	for i := 0; i < 4; i++ {
		if task, _, err := srv.RequestTask(bg, string(rune('a'+i))); err != nil || task == nil {
			t.Fatalf("warm-up %d: %v %v", i, task, err)
		}
	}
	// A second problem arrives with no leases at all. Equal priority, no
	// deadlines — the inflight-ascending tiebreak must route the next
	// donors there until the books balance, not round-robin away from it.
	if err := srv.Submit(bg, &Problem{ID: "starved", DM: newGridDM(8)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		task, _, err := srv.RequestTask(bg, "fresh")
		if err != nil || task == nil {
			t.Fatalf("steal %d: %v %v", i, task, err)
		}
		if task.ProblemID != "starved" {
			t.Fatalf("steal %d went to %s, want starved (inflight balance)", i, task.ProblemID)
		}
	}
}
