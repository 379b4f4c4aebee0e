package dist

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
)

// The durable test problem: the sum-of-squares DataManager extended with
// the DurableDM contract. MarshalState flattens everything including the
// outstanding (dispatched, unfolded) units, and the restored DataManager
// re-emits those under their original IDs before cutting new ranges — the
// same recovery shape the real applications implement.

const durSumKind = "dist-test/dursum/v1"

type durSumDM struct {
	sumDM
	// resume holds recovered pending unit IDs to re-emit, oldest first.
	resume []int64
}

type durSumState struct {
	N, Next, Seq, Total, Completed int64
	Pending                        map[int64]sumUnit
}

func newDurSumDM(n int64) *durSumDM {
	return &durSumDM{sumDM: *newSumDM(n)}
}

func (d *durSumDM) DurableKind() string { return durSumKind }

func (d *durSumDM) MarshalState() ([]byte, error) {
	return Marshal(durSumState{
		N: d.n, Next: d.next, Seq: d.seq,
		Total: d.total, Completed: d.completed,
		Pending: d.inflight,
	})
}

func (d *durSumDM) NextUnit(budget int64) (*Unit, bool, error) {
	for len(d.resume) > 0 {
		id := d.resume[0]
		d.resume = d.resume[1:]
		u, ok := d.inflight[id]
		if !ok {
			continue // consumed by a replayed journal fold
		}
		payload, err := Marshal(u)
		if err != nil {
			return nil, false, err
		}
		return &Unit{ID: id, Algorithm: "dist-test/sum", Payload: payload, Cost: u.To - u.From}, true, nil
	}
	return d.sumDM.NextUnit(budget)
}

func restoreDurSum(state []byte) (DataManager, error) {
	var st durSumState
	if err := Unmarshal(state, &st); err != nil {
		return nil, err
	}
	d := &durSumDM{sumDM: sumDM{
		n: st.N, next: st.Next, seq: st.Seq,
		total: st.Total, completed: st.Completed,
		inflight: st.Pending,
	}}
	if d.inflight == nil {
		d.inflight = make(map[int64]sumUnit)
	}
	for id := range d.inflight {
		d.resume = append(d.resume, id)
	}
	sort.Slice(d.resume, func(i, j int) bool { return d.resume[i] < d.resume[j] })
	return d, nil
}

var registerDurSumOnce sync.Once

func registerDurSum(t *testing.T) {
	t.Helper()
	registerSum(t)
	registerDurSumOnce.Do(func() {
		RegisterDurableDM(durSumKind, restoreDurSum)
	})
}

// durableServerOptions is the bag the recovery tests share: a fixed unit
// size for deterministic partitioning and both snapshot budgets disabled
// so tests control compaction explicitly.
func durableServerOptions(dir string) ServerOptions {
	return ServerOptions{
		Policy:          sched.Fixed{Size: 10},
		DataDir:         dir,
		SnapshotBytes:   -1,
		SnapshotRecords: -1,
	}
}

func openDurableServer(t *testing.T, dir string) *Server {
	t.Helper()
	s, err := OpenServer(WithServerOptions(durableServerOptions(dir)))
	if err != nil {
		t.Fatalf("OpenServer: %v", err)
	}
	return s
}

// crashServer simulates a coordinator crash: the journal closes without a
// final checkpoint — exactly the on-disk state a killed process leaves
// (WAL tail, older snapshot) — then the server's goroutines are torn down.
func crashServer(s *Server) {
	_ = s.journal.Close()
	_ = s.Close() // snapshotNow fails against the closed journal: no checkpoint
}

// dispatch pulls one unit for the named donor, failing the test if none is
// available.
func dispatch(t *testing.T, s *Server, donor string) *Task {
	t.Helper()
	task, _, err := s.RequestTask(bg, donor)
	if err != nil {
		t.Fatalf("RequestTask: %v", err)
	}
	if task == nil {
		t.Fatal("no task available")
	}
	return task
}

// foldTask computes the sum unit's answer and submits it under the task's
// own epoch, reporting whether the server accepted it.
func foldTask(t *testing.T, s *Server, task *Task, donor string) bool {
	t.Helper()
	var u sumUnit
	if err := Unmarshal(task.Unit.Payload, &u); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for i := u.From; i < u.To; i++ {
		sum += i * i
	}
	accepted, err := s.submitResult(bg, &Result{
		ProblemID: task.ProblemID, UnitID: task.Unit.ID, Payload: MustMarshal(sum),
		Elapsed: time.Millisecond, Donor: donor, Epoch: task.Epoch,
	})
	if err != nil {
		t.Fatalf("submitResult: %v", err)
	}
	return accepted
}

// drain runs an in-process donor against the server until the problem
// completes, returning the final result.
func drain(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	d := newTestDonor(s, DonorOptions{Name: "drain", Logf: t.Logf})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = d.Run(bg) }()
	defer func() { d.Stop(); wg.Wait() }()
	out, err := s.Wait(bg, id)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	return out
}

// TestCrashRecoveryResumesProblem is the core durability scenario: a
// coordinator crashes with a mid-run snapshot plus a WAL tail — folds both
// before and after the checkpoint — and the restarted coordinator resumes
// the problem, replays the tail folds, requeues the outstanding span,
// fences the pre-crash straggler by epoch, and completes without
// recomputing anything that was journaled.
func TestCrashRecoveryResumesProblem(t *testing.T) {
	registerDurSum(t)
	dir := t.TempDir()
	const n = 100 // 10 units of 10 under Fixed{10}

	s1 := openDurableServer(t, dir)
	p := &Problem{ID: "crashy", DM: newDurSumDM(n), SharedData: []byte("shared")}
	if err := s1.Submit(bg, p); err != nil {
		t.Fatal(err)
	}
	// Dispatch units 1..4, fold 1 and 2, checkpoint with 3 and 4 pending.
	tasks := make([]*Task, 0, 5)
	for i := 0; i < 4; i++ {
		tasks = append(tasks, dispatch(t, s1, "a"))
	}
	for _, task := range tasks[:2] {
		if !foldTask(t, s1, task, "a") {
			t.Fatal("live fold rejected")
		}
	}
	if err := s1.snapshotNow(); err != nil {
		t.Fatalf("snapshotNow: %v", err)
	}
	// Post-checkpoint: one more dispatch (soft state, never journaled) and
	// one fold that lands in the WAL tail for a snapshotted pending unit.
	straggler := dispatch(t, s1, "a")
	if !foldTask(t, s1, tasks[2], "a") {
		t.Fatal("live fold rejected")
	}
	oldEpoch := tasks[0].Epoch
	crashServer(s1)

	s2 := openDurableServer(t, dir)
	defer s2.Close()
	rec := s2.Recovery()
	if rec == nil {
		t.Fatal("no recovery report after a crash with live state")
	}
	if len(rec.Problems) != 1 || rec.Problems[0].ProblemID != "crashy" {
		t.Fatalf("recovered %+v, want problem crashy", rec.Problems)
	}
	if rec.FoldsReplayed != 1 {
		t.Errorf("FoldsReplayed = %d, want 1 (the post-checkpoint fold of unit 3)", rec.FoldsReplayed)
	}
	rp := rec.Problems[0]
	if rp.Completed != 3 {
		t.Errorf("Completed = %d, want 3 (two snapshotted + one replayed)", rp.Completed)
	}
	if rp.Requeued != 1 {
		t.Errorf("Requeued = %d, want 1 (unit 4, dispatched but never folded)", rp.Requeued)
	}
	if rp.Epoch <= oldEpoch {
		t.Errorf("recovered epoch %d not above pre-crash epoch %d", rp.Epoch, oldEpoch)
	}

	// Epoch fencing: the pre-crash straggler's result carries the old
	// incarnation tag and must be dropped, not folded.
	var u sumUnit
	if err := Unmarshal(straggler.Unit.Payload, &u); err != nil {
		t.Fatal(err)
	}
	accepted, err := s2.submitResult(bg, &Result{
		ProblemID: "crashy", UnitID: straggler.Unit.ID, Payload: MustMarshal(int64(1)),
		Elapsed: time.Millisecond, Donor: "a", Epoch: straggler.Epoch,
	})
	if err != nil {
		t.Fatalf("straggler submit errored instead of being dropped: %v", err)
	}
	if accepted {
		t.Fatal("pre-crash straggler result accepted — epoch fencing failed")
	}

	// The recovered problem finishes without resubmission, and the total is
	// exact: nothing journaled was recomputed, nothing outstanding was lost.
	if got := decodeSum(t, drain(t, s2, "crashy")); got != sumSquares(n) {
		t.Errorf("sum = %d, want %d", got, sumSquares(n))
	}
	st, err := s2.Stats(bg, "crashy")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Recovered {
		t.Error("Stats.Recovered = false for a journal-restored problem")
	}
}

// TestRecoveredMarkers verifies the observability satellite: Status,
// Stats and the Watch opening event all mark a restored problem.
func TestRecoveredMarkers(t *testing.T) {
	registerDurSum(t)
	dir := t.TempDir()
	s1 := openDurableServer(t, dir)
	if err := s1.Submit(bg, &Problem{ID: "marked", DM: newDurSumDM(50)}); err != nil {
		t.Fatal(err)
	}
	// Checkpoint with the unit pending so the tail fold replays and the
	// recovered counters show it.
	task := dispatch(t, s1, "a")
	if err := s1.snapshotNow(); err != nil {
		t.Fatal(err)
	}
	if !foldTask(t, s1, task, "a") {
		t.Fatal("fold rejected")
	}
	crashServer(s1)

	s2 := openDurableServer(t, dir)
	defer s2.Close()
	status, err := s2.Status(bg, "marked")
	if err != nil {
		t.Fatal(err)
	}
	if !status.Recovered {
		t.Error("Status.Recovered = false")
	}
	st, err := s2.Stats(bg, "marked")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Recovered || st.Completed != 1 {
		t.Errorf("Stats = %+v, want Recovered with 1 completed", st)
	}
	events, err := s2.Watch(bg, "marked")
	if err != nil {
		t.Fatal(err)
	}
	ev := <-events
	if ev.Kind != EventRecovered {
		t.Errorf("opening watch event = %v, want %v", ev.Kind, EventRecovered)
	}
	if ev.Kind.Terminal() {
		t.Error("EventRecovered must not be terminal")
	}
	if ev.Kind.String() != "recovered" {
		t.Errorf("String() = %q", ev.Kind.String())
	}

	// A freshly submitted problem on the same server carries no marker.
	if err := s2.Submit(bg, &Problem{ID: "fresh", DM: newDurSumDM(10)}); err != nil {
		t.Fatal(err)
	}
	if fs, _ := s2.Stats(bg, "fresh"); fs.Recovered {
		t.Error("fresh problem reports Recovered")
	}
}

// TestGracefulCloseResumes: a deliberate Close writes a final checkpoint,
// so the next open restores entirely from the snapshot — no tail replay —
// and the problem picks up where it stopped.
func TestGracefulCloseResumes(t *testing.T) {
	registerDurSum(t)
	dir := t.TempDir()
	const n = 60
	s1 := openDurableServer(t, dir)
	if err := s1.Submit(bg, &Problem{ID: "graceful", DM: newDurSumDM(n)}); err != nil {
		t.Fatal(err)
	}
	t1 := dispatch(t, s1, "a")
	t2 := dispatch(t, s1, "a")
	if !foldTask(t, s1, t1, "a") || !foldTask(t, s1, t2, "a") {
		t.Fatal("fold rejected")
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openDurableServer(t, dir)
	defer s2.Close()
	rec := s2.Recovery()
	if rec == nil || len(rec.Problems) != 1 {
		t.Fatalf("recovery = %+v, want one problem", rec)
	}
	if rec.FoldsReplayed != 0 {
		t.Errorf("FoldsReplayed = %d after a clean shutdown, want 0 (checkpoint covers everything)", rec.FoldsReplayed)
	}
	if rec.Problems[0].Completed != 2 {
		t.Errorf("Completed = %d, want 2", rec.Problems[0].Completed)
	}
	if got := decodeSum(t, drain(t, s2, "graceful")); got != sumSquares(n) {
		t.Errorf("sum = %d, want %d", got, sumSquares(n))
	}
}

// TestForgetSurvivesRestart: a forgotten problem must stay forgotten — the
// Forget record is fsynced before the call returns, so even an immediate
// crash cannot resurrect the problem.
func TestForgetSurvivesRestart(t *testing.T) {
	registerDurSum(t)
	dir := t.TempDir()
	s1 := openDurableServer(t, dir)
	if err := s1.Submit(bg, &Problem{ID: "dead", DM: newDurSumDM(30)}); err != nil {
		t.Fatal(err)
	}
	if err := s1.Forget("dead"); err != nil {
		t.Fatal(err)
	}
	crashServer(s1)

	s2 := openDurableServer(t, dir)
	defer s2.Close()
	if rec := s2.Recovery(); rec != nil && len(rec.Problems) > 0 {
		t.Fatalf("forgotten problem resurrected: %+v", rec.Problems)
	}
	if _, err := s2.Stats(bg, "dead"); !errors.Is(err, ErrUnknownProblem) {
		t.Errorf("Stats after restart = %v, want ErrUnknownProblem", err)
	}
}

// TestNonDurableProblemsSkipped: a DataManager without the DurableDM
// contract rides an otherwise-durable server untouched — nothing is
// journaled for it, and a restart simply does not know it.
func TestNonDurableProblemsSkipped(t *testing.T) {
	registerDurSum(t)
	dir := t.TempDir()
	s1 := openDurableServer(t, dir)
	if err := s1.Submit(bg, &Problem{ID: "soft", DM: newSumDM(30)}); err != nil {
		t.Fatal(err)
	}
	if !foldTask(t, s1, dispatch(t, s1, "a"), "a") {
		t.Fatal("fold rejected")
	}
	crashServer(s1)

	s2 := openDurableServer(t, dir)
	defer s2.Close()
	if rec := s2.Recovery(); rec != nil {
		t.Fatalf("recovery = %+v for a journal that only ever saw non-durable work", rec)
	}
}

// TestTornTailStillRecovers: a crash can tear the last WAL record
// mid-write. Recovery reports the truncation and restores everything up to
// the last intact record instead of failing or half-applying.
func TestTornTailStillRecovers(t *testing.T) {
	registerDurSum(t)
	dir := t.TempDir()
	const n = 40
	s1 := openDurableServer(t, dir)
	if err := s1.Submit(bg, &Problem{ID: "torn", DM: newDurSumDM(n)}); err != nil {
		t.Fatal(err)
	}
	if !foldTask(t, s1, dispatch(t, s1, "a"), "a") {
		t.Fatal("fold rejected")
	}
	crashServer(s1)

	// Tear the newest WAL segment: chop a few bytes off its last record.
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no wal segments in %s (err=%v)", dir, err)
	}
	sort.Strings(wals)
	newest := wals[len(wals)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 12 {
		t.Fatalf("newest segment unexpectedly small: %d bytes", len(data))
	}
	if err := os.WriteFile(newest, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openDurableServer(t, dir)
	defer s2.Close()
	rec := s2.Recovery()
	if rec == nil {
		t.Fatal("no recovery report")
	}
	if !rec.Truncated {
		t.Error("Truncated = false for a torn tail")
	}
	if len(rec.Problems) != 1 {
		t.Fatalf("recovered %+v, want the problem restored from the intact prefix", rec.Problems)
	}
	// The torn record was the fold; its unit is back in play and the sum
	// still comes out exact.
	if got := decodeSum(t, drain(t, s2, "torn")); got != sumSquares(n) {
		t.Errorf("sum = %d, want %d", got, sumSquares(n))
	}
}

// TestCompletedProblemRecovers: when every fold was journaled before the
// crash, replay completes the problem during recovery and Wait returns the
// result without any donor attached.
func TestCompletedProblemRecovers(t *testing.T) {
	registerDurSum(t)
	dir := t.TempDir()
	const n = 20 // two units
	s1 := openDurableServer(t, dir)
	if err := s1.Submit(bg, &Problem{ID: "done", DM: newDurSumDM(n)}); err != nil {
		t.Fatal(err)
	}
	t1 := dispatch(t, s1, "a")
	t2 := dispatch(t, s1, "a")
	if err := s1.snapshotNow(); err != nil {
		t.Fatal(err)
	}
	if !foldTask(t, s1, t1, "a") || !foldTask(t, s1, t2, "a") {
		t.Fatal("fold rejected")
	}
	crashServer(s1)

	s2 := openDurableServer(t, dir)
	defer s2.Close()
	out, err := s2.Wait(bg, "done")
	if err != nil {
		t.Fatalf("Wait on a fully journaled problem: %v", err)
	}
	if got := decodeSum(t, out); got != sumSquares(n) {
		t.Errorf("sum = %d, want %d", got, sumSquares(n))
	}
}

// TestDoubleCrashKeepsFencing: the recovery checkpoint must persist the
// fresh epochs immediately, so folds accepted after a first restart still
// replay after a second crash that follows within the same sync window.
func TestDoubleCrashKeepsFencing(t *testing.T) {
	registerDurSum(t)
	dir := t.TempDir()
	const n = 40
	s1 := openDurableServer(t, dir)
	if err := s1.Submit(bg, &Problem{ID: "twice", DM: newDurSumDM(n)}); err != nil {
		t.Fatal(err)
	}
	if !foldTask(t, s1, dispatch(t, s1, "a"), "a") {
		t.Fatal("fold rejected")
	}
	crashServer(s1)

	s2 := openDurableServer(t, dir)
	epoch2 := mustRecoveredEpoch(t, s2, "twice")
	// Fold one unit under the post-recovery epoch — checkpointed pending so
	// the second recovery replays it — then crash again.
	task := dispatch(t, s2, "b")
	if err := s2.snapshotNow(); err != nil {
		t.Fatal(err)
	}
	if !foldTask(t, s2, task, "b") {
		t.Fatal("post-recovery fold rejected")
	}
	crashServer(s2)

	s3 := openDurableServer(t, dir)
	defer s3.Close()
	epoch3 := mustRecoveredEpoch(t, s3, "twice")
	if epoch3 <= epoch2 {
		t.Errorf("third-incarnation epoch %d not above second %d", epoch3, epoch2)
	}
	rec := s3.Recovery()
	if rec.FoldsReplayed != 1 {
		t.Errorf("FoldsReplayed = %d, want 1 (the fold journaled between the crashes)", rec.FoldsReplayed)
	}
	if got := decodeSum(t, drain(t, s3, "twice")); got != sumSquares(n) {
		t.Errorf("sum = %d, want %d", got, sumSquares(n))
	}
}

func mustRecoveredEpoch(t *testing.T, s *Server, id string) int64 {
	t.Helper()
	rec := s.Recovery()
	if rec == nil {
		t.Fatal("no recovery report")
	}
	for _, rp := range rec.Problems {
		if rp.ProblemID == id {
			return rp.Epoch
		}
	}
	t.Fatalf("problem %q not in recovery report %+v", id, rec.Problems)
	return 0
}
