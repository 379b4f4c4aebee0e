package dist_test

// Recovery as replay, end to end on DSEARCH, the durable application: a
// coordinator crashes part-way through a search and the restarted one
// finishes it without redoing a folded unit and with the single-machine
// reference's hits.

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/dsearch"
	"repro/internal/sched"
	"repro/internal/seq"
)

// TestDSEARCHCrashReplaysTail crashes a server that never checkpointed:
// recovery replays every unit from the Submit record and the WAL.
func TestDSEARCHCrashReplaysTail(t *testing.T) {
	runDSEARCHCrash(t, false)
}

// TestDSEARCHCrashReplaysCheckpointAndTail crashes a server that
// checkpointed part-way: recovery replays the pending units the checkpoint
// re-emits and then the Grants and folds journaled after it.
func TestDSEARCHCrashReplaysCheckpointAndTail(t *testing.T) {
	runDSEARCHCrash(t, true)
}

// dsearchDonor computes DSEARCH units in process, the way a donor would.
type dsearchDonor struct {
	t    *testing.T
	name string
	alg  dist.Algorithm
}

func newDSEARCHDonor(t *testing.T, name string, p *dist.Problem) *dsearchDonor {
	t.Helper()
	alg, err := dist.NewAlgorithm(dsearch.AlgorithmName)
	if err != nil {
		t.Fatal(err)
	}
	if err := alg.Init(p.SharedData); err != nil {
		t.Fatal(err)
	}
	return &dsearchDonor{t: t, name: name, alg: alg}
}

// take leases the donor one unit, or returns nil when none is left.
func (d *dsearchDonor) take(s *dist.Server) *dist.Task {
	d.t.Helper()
	task, _, err := s.RequestTask(context.Background(), d.name)
	if err != nil {
		d.t.Fatal(err)
	}
	return task
}

// fold computes the unit and submits its result.
func (d *dsearchDonor) fold(s *dist.Server, task *dist.Task) {
	d.t.Helper()
	out, err := d.alg.ProcessCtx(context.Background(), task.Unit.Payload)
	if err != nil {
		d.t.Fatal(err)
	}
	if err := s.SubmitResult(context.Background(), &dist.Result{
		ProblemID: task.ProblemID, UnitID: task.Unit.ID, Payload: out,
		Elapsed: time.Millisecond, Donor: d.name, Epoch: task.Epoch,
	}); err != nil {
		d.t.Fatal(err)
	}
}

func runDSEARCHCrash(t *testing.T, checkpoint bool) {
	g := seq.NewGenerator(seq.Protein, 37)
	db := g.RandomDatabase("d", 60, seq.LengthModel{Mean: 120, StdDev: 20, Min: 80, Max: 160})
	queries := g.RandomDatabase("q", 3, seq.LengthModel{Mean: 100, StdDev: 10, Min: 80, Max: 120})
	cfg := dsearch.DefaultConfig()
	cfg.TopK = 10
	ref, err := dsearch.SearchLocal(db, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.All()) == 0 {
		t.Fatal("the reference search found no hits")
	}
	p, err := dsearch.NewProblem("ds", db, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	open := func() *dist.Server {
		s, err := dist.OpenServer(dist.WithServerOptions(dist.ServerOptions{
			Policy: sched.Fixed{Size: 500}, DataDir: dir, SnapshotBytes: -1, SnapshotRecords: -1,
		}))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Before the crash: folds either side of an optional checkpoint, and
	// units left leased at the crash, one of them cut before the checkpoint.
	s1 := open()
	if err := s1.Submit(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	a := newDSEARCHDonor(t, "a", p)
	folded := make(map[int64]bool)
	var tail int // folds journaled after the last checkpoint
	lease := func(k int) (tasks []*dist.Task) {
		for range k {
			tasks = append(tasks, a.take(s1))
		}
		return tasks
	}
	foldAll := func(tasks []*dist.Task) {
		for _, task := range tasks {
			a.fold(s1, task)
			folded[task.Unit.ID] = true
			tail++
		}
	}
	first := lease(4)
	foldAll(first[:2])
	if checkpoint {
		if err := s1.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		tail = 0
	}
	more := lease(3)
	foldAll(append(first[2:3], more[:2]...))
	dist.CrashServer(s1)

	s2 := open()
	defer s2.Close()
	rec := s2.Recovery()
	if rec == nil || len(rec.Problems) != 1 {
		t.Fatalf("recovery = %+v, want one problem", rec)
	}
	if rec.FoldsReplayed != tail || rec.FoldsSkipped != 0 {
		t.Errorf("FoldsReplayed = %d, FoldsSkipped = %d; want %d and 0", rec.FoldsReplayed, rec.FoldsSkipped, tail)
	}
	if rp := rec.Problems[0]; rp.Completed != len(folded) || rp.Requeued != 2 {
		t.Errorf("Completed = %d, Requeued = %d; want %d and 2", rp.Completed, rp.Requeued, len(folded))
	}

	// After the crash: drain by hand, reading the Watch stream after every
	// step so it never falls behind, and check no folded unit goes out again.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events, err := s2.Watch(ctx, "ds")
	if err != nil {
		t.Fatal(err)
	}
	var dispatched []int64
	watch := func() {
		for {
			select {
			case ev, ok := <-events:
				if !ok {
					return
				}
				if ev.Dropped > 0 {
					t.Fatalf("the watch stream dropped %d events", ev.Dropped)
				}
				if ev.Kind == dist.EventUnitDispatched {
					dispatched = append(dispatched, ev.UnitID)
				}
			default:
				return
			}
		}
	}
	b := newDSEARCHDonor(t, "b", p)
	for task := b.take(s2); task != nil; task = b.take(s2) {
		watch()
		b.fold(s2, task)
		watch()
	}
	out, err := s2.Wait(context.Background(), "ds")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	watch()
	// The units left leased come back open and go out first, oldest first.
	if want := []int64{first[3].Unit.ID, more[2].Unit.ID}; len(dispatched) < 2 || !slices.Equal(dispatched[:2], want) {
		t.Errorf("dispatched %v after the crash; want the units left leased, %v, first", dispatched, want)
	}
	for _, id := range dispatched {
		if folded[id] {
			t.Errorf("unit %d was folded before the crash and dispatched again", id)
		}
	}
	got, err := dsearch.DecodeResult(out, cfg.TopK)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.All(), ref.All()) {
		t.Errorf("hits differ from SearchLocal:\n got %v\nwant %v", got.All(), ref.All())
	}
}
