package dist

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/wire"
)

// bg is the background context for test calls with no cancellation story.
var bg = context.Background()

// newTestServer / newTestDonor adopt a whole options bag, keeping the
// table-style struct literals in these tests readable; the functional
// options themselves are covered by TestFunctionalOptions.
func newTestServer(o ServerOptions) *Server { return NewServer(WithServerOptions(o)) }

// newQuietServer is a server whose lease sweep never runs on its own: a
// lease expires only when the test calls expireLeases. Speculation still
// follows the overdue rule at each dispatch scan.
func newQuietServer(o ServerOptions) *Server {
	o.applyDefaults()
	return newServer(o)
}

func newTestDonor(c Coordinator, o DonorOptions) *Donor {
	return NewDonor(c, WithDonorOptions(o))
}

// The test problem: sum the squares of 1..N, partitioned into ranges.

type sumUnit struct {
	From, To int64 // [From, To)
	Poison   bool  // a poisoned unit always fails on the donor
}

type sumDM struct {
	n         int64
	next      int64
	seq       int64
	inflight  map[int64]sumUnit
	total     int64
	completed int64
	poison    bool // stamp Poison on every unit
}

func newSumDM(n int64) *sumDM {
	return &sumDM{n: n, next: 1, inflight: make(map[int64]sumUnit)}
}

func (d *sumDM) NextUnit(budget int64) (*Unit, bool, error) {
	if d.next > d.n {
		return nil, false, nil
	}
	if budget < 1 {
		budget = 1
	}
	to := d.next + budget
	if to > d.n+1 {
		to = d.n + 1
	}
	u := sumUnit{From: d.next, To: to, Poison: d.poison}
	payload, err := Marshal(u)
	if err != nil {
		return nil, false, err
	}
	d.seq++
	d.inflight[d.seq] = u
	d.next = to
	return &Unit{ID: d.seq, Algorithm: "dist-test/sum", Payload: payload, Cost: to - u.From}, true, nil
}

func (d *sumDM) Consume(unitID int64, payload []byte) error {
	u, ok := d.inflight[unitID]
	if !ok {
		return fmt.Errorf("unknown unit %d", unitID)
	}
	delete(d.inflight, unitID)
	var part int64
	if err := Unmarshal(payload, &part); err != nil {
		return err
	}
	d.total += part
	d.completed += u.To - u.From
	return nil
}

func (d *sumDM) Done() bool                   { return d.completed >= d.n }
func (d *sumDM) FinalResult() ([]byte, error) { return Marshal(d.total) }
func (d *sumDM) Progress() (done, total int)  { return int(d.completed), int(d.n) }

// failNext makes the sum algorithm fail its next K ProcessCtx calls, whichever
// donor runs them — exercising the report-failure → requeue path.
var failNext atomic.Int64

type sumAlg struct{}

func (sumAlg) Init([]byte) error { return nil }

func (sumAlg) ProcessCtx(_ context.Context, payload []byte) ([]byte, error) {
	var u sumUnit
	if err := Unmarshal(payload, &u); err != nil {
		return nil, err
	}
	if u.Poison {
		return nil, errors.New("poisoned unit")
	}
	if failNext.Load() > 0 && failNext.Add(-1) >= 0 {
		return nil, errors.New("injected failure")
	}
	var sum int64
	for i := u.From; i < u.To; i++ {
		sum += i * i
	}
	return Marshal(sum)
}

var registerSumOnce sync.Once

func registerSum(t *testing.T) {
	t.Helper()
	registerSumOnce.Do(func() {
		RegisterAlgorithm("dist-test/sum", func() Algorithm { return sumAlg{} })
	})
}

func sumSquares(n int64) int64 {
	return n * (n + 1) * (2*n + 1) / 6
}

func decodeSum(t *testing.T, out []byte) int64 {
	t.Helper()
	var got int64
	if err := Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestMarshalRoundTrip(t *testing.T) {
	type payload struct {
		Name  string
		Vals  []float64
		Bytes []byte
	}
	in := payload{Name: "x", Vals: []float64{1.5, -2, 3e9}, Bytes: []byte{0, 1, 2}}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || len(out.Vals) != 3 || out.Vals[2] != 3e9 || string(out.Bytes) != string(in.Bytes) {
		t.Errorf("round trip mangled payload: %+v", out)
	}
	if err := Unmarshal([]byte("not gob"), &out); err == nil {
		t.Error("garbage unmarshalled without error")
	}
	if !strings.HasPrefix(recoverPanic(func() { MustMarshal(make(chan int)) }), "dist: marshal") {
		t.Error("MustMarshal did not panic on an unencodable value")
	}
}

// recoverPanic runs f and returns the panic message ("" if none).
func recoverPanic(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

var registerDupOnce sync.Once

func TestRegistryDuplicatePanics(t *testing.T) {
	// Guarded so the test survives -count=N re-runs in one process.
	registerDupOnce.Do(func() {
		RegisterAlgorithm("dist-test/dup", func() Algorithm { return sumAlg{} })
	})
	if msg := recoverPanic(func() {
		RegisterAlgorithm("dist-test/dup", func() Algorithm { return sumAlg{} })
	}); !strings.Contains(msg, "registered twice") {
		t.Errorf("duplicate registration panic = %q", msg)
	}
	if msg := recoverPanic(func() { RegisterAlgorithm("", func() Algorithm { return sumAlg{} }) }); msg == "" {
		t.Error("empty name accepted")
	}
	if msg := recoverPanic(func() { RegisterAlgorithm("dist-test/nilf", nil) }); msg == "" {
		t.Error("nil factory accepted")
	}
	found := false
	for _, n := range RegisteredAlgorithms() {
		if n == "dist-test/dup" {
			found = true
		}
	}
	if !found {
		t.Error("registered algorithm missing from listing")
	}
}

func TestRunLocalEndToEnd(t *testing.T) {
	registerSum(t)
	const n = 1000
	for _, pol := range []sched.Policy{
		sched.Fixed{Size: 7},
		sched.Fixed{Size: 1 << 40},
		sched.Adaptive{Target: time.Millisecond, Bootstrap: 100, Min: 1},
		sched.GSS{K: 1, Min: 1},
	} {
		p := &Problem{ID: "sum-" + pol.Name(), DM: newSumDM(n)}
		out, err := RunLocal(bg, p, 4, pol)
		if err != nil {
			t.Fatalf("policy %s: %v", pol.Name(), err)
		}
		if got := decodeSum(t, out); got != sumSquares(n) {
			t.Errorf("policy %s: sum = %d, want %d", pol.Name(), got, sumSquares(n))
		}
	}

	// A context cancelled before the run starts aborts it with the
	// context's error instead of computing to completion.
	t.Run("cancelled-ctx", func(t *testing.T) {
		ctx, cancel := context.WithCancel(bg)
		cancel()
		p := &Problem{ID: "sum-cancelled", DM: newSumDM(n)}
		if _, err := RunLocal(ctx, p, 2, sched.Fixed{Size: 3}); !errors.Is(err, context.Canceled) {
			t.Fatalf("RunLocal on cancelled ctx = %v, want context.Canceled", err)
		}
	})
}

func TestRunLocalRequeuesFailedUnits(t *testing.T) {
	registerSum(t)
	const n, failures = 500, 3
	failNext.Store(failures)
	defer failNext.Store(0)

	srv := newQuietServer(ServerOptions{
		Policy: sched.Fixed{Size: 25},
		Lease:  time.Hour,
	})
	defer srv.Close()
	p := &Problem{ID: "sum-fail", DM: newSumDM(n)}
	if err := srv.Submit(bg, p); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	donors := make([]*Donor, 2)
	for i := range donors {
		donors[i] = newTestDonor(srv, DonorOptions{Name: fmt.Sprintf("w%d", i), Logf: t.Logf})
		wg.Add(1)
		go func(d *Donor) { defer wg.Done(); _ = d.Run(bg) }(donors[i])
	}
	out, err := srv.Wait(bg, p.ID)
	for _, d := range donors {
		d.Stop()
	}
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeSum(t, out); got != sumSquares(n) {
		t.Errorf("sum = %d, want %d", got, sumSquares(n))
	}
	st, err := srv.Stats(bg, p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reissued != failures {
		t.Errorf("reissued = %d, want %d", st.Reissued, failures)
	}
	if st.Completed == 0 {
		t.Error("no units completed")
	}
}

func TestPoisonedUnitFailsProblemEventually(t *testing.T) {
	registerSum(t)
	dm := newSumDM(10)
	dm.poison = true
	p := &Problem{ID: "sum-poison", DM: dm}
	_, err := RunLocal(bg, p, 2, sched.Fixed{Size: 1 << 40})
	if err == nil || !strings.Contains(err.Error(), "failed") {
		t.Errorf("poisoned problem error = %v, want repeated-failure error", err)
	}
}

func TestLeaseExpiryReissuesToOtherDonor(t *testing.T) {
	registerSum(t)
	srv := newTestServer(ServerOptions{
		Policy: sched.Fixed{Size: 1 << 40}, // whole problem in one unit
		Lease:  30 * time.Millisecond,
	})
	defer srv.Close()
	const n = 100
	p := &Problem{ID: "sum-expire", DM: newSumDM(n)}
	if err := srv.Submit(bg, p); err != nil {
		t.Fatal(err)
	}
	// A ghost donor claims the only unit and vanishes (a powered-off lab
	// machine); the lease must expire and the unit go to a live donor.
	if task, _, err := srv.RequestTask(bg, "ghost"); err != nil || task == nil {
		t.Fatalf("ghost got no task: %v", err)
	}
	d := newTestDonor(srv, DonorOptions{Name: "live"})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = d.Run(bg) }()
	out, err := srv.Wait(bg, p.ID)
	d.Stop()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeSum(t, out); got != sumSquares(n) {
		t.Errorf("sum = %d, want %d", got, sumSquares(n))
	}
	st, _ := srv.Stats(bg, p.ID)
	if st.Reissued < 1 {
		t.Errorf("reissued = %d, want >= 1", st.Reissued)
	}
	if d.Units() == 0 {
		t.Error("live donor completed nothing")
	}
}

func TestRequeueFallsBackWhenOtherDonorDead(t *testing.T) {
	registerSum(t)
	srv := newQuietServer(ServerOptions{
		Policy: sched.Fixed{Size: 1 << 40}, // whole problem in one unit
		Lease:  50 * time.Millisecond,
	})
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "fallback", DM: newSumDM(50)}); err != nil {
		t.Fatal(err)
	}
	// Donor a claims the only unit; donor b registers, then goes silent.
	task, _, err := srv.RequestTask(bg, "a")
	if err != nil || task == nil {
		t.Fatalf("a got no task: %v", err)
	}
	if _, _, err := srv.RequestTask(bg, "b"); err != nil {
		t.Fatal(err)
	}
	if err := srv.ReportFailure(bg, "a", "fallback", task.Unit.ID, "transient"); err != nil {
		t.Fatal(err)
	}
	// While b looks alive, the requeued unit is reserved for it.
	if task, _, _ := srv.RequestTask(bg, "a"); task != nil {
		t.Fatal("a immediately retook its own failed unit despite a live peer")
	}
	// Once b has not polled for a full lease, a must get the unit back
	// rather than starving the problem forever.
	deadline := time.Now().Add(5 * time.Second)
	for {
		task, _, err := srv.RequestTask(bg, "a")
		if err != nil {
			t.Fatal(err)
		}
		if task != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("requeued unit starved: never re-dispatched after peer went silent")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sharedStub serves every problem's ID as its shared blob, without a
// server; it never dispatches a unit.
type sharedStub struct{}

func (sharedStub) WaitTasks(context.Context, string, time.Duration, int) ([]*Task, time.Duration, error) {
	return nil, 0, nil
}

func (sharedStub) FetchContent(_ context.Context, problemID, _ string) ([]byte, error) {
	return []byte(problemID), nil
}
func (sharedStub) CancelNotices(context.Context, string) ([]CancelNotice, error) { return nil, nil }
func (sharedStub) SubmitResult(context.Context, *Result) error                   { return nil }
func (sharedStub) ReportFailure(context.Context, string, string, int64, string) error {
	return nil
}

// algFor drives Donor.algorithm with a synthetic task whose shared blob is
// sharedStub's: the problem ID's bytes.
func algFor(d *Donor, problemID, name string, epoch int64) (Algorithm, error) {
	alg, _, err := d.algorithm(bg, &Task{ProblemID: problemID, Unit: Unit{Algorithm: name}, Epoch: epoch,
		SharedDigest: wire.Digest([]byte(problemID))})
	return alg, err
}

func TestDonorCacheBounded(t *testing.T) {
	registerSum(t)
	d := newTestDonor(sharedStub{}, DonorOptions{Name: "cache"})
	// The resident-problem bound is derived from the blob budget; at the
	// default budget it must reproduce the old hardcoded 8.
	cap := d.opts.problemCacheCap()
	if cap != 8 {
		t.Fatalf("default problemCacheCap = %d, want 8", cap)
	}
	for i := 0; i < 3*cap; i++ {
		if _, err := algFor(d, fmt.Sprintf("p%02d", i), "dist-test/sum", int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.problems) > cap || len(d.problemOrder) > cap {
		t.Errorf("cache grew unbounded: %d problems, %d tracked", len(d.problems), len(d.problemOrder))
	}
	algs := 0
	for _, rp := range d.problems {
		algs += len(rp.algs)
	}
	if algs > cap {
		t.Errorf("algorithm cache grew unbounded: %d", algs)
	}
	// The shared bytes outlive their problem's eviction (another problem
	// may carry them); the blob cache's own byte budget bounds them.
	d.opts.BlobCache.mu.Lock()
	used, budget := d.opts.BlobCache.used, d.opts.BlobCache.budget
	d.opts.BlobCache.mu.Unlock()
	if used > budget {
		t.Errorf("blob cache holds %d bytes, over its %d-byte budget", used, budget)
	}
	// The most recent problem must still be cached.
	last := fmt.Sprintf("p%02d", 3*cap-1)
	if _, ok := d.problems[last]; !ok {
		t.Errorf("most recent problem %s evicted", last)
	}
}

// TestDonorProblemCapDerivedFromBudget pins the budget→bound derivation:
// proportional above the floor, floored below it so a tiny budget still
// caches the problem being computed.
func TestDonorProblemCapDerivedFromBudget(t *testing.T) {
	cases := []struct {
		cache *BlobCache
		want  int
	}{
		{nil, 8},                                    // default 256 MiB
		{NewBlobCache(256 << 20), 8},                // explicit default
		{NewBlobCache(1 << 30), 32},                 // bigger budget, more resident problems
		{NewBlobCache(32 << 20), minCachedProblems}, // one quantum still floors
		{NewBlobCache(-1), minCachedProblems},       // "no cache" keeps the floor
		{NewBlobCache(4 << 10), minCachedProblems},  // tiny budget keeps the floor
	}
	for i, c := range cases {
		o := DonorOptions{BlobCache: c.cache}
		o.applyDefaults()
		if got := o.problemCacheCap(); got != c.want {
			t.Errorf("case %d: problemCacheCap(budget=%d) = %d, want %d", i, o.BlobCache.budget, got, c.want)
		}
	}
}

// fetchCountingStub counts shared-data fetches so cache behaviour is
// observable.
type fetchCountingStub struct {
	sharedStub
	fetches int
}

func (s *fetchCountingStub) FetchContent(_ context.Context, problemID, _ string) ([]byte, error) {
	s.fetches++
	return []byte(problemID), nil
}

// TestDonorEvictsCacheOnEpochChange: a task of a new epoch means the ID
// was forgotten and resubmitted — possibly with different shared data — so
// the resident algorithm state is rebuilt. The bytes themselves come
// through the digest-keyed blob cache: the same bytes are not fetched again
// (different bytes would carry another digest).
func TestDonorEvictsCacheOnEpochChange(t *testing.T) {
	registerSum(t)
	stub := &fetchCountingStub{}
	inits := 0
	d := newTestDonor(stub, DonorOptions{Name: "epoch",
		WrapAlgorithm: func(_ string, a Algorithm) Algorithm { inits++; return a }})
	for _, epoch := range []int64{1, 1, 2} {
		if _, err := algFor(d, "p", "dist-test/sum", epoch); err != nil {
			t.Fatal(err)
		}
	}
	if inits != 2 {
		t.Errorf("epochs 1, 1, 2 built %d algorithm instances, want 2", inits)
	}
	if stub.fetches != 1 {
		t.Errorf("fetched the unchanged shared bytes %d times, want 1", stub.fetches)
	}
}

func TestServerValidation(t *testing.T) {
	srv := newTestServer(ServerOptions{})
	defer srv.Close()
	if err := srv.Submit(bg, nil); err == nil {
		t.Error("nil problem accepted")
	}
	if err := srv.Submit(bg, &Problem{ID: "", DM: newSumDM(1)}); err == nil {
		t.Error("empty ID accepted")
	}
	if err := srv.Submit(bg, &Problem{ID: "p", DM: newSumDM(1)}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(bg, &Problem{ID: "p", DM: newSumDM(1)}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if _, err := srv.Wait(bg, "nope"); !errors.Is(err, ErrUnknownProblem) {
		t.Errorf("Wait on unknown problem = %v, want ErrUnknownProblem", err)
	}
	if _, err := srv.Status(bg, "nope"); !errors.Is(err, ErrUnknownProblem) {
		t.Errorf("Status on unknown problem = %v, want ErrUnknownProblem", err)
	}
	if _, err := srv.Stats(bg, "nope"); !errors.Is(err, ErrUnknownProblem) {
		t.Errorf("Stats on unknown problem = %v, want ErrUnknownProblem", err)
	}
}

func TestForgetLifecycle(t *testing.T) {
	srv := newTestServer(ServerOptions{})
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "gone", DM: newSumDM(0), SharedData: []byte("blob")}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Wait(bg, "gone"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Forget("gone"); err != nil {
		t.Fatalf("Forget = %v", err)
	}
	if err := srv.Forget("gone"); err != nil {
		t.Errorf("double Forget = %v, want nil (idempotent)", err)
	}
	// Completed-and-evicted is distinguishable from never-existed.
	if _, err := srv.Status(bg, "gone"); !errors.Is(err, ErrForgotten) {
		t.Errorf("Status after Forget = %v, want ErrForgotten", err)
	}
	if _, err := srv.Stats(bg, "gone"); !errors.Is(err, ErrForgotten) {
		t.Errorf("Stats after Forget = %v, want ErrForgotten", err)
	}
	if blob, err := srv.FetchContent(bg, "gone", wire.Digest([]byte("blob"))); err == nil {
		t.Errorf("FetchContent after Forget served %q, want not found", blob)
	}
	if err := srv.Forget("never"); !errors.Is(err, ErrUnknownProblem) {
		t.Errorf("Forget(never submitted) = %v, want ErrUnknownProblem", err)
	}
	// Wait after Forget fails fast instead of blocking forever.
	waited := make(chan error, 1)
	go func() {
		_, err := srv.Wait(bg, "gone")
		waited <- err
	}()
	select {
	case err := <-waited:
		if !errors.Is(err, ErrForgotten) {
			t.Errorf("Wait after Forget = %v, want ErrForgotten", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait after Forget blocked")
	}
	// A forgotten ID may be reused by a later Submit.
	if err := srv.Submit(bg, &Problem{ID: "gone", DM: newSumDM(0)}); err != nil {
		t.Fatalf("resubmit after Forget: %v", err)
	}
	if _, err := srv.Wait(bg, "gone"); err != nil {
		t.Errorf("Wait on resubmitted ID = %v", err)
	}
}

func TestForgetWhileLeased(t *testing.T) {
	srv := newQuietServer(ServerOptions{
		Policy: sched.Fixed{Size: 10},
		Lease:  time.Hour,
	})
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "leased", DM: newSumDM(100)}); err != nil {
		t.Fatal(err)
	}
	task, _, err := srv.RequestTask(bg, "w0")
	if err != nil || task == nil {
		t.Fatalf("no task: %v", err)
	}
	waited := make(chan error, 1)
	go func() {
		_, err := srv.Wait(bg, "leased")
		waited <- err
	}()
	if err := srv.Forget("leased"); err != nil {
		t.Fatal(err)
	}
	// Forgetting a running problem unblocks its waiters with ErrForgotten.
	select {
	case err := <-waited:
		if !errors.Is(err, ErrForgotten) {
			t.Errorf("Wait on problem forgotten mid-run = %v, want ErrForgotten", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait still blocked after Forget")
	}
	// The leased unit is discarded, not requeued: straggler results and
	// failure reports are ignored without error, and no donor is handed
	// the unit again.
	if err := srv.SubmitResult(bg, &Result{ProblemID: "leased", UnitID: task.Unit.ID, Donor: "w0"}); err != nil {
		t.Errorf("straggler SubmitResult after Forget = %v", err)
	}
	if err := srv.ReportFailure(bg, "w0", "leased", task.Unit.ID, "late"); err != nil {
		t.Errorf("straggler ReportFailure after Forget = %v", err)
	}
	if task2, _, err := srv.RequestTask(bg, "w1"); err != nil || task2 != nil {
		t.Errorf("unit re-dispatched after Forget: task=%+v err=%v", task2, err)
	}
}

// TestStaleResultAfterResubmitRejected: unit numbering restarts when a
// forgotten ID is resubmitted, so a straggler result computed for the old
// incarnation can collide with a new unit's ID. The epoch tag must keep it
// out of the new problem's DataManager.
func TestStaleResultAfterResubmitRejected(t *testing.T) {
	srv := newQuietServer(ServerOptions{
		Policy: sched.Fixed{Size: 10},
		Lease:  time.Hour,
	})
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "re", DM: newSumDM(100)}); err != nil {
		t.Fatal(err)
	}
	oldTask, _, err := srv.RequestTask(bg, "a")
	if err != nil || oldTask == nil {
		t.Fatalf("no task from first incarnation: %v", err)
	}
	if err := srv.Forget("re"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(bg, &Problem{ID: "re", DM: newSumDM(100)}); err != nil {
		t.Fatal(err)
	}
	newTask, _, err := srv.RequestTask(bg, "b")
	if err != nil || newTask == nil {
		t.Fatalf("no task from second incarnation: %v", err)
	}
	if oldTask.Unit.ID != newTask.Unit.ID {
		t.Fatalf("test setup: unit IDs %d vs %d do not collide", oldTask.Unit.ID, newTask.Unit.ID)
	}
	if oldTask.Epoch == newTask.Epoch {
		t.Fatalf("incarnations share epoch %d", oldTask.Epoch)
	}
	// The stale straggler must be dropped, not folded into the new unit.
	if err := srv.SubmitResult(bg, &Result{
		ProblemID: "re", UnitID: oldTask.Unit.ID, Payload: MustMarshal(int64(1 << 40)),
		Elapsed: time.Millisecond, Donor: "a", Epoch: oldTask.Epoch,
	}); err != nil {
		t.Fatal(err)
	}
	if st, err := srv.Stats(bg, "re"); err != nil || st.Completed != 0 {
		t.Fatalf("stale result accepted: completed=%d err=%v", st.Completed, err)
	}
	// The current incarnation's own result still lands.
	var u sumUnit
	if err := Unmarshal(newTask.Unit.Payload, &u); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for i := u.From; i < u.To; i++ {
		sum += i * i
	}
	if err := srv.SubmitResult(bg, &Result{
		ProblemID: "re", UnitID: newTask.Unit.ID, Payload: MustMarshal(sum),
		Elapsed: time.Millisecond, Donor: "b", Epoch: newTask.Epoch,
	}); err != nil {
		t.Fatal(err)
	}
	if st, err := srv.Stats(bg, "re"); err != nil || st.Completed != 1 {
		t.Fatalf("live result rejected: completed=%d err=%v", st.Completed, err)
	}
}

func TestForgottenTombstonesBounded(t *testing.T) {
	srv := newTestServer(ServerOptions{})
	defer srv.Close()
	for i := 0; i < maxForgottenTombstones+50; i++ {
		id := fmt.Sprintf("tomb-%05d", i)
		if err := srv.Submit(bg, &Problem{ID: id, DM: newSumDM(0)}); err != nil {
			t.Fatal(err)
		}
		if err := srv.Forget(id); err != nil {
			t.Fatal(err)
		}
	}
	srv.regMu.RLock()
	n, ordered := len(srv.forgotten), len(srv.forgottenOrder)
	srv.regMu.RUnlock()
	if n > maxForgottenTombstones || ordered > maxForgottenTombstones {
		t.Errorf("tombstones unbounded: set=%d order=%d cap=%d", n, ordered, maxForgottenTombstones)
	}
	// Recent tombstones still answer ErrForgotten; the oldest aged out to
	// the unknown-problem error.
	if _, err := srv.Status(bg, fmt.Sprintf("tomb-%05d", maxForgottenTombstones+49)); !errors.Is(err, ErrForgotten) {
		t.Errorf("fresh tombstone = %v, want ErrForgotten", err)
	}
	if _, err := srv.Status(bg, "tomb-00000"); !errors.Is(err, ErrUnknownProblem) {
		t.Errorf("aged-out tombstone = %v, want ErrUnknownProblem", err)
	}
}

func TestDonorOptionsRedialDefaults(t *testing.T) {
	// An explicit cap below the default floor must win — "-retry 100ms"
	// means backoff ≤ 100ms, not a silent raise to 250ms.
	o := DonorOptions{RedialMax: 100 * time.Millisecond}
	o.applyDefaults()
	if o.redialFloor() != 100*time.Millisecond || o.RedialMax != 100*time.Millisecond {
		t.Errorf("sub-default cap not honored: floor=%s max=%s", o.redialFloor(), o.RedialMax)
	}
	o = DonorOptions{}
	o.applyDefaults()
	if o.redialFloor() != 250*time.Millisecond || o.RedialMax != 30*time.Second {
		t.Errorf("defaults: floor=%s max=%s", o.redialFloor(), o.RedialMax)
	}
}

// TestConcurrentSubmitWaitReportFailure is the -race regression for the
// sharded coordinator: problems are submitted while worker loops hammer
// RequestTask/SubmitResult/ReportFailure across all of them and a waiter
// blocks on each problem. Injected failures exercise unitTable.drop and
// unitTable.reissue concurrently with Wait on the same problem.
func TestConcurrentSubmitWaitReportFailure(t *testing.T) {
	registerSum(t)
	srv := newQuietServer(ServerOptions{
		Policy: sched.Fixed{Size: 7},
		Lease:  time.Hour,
	})
	defer srv.Close()

	const (
		problems = 4
		n        = 2000
		workers  = 4
	)
	stopWorkers := make(chan struct{})
	var workerWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func(name string) {
			defer workerWG.Done()
			for {
				select {
				case <-stopWorkers:
					return
				default:
				}
				task, _, err := srv.RequestTask(bg, name)
				if err != nil {
					return // server closed under us (test tearing down)
				}
				if task == nil {
					time.Sleep(50 * time.Millisecond) // nothing dispatchable: poll again
					continue
				}
				// One worker fails some units; requeue must migrate them
				// to the others without racing the waiters.
				if name == "cw0" && task.Unit.ID%5 == 0 {
					_ = srv.ReportFailure(bg, name, task.ProblemID, task.Unit.ID, "injected")
					continue
				}
				var u sumUnit
				if err := Unmarshal(task.Unit.Payload, &u); err != nil {
					t.Error(err)
					return
				}
				var sum int64
				for i := u.From; i < u.To; i++ {
					sum += i * i
				}
				payload, err := Marshal(sum)
				if err != nil {
					t.Error(err)
					return
				}
				_ = srv.SubmitResult(bg, &Result{
					ProblemID: task.ProblemID,
					UnitID:    task.Unit.ID,
					Payload:   payload,
					Elapsed:   time.Millisecond,
					Donor:     name,
					Epoch:     task.Epoch,
				})
			}
		}(fmt.Sprintf("cw%d", w))
	}

	var wg sync.WaitGroup
	errs := make([]error, problems)
	sums := make([]int64, problems)
	for p := 0; p < problems; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Stagger the submissions so dispatch is already running when
			// later problems register.
			time.Sleep(time.Duration(p) * 2 * time.Millisecond)
			id := fmt.Sprintf("conc-%d", p)
			if err := srv.Submit(bg, &Problem{ID: id, DM: newSumDM(n)}); err != nil {
				errs[p] = err
				return
			}
			out, err := srv.Wait(bg, id)
			if err != nil {
				errs[p] = err
				return
			}
			var got int64
			if err := Unmarshal(out, &got); err != nil {
				errs[p] = err
				return
			}
			sums[p] = got
		}(p)
	}
	wg.Wait()
	close(stopWorkers)
	workerWG.Wait()
	for p := 0; p < problems; p++ {
		if errs[p] != nil {
			t.Errorf("problem %d: %v", p, errs[p])
		} else if sums[p] != sumSquares(n) {
			t.Errorf("problem %d: sum = %d, want %d", p, sums[p], sumSquares(n))
		}
	}
}

func TestStatusReportsProgress(t *testing.T) {
	registerSum(t)
	srv := newTestServer(ServerOptions{Policy: sched.Fixed{Size: 10}})
	defer srv.Close()
	dm := newSumDM(100)
	if err := srv.Submit(bg, &Problem{ID: "prog", DM: dm}); err != nil {
		t.Fatal(err)
	}
	task, _, err := srv.RequestTask(bg, "w0")
	if err != nil || task == nil {
		t.Fatalf("no task: %v", err)
	}
	st, err := srv.Status(bg, "prog")
	if err != nil {
		t.Fatal(err)
	}
	if st.Inflight != 1 || st.Done || st.AppTotal != 100 {
		t.Errorf("status = %+v", st)
	}
	if srv.DonorCount() != 1 {
		t.Errorf("DonorCount = %d", srv.DonorCount())
	}
}

// stallDM has work it never hands out — the server must fail it loudly
// instead of letting Wait hang forever.
type stallDM struct{}

func (stallDM) NextUnit(int64) (*Unit, bool, error) { return nil, false, nil }
func (stallDM) Consume(int64, []byte) error         { return nil }
func (stallDM) Done() bool                          { return false }
func (stallDM) FinalResult() ([]byte, error)        { return nil, nil }

func TestStalledProblemFailsLoudly(t *testing.T) {
	srv := newTestServer(ServerOptions{})
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "stall", DM: stallDM{}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.RequestTask(bg, "w0"); err != nil {
		t.Fatal(err)
	}
	_, err := srv.Wait(bg, "stall")
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Errorf("stalled problem error = %v", err)
	}
}

func TestDoneAtSubmitFinalizesImmediately(t *testing.T) {
	srv := newTestServer(ServerOptions{})
	defer srv.Close()
	dm := newSumDM(0) // completed >= n holds immediately
	if err := srv.Submit(bg, &Problem{ID: "empty", DM: dm}); err != nil {
		t.Fatal(err)
	}
	out, err := srv.Wait(bg, "empty")
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeSum(t, out); got != 0 {
		t.Errorf("empty problem sum = %d", got)
	}
}

func TestCloseUnblocksWaiters(t *testing.T) {
	srv := newTestServer(ServerOptions{})
	if err := srv.Submit(bg, &Problem{ID: "never", DM: newSumDM(1000)}); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := srv.Wait(bg, "never")
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Wait after Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait still blocked after Close")
	}
	if _, _, err := srv.RequestTask(bg, "w"); !errors.Is(err, ErrClosed) {
		t.Errorf("RequestTask after Close = %v", err)
	}
}
