package dist

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
)

// waitTaskResult carries one WaitTask outcome out of a parked goroutine.
type waitTaskResult struct {
	task *Task
	wait time.Duration
	err  error
}

// parkWaitTask parks a WaitTask call in a goroutine and returns the
// channel its outcome arrives on.
func parkWaitTask(srv *Server, donor string, maxWait time.Duration) <-chan waitTaskResult {
	got := make(chan waitTaskResult, 1)
	go func() {
		task, wait, err := srv.WaitTask(bg, donor, maxWait)
		got <- waitTaskResult{task, wait, err}
	}()
	return got
}

// expectWake asserts that a parked WaitTask resolves within the deadline
// and returns its outcome.
func expectWake(t *testing.T, got <-chan waitTaskResult, within time.Duration) waitTaskResult {
	t.Helper()
	select {
	case r := <-got:
		return r
	case <-time.After(within):
		t.Fatalf("parked WaitTask still parked after %s", within)
		return waitTaskResult{}
	}
}

// TestWaitTaskWakesOnSubmit: a donor parked in WaitTask with no work
// anywhere is woken by a Submit and handed the fresh problem's unit —
// the push-dispatch path that replaces waiting out a poll interval.
func TestWaitTaskWakesOnSubmit(t *testing.T) {
	srv := newQuietServer(ServerOptions{Policy: sched.Fixed{Size: 1000}, Lease: time.Hour})
	defer srv.Close()

	got := parkWaitTask(srv, "parked", 10*time.Second)
	time.Sleep(30 * time.Millisecond) // let the call actually park
	if err := srv.Submit(bg, &Problem{ID: "wake-submit", DM: newSumDM(100)}); err != nil {
		t.Fatal(err)
	}
	r := expectWake(t, got, 2*time.Second)
	if r.err != nil || r.task == nil {
		t.Fatalf("WaitTask after Submit = task %v, err %v; want the submitted problem's unit", r.task, r.err)
	}
	if r.task.ProblemID != "wake-submit" {
		t.Errorf("woke with problem %q, want wake-submit", r.task.ProblemID)
	}
}

// TestWaitTaskWakesOnFailureRequeue: the only unit is leased to donor A;
// parked donor B is woken the moment A's failure report requeues it.
func TestWaitTaskWakesOnFailureRequeue(t *testing.T) {
	srv := newQuietServer(ServerOptions{Policy: sched.Fixed{Size: 1000}, Lease: time.Hour})
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "wake-requeue", DM: newSumDM(100)}); err != nil {
		t.Fatal(err)
	}
	task, _, err := srv.RequestTask(bg, "a")
	if err != nil || task == nil {
		t.Fatalf("no task for donor a: %v", err)
	}

	got := parkWaitTask(srv, "b", 10*time.Second)
	time.Sleep(30 * time.Millisecond)
	if err := srv.ReportFailure(bg, "a", task.ProblemID, task.Unit.ID, "injected"); err != nil {
		t.Fatal(err)
	}
	r := expectWake(t, got, 2*time.Second)
	if r.err != nil || r.task == nil {
		t.Fatalf("WaitTask after requeue = task %v, err %v", r.task, r.err)
	}
	if r.task.Unit.ID != task.Unit.ID {
		t.Errorf("woke with unit %d, want requeued unit %d", r.task.Unit.ID, task.Unit.ID)
	}
}

// TestWaitTaskWakesOnLeaseExpiry: donor A leases the only unit and goes
// silent; the expiry sweep requeues it and must wake parked donor B.
func TestWaitTaskWakesOnLeaseExpiry(t *testing.T) {
	srv := newTestServer(ServerOptions{
		Policy: sched.Fixed{Size: 1000},
		Lease:  50 * time.Millisecond,
	})
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "wake-expiry", DM: newSumDM(100)}); err != nil {
		t.Fatal(err)
	}
	task, _, err := srv.RequestTask(bg, "a")
	if err != nil || task == nil {
		t.Fatalf("no task for donor a: %v", err)
	}

	got := parkWaitTask(srv, "b", 10*time.Second)
	r := expectWake(t, got, 5*time.Second)
	if r.err != nil || r.task == nil {
		t.Fatalf("WaitTask after lease expiry = task %v, err %v", r.task, r.err)
	}
	if r.task.Unit.ID != task.Unit.ID {
		t.Errorf("woke with unit %d, want expired unit %d", r.task.Unit.ID, task.Unit.ID)
	}
}

// TestWaitTaskWakesOnStageBarrierRelease: a stage-barrier DataManager has
// nothing dispatchable until the in-flight unit's result is folded. The
// parked donor must wake on that SubmitResult, not on a timer.
func TestWaitTaskWakesOnStageBarrierRelease(t *testing.T) {
	srv := newQuietServer(ServerOptions{Policy: sched.Fixed{Size: 1000}, Lease: time.Hour})
	defer srv.Close()
	// barrierDM releases one unit per stage and refuses the next until the
	// previous result was consumed.
	dm := &barrierDM{stages: 2}
	if err := srv.Submit(bg, &Problem{ID: "barrier", DM: dm}); err != nil {
		t.Fatal(err)
	}
	task, _, err := srv.RequestTask(bg, "a")
	if err != nil || task == nil {
		t.Fatalf("no stage-1 task: %v", err)
	}

	got := parkWaitTask(srv, "b", 10*time.Second)
	time.Sleep(30 * time.Millisecond)
	if err := srv.SubmitResult(bg, &Result{ProblemID: "barrier", UnitID: task.Unit.ID, Donor: "a", Elapsed: time.Millisecond, Epoch: task.Epoch}); err != nil {
		t.Fatal(err)
	}
	r := expectWake(t, got, 2*time.Second)
	if r.err != nil || r.task == nil {
		t.Fatalf("WaitTask after barrier release = task %v, err %v", r.task, r.err)
	}
}

// barrierDM hands out `stages` units, one at a time, each gated on the
// previous unit's result having been consumed.
type barrierDM struct {
	stages   int
	issued   int
	consumed int
}

func (d *barrierDM) NextUnit(int64) (*Unit, bool, error) {
	if d.issued >= d.stages || d.issued > d.consumed {
		return nil, false, nil // barrier: previous stage still in flight
	}
	d.issued++
	return &Unit{ID: int64(d.issued), Algorithm: "dist-test/sum", Cost: 1}, true, nil
}

func (d *barrierDM) Consume(int64, []byte) error { d.consumed++; return nil }
func (d *barrierDM) Done() bool                  { return d.consumed >= d.stages }
func (d *barrierDM) FinalResult() ([]byte, error) {
	return Marshal(int64(d.consumed))
}

// recordUnitTimes feeds the per-unit compute times a donor reported into
// the server's estimate, as its accepted results would: the measurement
// WaitTasks sizes that donor's batches from.
func recordUnitTimes(srv *Server, donor string, elapsed ...time.Duration) {
	ds := srv.touchDonor(donor, time.Now())
	for _, e := range elapsed {
		srv.feedThroughput(ds, 1, e)
	}
}

// TestWaitTasksSizesBatchFromDonorRate: the server alone sizes a batch, from
// the unit times the donor reported — at most 1+batchLatencyTarget/unit
// time, capped by dispatchBatch and by the caller's max when it sets one. An
// unmeasured donor gets one unit, a reported Elapsed ≤ 0 leaves the
// estimate where it was, and a wire caller that sets no cap is sized the
// same way.
func TestWaitTasksSizesBatchFromDonorRate(t *testing.T) {
	rows := []struct {
		name  string
		units []time.Duration // reported before the call, in order
		max   int             // the caller's cap; 0 sets none
		wire  bool            // call through RPCClient.WaitTasks
		want  int
	}{
		{name: "unmeasured", want: 1},
		{name: "1µs units", units: []time.Duration{time.Microsecond}, want: 8},
		{name: "4ms units", units: []time.Duration{4 * time.Millisecond}, want: 3},
		{name: "50ms units", units: []time.Duration{50 * time.Millisecond}, want: 1},
		{name: "caller max 2", units: []time.Duration{time.Microsecond}, max: 2, want: 2},
		{name: "elapsed ≤ 0 ignored", units: []time.Duration{4 * time.Millisecond, 0, -time.Second}, want: 3},
		{name: "over the wire", units: []time.Duration{time.Microsecond}, wire: true, want: 8},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			opts := ServerOptions{Policy: sched.Fixed{Size: 1}, Lease: time.Hour}
			var srv *Server
			var waiter TaskBatchWaiter
			if r.wire {
				ns, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0", WithServerOptions(opts))
				if err != nil {
					t.Fatal(err)
				}
				defer ns.Close()
				cl, err := Dial(ns.RPCAddr(), 5*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				srv, waiter = ns.Server, cl
			} else {
				srv = newTestServer(opts)
				defer srv.Close()
				waiter = srv
			}
			if err := srv.Submit(bg, &Problem{ID: "stocked", DM: newSumDM(100)}); err != nil {
				t.Fatal(err)
			}
			recordUnitTimes(srv, "d", r.units...)
			tasks, _, err := waiter.WaitTasks(bg, "d", 0, r.max)
			if err != nil {
				t.Fatal(err)
			}
			if len(tasks) != r.want {
				t.Errorf("WaitTasks(…, 0, %d) after unit times %v = %d units, want %d", r.max, r.units, len(tasks), r.want)
			}
		})
	}
}

// TestWaitTaskDeadlineReparks: an idle park must end at the deadline with
// (nil, 0, nil) — the "re-park immediately" shape — and a fresh park after
// it must still be wakeable.
func TestWaitTaskDeadlineReparks(t *testing.T) {
	srv := newQuietServer(ServerOptions{Policy: sched.Fixed{Size: 1000}, Lease: time.Hour})
	defer srv.Close()

	t0 := time.Now()
	task, wait, err := srv.WaitTask(bg, "w", 40*time.Millisecond)
	elapsed := time.Since(t0)
	if err != nil || task != nil || wait != 0 {
		t.Fatalf("idle WaitTask = task %v, wait %v, err %v; want nil, 0, nil", task, wait, err)
	}
	if elapsed < 35*time.Millisecond {
		t.Errorf("park returned after %s, want ≈40ms (the deadline, not an early bail)", elapsed)
	}

	// The re-park is a fresh, fully functional park.
	got := parkWaitTask(srv, "w", 10*time.Second)
	time.Sleep(20 * time.Millisecond)
	if err := srv.Submit(bg, &Problem{ID: "repark", DM: newSumDM(50)}); err != nil {
		t.Fatal(err)
	}
	if r := expectWake(t, got, 2*time.Second); r.err != nil || r.task == nil {
		t.Fatalf("re-park wake = task %v, err %v", r.task, r.err)
	}
}

// TestWaitTaskCtxCancelAndClose: a cancelled context unparks with the
// context's error; Close unparks every parked donor with ErrClosed.
func TestWaitTaskCtxCancelAndClose(t *testing.T) {
	srv := newQuietServer(ServerOptions{Policy: sched.Fixed{Size: 1000}, Lease: time.Hour})

	ctx, cancel := context.WithCancel(bg)
	got := make(chan waitTaskResult, 1)
	go func() {
		task, wait, err := srv.WaitTask(ctx, "w", 10*time.Second)
		got <- waitTaskResult{task, wait, err}
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if r := expectWake(t, got, 2*time.Second); !errors.Is(r.err, context.Canceled) {
		t.Errorf("cancelled park err = %v, want context.Canceled", r.err)
	}

	closed := parkWaitTask(srv, "w2", 10*time.Second)
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if r := expectWake(t, closed, 2*time.Second); !errors.Is(r.err, ErrClosed) {
		t.Errorf("park across Close err = %v, want ErrClosed", r.err)
	}
}

// TestLongPollDonorSurvivesServerBounce crashes the server while the donor
// is parked mid-WaitTask: the severed park must surface as ErrServerGone
// (not a clean exit, not a hang), the redial loop must recover, and the
// donor must then drain fresh work from the restarted server.
func TestLongPollDonorSurvivesServerBounce(t *testing.T) {
	registerSum(t)
	rpcAddr := freeLoopbackAddr(t)
	bulkAddr := freeLoopbackAddr(t)

	srv1, err := ListenAndServe(rpcAddr, bulkAddr, WithServerOptions(netOpts()))
	if err != nil {
		t.Fatal(err)
	}
	// No work submitted: the donor goes straight into a WaitTask park.
	cl, err := Dial(rpcAddr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d := newTestDonor(cl, DonorOptions{
		Name:      "parked-bouncer",
		Logf:      t.Logf,
		Redial:    func() (Coordinator, error) { return Dial(rpcAddr, 2*time.Second) },
		RedialMax: 50 * time.Millisecond,
	})
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(bg) }()
	time.Sleep(100 * time.Millisecond) // donor is now parked in WaitTask

	crashNetworkServer(t, srv1)
	select {
	case err := <-runErr:
		t.Fatalf("donor exited on server loss mid-park (err=%v); want reconnect loop", err)
	case <-time.After(50 * time.Millisecond):
	}

	srv2, err := ListenAndServe(rpcAddr, bulkAddr, WithServerOptions(netOpts()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	const n = 400
	if err := srv2.Submit(bg, &Problem{ID: "post-bounce", DM: newSumDM(n)}); err != nil {
		t.Fatal(err)
	}
	out, err := srv2.Wait(bg, "post-bounce")
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeSum(t, out); got != sumSquares(n) {
		t.Errorf("post-bounce sum = %d, want %d", got, sumSquares(n))
	}
	if d.Units() == 0 {
		t.Error("donor completed no units after the bounce")
	}
	// An explicit Close must still end the loop cleanly — the parked
	// WaitTask is answered with the ErrClosed sentinel, no drain luck
	// required.
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Errorf("donor Run after explicit Close = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("donor still running after an explicit server Close")
	}
}

// spinStub is a buggy (or hostile) coordinator: WaitTasks claims the
// long-poll shape but answers instantly with an empty reply, forever. The
// donor loop must floor these instead of hammering the control channel in
// a hot loop.
type spinStub struct {
	sharedStub
	calls atomic.Int64
}

func (s *spinStub) WaitTasks(context.Context, string, time.Duration, int) ([]*Task, time.Duration, error) {
	s.calls.Add(1)
	return nil, 0, nil
}

func TestDonorFloorsInstantEmptyParks(t *testing.T) {
	stub := &spinStub{}
	d := newTestDonor(stub, DonorOptions{Name: "spin"})
	done := make(chan error, 1)
	go func() { done <- d.Run(bg) }()
	time.Sleep(100 * time.Millisecond)
	d.Stop()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// With the 1ms floor, ~100 calls fit into the window; without it the
	// loop would make hundreds of thousands.
	if n := stub.calls.Load(); n > 400 {
		t.Errorf("instant empty 'parks' produced %d control calls in 100ms; the sleep floor should bound this near 100", n)
	}
}

// TestWaitTaskManyParkedDonorsOneUnit: 16 donors park; a single-unit
// problem is submitted; exactly one donor gets the unit and the rest
// re-park without error — the broadcast wake must not duplicate dispatch.
func TestWaitTaskManyParkedDonorsOneUnit(t *testing.T) {
	srv := newQuietServer(ServerOptions{Policy: sched.Fixed{Size: 1000}, Lease: time.Hour})
	defer srv.Close()

	const parked = 16
	got := make(chan waitTaskResult, parked)
	for i := 0; i < parked; i++ {
		name := fmt.Sprintf("herd-%d", i)
		go func() {
			task, wait, err := srv.WaitTask(bg, name, 400*time.Millisecond)
			got <- waitTaskResult{task, wait, err}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	if err := srv.Submit(bg, &Problem{ID: "herd", DM: newSumDM(100)}); err != nil {
		t.Fatal(err)
	}

	tasks := 0
	for i := 0; i < parked; i++ {
		r := <-got
		if r.err != nil {
			t.Fatalf("herd WaitTask err = %v", r.err)
		}
		if r.task != nil {
			tasks++
		}
	}
	if tasks != 1 {
		t.Errorf("single unit dispatched to %d donors, want exactly 1", tasks)
	}
}
