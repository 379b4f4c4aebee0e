package dist

// Tests for the v2 API surface: context-first lifecycle with cancel
// propagation, typed codecs, Watch event streams, and functional options.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
)

// blockDM issues a single unit and then waits forever — the problem only
// ends by being forgotten (or the server closing).
type blockDM struct{ issued bool }

func (d *blockDM) NextUnit(int64) (*Unit, bool, error) {
	if d.issued {
		return nil, false, nil
	}
	d.issued = true
	return &Unit{ID: 1, Algorithm: "dist-test/block", Payload: MustEncode("x"), Cost: 1}, true, nil
}
func (d *blockDM) Consume(int64, []byte) error  { return nil }
func (d *blockDM) Done() bool                   { return false }
func (d *blockDM) FinalResult() ([]byte, error) { return nil, nil }

// blockAlg parks in ProcessCtx until its context is cancelled, reporting
// lifecycle moments through package-level channels (one test at a time).
type blockAlg struct{}

var (
	blockStarted   chan struct{}
	blockCtxErr    chan error
	registerBlock_ sync.Once
)

func registerBlock() {
	registerBlock_.Do(func() {
		RegisterAlgorithm("dist-test/block", func() Algorithm { return blockAlg{} })
	})
}

func (blockAlg) Init([]byte) error { return nil }

func (blockAlg) ProcessCtx(ctx context.Context, payload []byte) ([]byte, error) {
	blockStarted <- struct{}{}
	select {
	case <-ctx.Done():
		blockCtxErr <- ctx.Err()
		return nil, ctx.Err()
	case <-time.After(30 * time.Second):
		blockCtxErr <- nil
		return MustEncode("straggler"), nil
	}
}

// TestForgetCancelsInFlightUnitOverLoopback is the acceptance test for
// cancel propagation: a Forget during a live loopback run must stop the
// donor's compute — its ProcessCtx observes cancellation promptly (via the
// epoch-tagged cancel notice on the control channel) and no result is
// submitted for the forgotten epoch.
func TestForgetCancelsInFlightUnitOverLoopback(t *testing.T) {
	registerBlock()
	blockStarted = make(chan struct{}, 1)
	blockCtxErr = make(chan error, 1)

	srv, err := ListenAndServe("127.0.0.1:0", "127.0.0.1:0",
		WithPolicy(sched.Fixed{Size: 1}),
		WithLeaseTTL(time.Hour),
		WithExpiryScan(time.Hour),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "doomed", DM: &blockDM{}}); err != nil {
		t.Fatal(err)
	}

	cl, err := Dial(srv.RPCAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	d := NewDonor(cl,
		WithName("cancellee"),
		WithLogf(t.Logf),
		WithCancelPoll(10*time.Millisecond),
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = d.Run(bg) }()
	defer func() { d.Stop(); wg.Wait() }()

	select {
	case <-blockStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("donor never started the unit")
	}
	forgetAt := time.Now()
	if err := srv.Forget("doomed"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-blockCtxErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("ProcessCtx observed %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ProcessCtx never observed the cancellation")
	}
	// "Measurably stops donor compute": with a 10ms cancel poll the abort
	// must land well inside a second, not at the 30s compute horizon.
	if elapsed := time.Since(forgetAt); elapsed > 2*time.Second {
		t.Errorf("cancellation took %s, want well under 2s", elapsed)
	}
	// No result was submitted for the forgotten epoch, and the donor
	// counted the unit as aborted, not completed.
	waitFor(t, 5*time.Second, func() bool { return d.Aborted() == 1 })
	if d.Units() != 0 {
		t.Errorf("donor submitted %d results for a forgotten problem", d.Units())
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCancelNoticesDrainOnce: a Forget with a leased unit queues exactly
// one epoch-tagged notice for the holding donor, and draining is
// destructive.
func TestCancelNoticesDrainOnce(t *testing.T) {
	registerSum(t)
	srv := newTestServer(ServerOptions{
		Policy: sched.Fixed{Size: 10}, Lease: time.Hour, ExpiryScan: time.Hour,
	})
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "cn", DM: newSumDM(100)}); err != nil {
		t.Fatal(err)
	}
	task, _, err := srv.RequestTask(bg, "holder")
	if err != nil || task == nil {
		t.Fatalf("no task: %v", err)
	}
	if err := srv.Forget("cn"); err != nil {
		t.Fatal(err)
	}
	notices, err := srv.CancelNotices(bg, "holder")
	if err != nil {
		t.Fatal(err)
	}
	if len(notices) != 1 || notices[0].ProblemID != "cn" || notices[0].Epoch != task.Epoch || notices[0].UnitID != task.Unit.ID {
		t.Fatalf("notices = %+v, want one for cn/%d/%d", notices, task.Epoch, task.Unit.ID)
	}
	if again, _ := srv.CancelNotices(bg, "holder"); len(again) != 0 {
		t.Errorf("second drain returned %d notices, want 0", len(again))
	}
	if other, _ := srv.CancelNotices(bg, "bystander"); len(other) != 0 {
		t.Errorf("uninvolved donor got %d notices", len(other))
	}
}

// TestWatchEventOrdering drives a problem to completion under a watch and
// checks the stream's shape: the opening snapshot first, unit and progress
// events in causal order, the terminal finished event last (closing the
// channel).
func TestWatchEventOrdering(t *testing.T) {
	registerSum(t)
	srv := newTestServer(ServerOptions{
		Policy: sched.Fixed{Size: 25}, Lease: time.Hour, ExpiryScan: time.Hour,
	})
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "watched", DM: newSumDM(200)}); err != nil {
		t.Fatal(err)
	}
	events, err := srv.Watch(bg, "watched")
	if err != nil {
		t.Fatal(err)
	}
	d := newTestDonor(srv, DonorOptions{Name: "w"})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = d.Run(bg) }()
	if _, err := srv.Wait(bg, "watched"); err != nil {
		t.Fatal(err)
	}
	d.Stop()
	wg.Wait()

	var got []Event
	for ev := range events {
		got = append(got, ev)
	}
	if len(got) < 4 {
		t.Fatalf("only %d events for an 8-unit run", len(got))
	}
	if got[0].Kind != EventSubmitted {
		t.Errorf("first event = %v, want submitted snapshot", got[0].Kind)
	}
	last := got[len(got)-1]
	if last.Kind != EventFinished || last.Err != nil {
		t.Errorf("last event = %v (err %v), want clean finished", last.Kind, last.Err)
	}
	dispatched := make(map[int64]bool)
	var dispatchCount, doneCount int
	prevCompleted := 0
	for i, ev := range got {
		if ev.Kind.Terminal() && i != len(got)-1 {
			t.Errorf("terminal event at position %d of %d", i, len(got))
		}
		switch ev.Kind {
		case EventUnitDispatched:
			dispatchCount++
			dispatched[ev.UnitID] = true
			if ev.Donor != "w" {
				t.Errorf("dispatch event donor = %q", ev.Donor)
			}
		case EventUnitDone:
			doneCount++
			if !dispatched[ev.UnitID] {
				t.Errorf("unit %d done before its dispatch event", ev.UnitID)
			}
		case EventProgress:
			if ev.Completed < prevCompleted {
				t.Errorf("progress went backwards: %d after %d", ev.Completed, prevCompleted)
			}
			prevCompleted = ev.Completed
		}
	}
	if dispatchCount == 0 || doneCount == 0 {
		t.Errorf("dispatched=%d done=%d events, want both > 0", dispatchCount, doneCount)
	}

	// Event.Inflight is the live-lease counter Status reports, the replica
	// leases of a pending quorum included.
	vsrv := newTestServer(verifyTestOptions())
	defer vsrv.Close()
	if err := vsrv.Submit(bg, &Problem{ID: "held", DM: newRecDM(1)}); err != nil {
		t.Fatal(err)
	}
	vevents, err := vsrv.Watch(bg, "held")
	if err != nil {
		t.Fatal(err)
	}
	ta := dispatch(t, vsrv, "a")
	dispatch(t, vsrv, "b")
	for want, kind := range []EventKind{EventSubmitted, EventUnitDispatched, EventUnitReplicaDispatched} {
		if ev := <-vevents; ev.Kind != kind || ev.Inflight != want {
			t.Errorf("event %v with Inflight %d, want %v with %d", ev.Kind, ev.Inflight, kind, want)
		}
	}
	if st, _ := vsrv.Status(bg, "held"); st.Inflight != 2 {
		t.Errorf("Status.Inflight = %d with two replicas leased, want 2", st.Inflight)
	}
	submitRaw(t, vsrv, ta, "a", []byte("x"))
	if st, _ := vsrv.Status(bg, "held"); st.Inflight != 1 {
		t.Errorf("Status.Inflight = %d with one replica held and one leased, want 1", st.Inflight)
	}
}

// TestWatchSlowConsumerDrops: a subscriber that never reads loses
// intermediate events (bounded buffer, never blocking the coordinator) but
// still receives the terminal event, with the drop count reported.
func TestWatchSlowConsumerDrops(t *testing.T) {
	registerSum(t)
	srv := NewServer(
		WithPolicy(sched.Fixed{Size: 1}), // one unit per square: ~100 units, >> buffer
		WithLeaseTTL(time.Hour),
		WithExpiryScan(time.Hour),
	)
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "firehose", DM: newSumDM(100)}); err != nil {
		t.Fatal(err)
	}
	events, err := srv.Watch(bg, "firehose")
	if err != nil {
		t.Fatal(err)
	}
	d := newTestDonor(srv, DonorOptions{Name: "w"})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = d.Run(bg) }()
	if _, err := srv.Wait(bg, "firehose"); err != nil {
		t.Fatal(err)
	}
	d.Stop()
	wg.Wait()

	// Only now start reading: everything beyond the buffer was dropped.
	var got []Event
	dropped := 0
	for ev := range events {
		got = append(got, ev)
		dropped += ev.Dropped
	}
	if len(got) > watchBuffer+1 { // buffer + the terminal event
		t.Errorf("slow consumer received %d events, buffer is %d", len(got), watchBuffer)
	}
	if got[len(got)-1].Kind != EventFinished {
		t.Errorf("terminal event missing; last = %v", got[len(got)-1].Kind)
	}
	if dropped == 0 {
		t.Errorf("a ~300-event run through a %d-slot buffer reported zero drops", watchBuffer)
	}
}

// TestWatchLateAndInvalidSubscribers: watching a completed problem yields
// its terminal event immediately; forgotten and unknown IDs error; a
// cancelled watch context closes the stream.
func TestWatchLateAndInvalidSubscribers(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "done", DM: newSumDM(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Wait(bg, "done"); err != nil {
		t.Fatal(err)
	}
	events, err := srv.Watch(bg, "done")
	if err != nil {
		t.Fatal(err)
	}
	ev, ok := <-events
	if !ok || ev.Kind != EventFinished {
		t.Errorf("late watch first event = %v (ok=%v), want finished", ev.Kind, ok)
	}
	if _, ok := <-events; ok {
		t.Error("late watch channel not closed after terminal event")
	}

	if _, err := srv.Watch(bg, "never"); !errors.Is(err, ErrUnknownProblem) {
		t.Errorf("Watch(unknown) = %v, want ErrUnknownProblem", err)
	}
	if err := srv.Forget("done"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Watch(bg, "done"); !errors.Is(err, ErrForgotten) {
		t.Errorf("Watch(forgotten) = %v, want ErrForgotten", err)
	}

	// A cancelled context unsubscribes and closes the channel.
	if err := srv.Submit(bg, &Problem{ID: "abandoned", DM: newSumDM(1000)}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	ch, err := srv.Watch(ctx, "abandoned")
	if err != nil {
		t.Fatal(err)
	}
	<-ch // the snapshot
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return // closed, as required
			}
		case <-deadline:
			t.Fatal("watch channel not closed after ctx cancel")
		}
	}
}

// typedCountDM is a minimal TypedDM for adapter tests: units carry an int
// to square, results carry the square. algorithm, when set, replaces the
// typed square algorithm on every unit.
type typedCountDM struct {
	n, next   int
	completed int
	sum       int
	algorithm string
}

func (d *typedCountDM) NextUnit(int64) (*UnitOf[int], bool, error) {
	if d.next >= d.n {
		return nil, false, nil
	}
	d.next++
	alg := "dist-test/square"
	if d.algorithm != "" {
		alg = d.algorithm
	}
	return &UnitOf[int]{ID: int64(d.next), Algorithm: alg, Payload: d.next, Cost: 1}, true, nil
}

func (d *typedCountDM) Consume(_ int64, sq int) error {
	d.completed++
	d.sum += sq
	return nil
}

func (d *typedCountDM) Done() bool                { return d.completed >= d.n }
func (d *typedCountDM) FinalResult() (any, error) { return d.sum, nil }

type squareAlg struct{ inited atomic.Bool }

func (a *squareAlg) Init(NoShared) error { a.inited.Store(true); return nil }

func (a *squareAlg) ProcessCtx(_ context.Context, v int) (int, error) {
	if !a.inited.Load() {
		return 0, errors.New("Init not called before ProcessCtx")
	}
	return v * v, nil
}

// byteSquareAlg is the byte-level Algorithm shape of squareAlg: it decodes
// payloads and encodes results itself instead of going through the typed
// adapter.
type byteSquareAlg struct{}

func (byteSquareAlg) Init([]byte) error { return nil }

func (byteSquareAlg) ProcessCtx(_ context.Context, payload []byte) ([]byte, error) {
	v, err := Decode[int](payload)
	if err != nil {
		return nil, err
	}
	return Encode(v * v)
}

var registerSquareOnce sync.Once

// TestTypedAdaptersEndToEnd: a fully typed problem (NoShared shared data,
// int payloads/results, int final result) round-trips through the whole
// runtime with the adapters owning every codec — and a byte-level algorithm
// serving the same typed DataManager interoperates unchanged.
func TestTypedAdaptersEndToEnd(t *testing.T) {
	registerSquareOnce.Do(func() {
		RegisterTypedAlgorithm("dist-test/square", func() TypedAlgorithm[NoShared, int, int] {
			return &squareAlg{}
		})
		RegisterAlgorithm("dist-test/square-bytes", func() Algorithm { return byteSquareAlg{} })
	})
	for _, tc := range []struct{ name, alg string }{
		{"typed-algorithm", ""},
		{"byte-level-algorithm", "dist-test/square-bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewTypedProblem[int, int]("squares"+tc.alg, &typedCountDM{n: 30, algorithm: tc.alg}, NoShared{})
			if err != nil {
				t.Fatal(err)
			}
			if p.SharedData != nil {
				t.Errorf("NoShared problem carries %d bytes of shared data", len(p.SharedData))
			}
			out, err := RunLocal(bg, p, 3, sched.Fixed{Size: 1})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decode[int](out)
			if err != nil {
				t.Fatal(err)
			}
			if want := 30 * 31 * 61 / 6; got != want {
				t.Errorf("algorithm %q: sum of squares = %d, want %d", tc.alg, got, want)
			}
		})
	}
}

// TestTypedCodecRoundTrip covers Encode/Decode symmetry, including error
// propagation for mismatched payloads.
func TestTypedCodecRoundTrip(t *testing.T) {
	type payload struct {
		Name string
		Vals []float64
	}
	in := payload{Name: "x", Vals: []float64{1.5, -2, 3e9}}
	data, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode[payload](data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || len(out.Vals) != 3 || out.Vals[2] != 3e9 {
		t.Errorf("round trip mangled payload: %+v", out)
	}
	if _, err := Decode[payload]([]byte("not gob")); err == nil {
		t.Error("garbage decoded without error")
	}
	// Encode and the legacy Marshal are wire-compatible both ways.
	legacy, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if via, err := Decode[payload](legacy); err != nil || via.Name != "x" {
		t.Errorf("Decode(Marshal(v)) = %+v, %v", via, err)
	}
}

// TestAdapterExtensionGating: the DM adapter forwards CostReporter and
// Progresser, but exposes Requeuer only when the typed implementation has
// it — implementing Requeuer changes server requeue behaviour.
func TestAdapterExtensionGating(t *testing.T) {
	plain := AdaptDM[int, int](&typedCountDM{n: 1})
	if _, ok := plain.(Requeuer); ok {
		t.Error("adapter advertises Requeue the implementation does not have")
	}
	if cr, ok := plain.(CostReporter); !ok || cr.RemainingCost() != 0 {
		t.Error("adapter should answer RemainingCost()=0 for a non-CostReporter impl")
	}
	impl := &requeueCountDM{}
	rq := AdaptDM[int, int](impl)
	if _, ok := rq.(Requeuer); !ok {
		t.Error("adapter hides the implementation's Requeue")
	}
	rq.(Requeuer).Requeue(7)
	if len(impl.requeued) != 1 || impl.requeued[0] != 7 {
		t.Errorf("Requeue not forwarded: %v", impl.requeued)
	}
}

// requeueCountDM is typedCountDM plus a Requeue recorder.
type requeueCountDM struct {
	typedCountDM
	requeued []int64
}

func (d *requeueCountDM) Requeue(id int64) { d.requeued = append(d.requeued, id) }

// TestFunctionalOptions: the option constructors set their fields and the
// zero-option constructors still apply the documented defaults.
func TestFunctionalOptions(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	o := srv.opts
	if o.Policy == nil || o.Lease != 2*time.Minute ||
		o.BulkThreshold != 64<<10 || o.AutoForget {
		t.Errorf("zero-option defaults = %+v", o)
	}
	srv2 := NewServer(
		WithPolicy(sched.Fixed{Size: 9}),
		WithLeaseTTL(5*time.Second),
		WithExpiryScan(time.Second),
		WithAutoForget(true),
	)
	defer srv2.Close()
	o = srv2.opts
	if o.Lease != 5*time.Second || o.ExpiryScan != time.Second || !o.AutoForget {
		t.Errorf("explicit options = %+v", o)
	}
	if f, ok := o.Policy.(sched.Fixed); !ok || f.Size != 9 {
		t.Errorf("policy option lost: %+v", o.Policy)
	}

	d := NewDonor(sharedStub{})
	if d.opts.Name != "donor" || d.opts.CancelPoll != 500*time.Millisecond ||
		d.opts.RedialMin != 250*time.Millisecond || d.opts.RedialMax != 30*time.Second {
		t.Errorf("donor defaults = %+v", d.opts)
	}
	d2 := NewDonor(sharedStub{},
		WithName("n"),
		WithThrottle(time.Second),
		WithCancelPoll(-1),
		WithRedialBackoff(time.Millisecond, time.Minute),
	)
	if d2.opts.Name != "n" || d2.opts.Throttle != time.Second || d2.opts.CancelPoll != -1 ||
		d2.opts.RedialMin != time.Millisecond || d2.opts.RedialMax != time.Minute {
		t.Errorf("donor options = %+v", d2.opts)
	}
}

// TestPollJitterBounds: jittered waits stay within ±20% of the hint.
func TestPollJitterBounds(t *testing.T) {
	const base = time.Second
	lo, hi := base, base
	for i := 0; i < 2000; i++ {
		j := jitter(base)
		if j < lo {
			lo = j
		}
		if j > hi {
			hi = j
		}
	}
	if lo < time.Duration(float64(base)*0.79) || hi > time.Duration(float64(base)*1.21) {
		t.Errorf("jitter range [%s, %s] outside ±20%% of %s", lo, hi, base)
	}
	if hi-lo < base/10 {
		t.Errorf("jitter barely varies: [%s, %s]", lo, hi)
	}
	if jitter(0) != 0 {
		t.Error("jitter of 0 must stay 0")
	}
}
