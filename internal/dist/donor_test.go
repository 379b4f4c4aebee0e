package dist

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// scriptCoord is a scripted in-memory Coordinator that drives Donor.Run
// without sockets. Every call but CancelNotices arrives on Run's goroutine
// (the seam bench/trace.go relies on) and is logged, in order, to calls.
type scriptCoord struct {
	parks     []parkReply     // dispatch replies in order; ErrClosed once spent
	submitErr map[int64]error // SubmitResult's error per unit
	failErr   map[int64]error // the failure report's error per unit
	sharedErr error           // FetchContent's error
	notices   []CancelNotice  // the first CancelNotices reply

	mu       sync.Mutex
	calls    []string
	parkedAt []time.Time   // start of every dispatch call
	polls    int           // CancelNotices calls so far
	repolled chan struct{} // closed by the second poll: the first was handled
}

// parkReply is one scripted dispatch reply, delay after the call starts.
type parkReply struct {
	tasks []*Task
	err   error
	delay time.Duration
}

func (s *scriptCoord) log(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls = append(s.calls, fmt.Sprintf(format, args...))
}

func (s *scriptCoord) WaitTasks(context.Context, string, time.Duration, int) ([]*Task, time.Duration, error) {
	s.mu.Lock()
	s.calls = append(s.calls, "WaitTasks")
	s.parkedAt = append(s.parkedAt, time.Now())
	r := parkReply{err: ErrClosed}
	if len(s.parks) > 0 {
		r, s.parks = s.parks[0], s.parks[1:]
	}
	s.mu.Unlock()
	time.Sleep(r.delay)
	return r.tasks, 0, r.err
}

// FetchContent serves scriptShared for any digest.
func (s *scriptCoord) FetchContent(context.Context, string, string) ([]byte, error) {
	s.log("FetchContent")
	return scriptShared, s.sharedErr
}

func (s *scriptCoord) SubmitResult(_ context.Context, res *Result) error {
	s.log("Submit %d", res.UnitID)
	return s.submitErr[res.UnitID]
}

func (s *scriptCoord) ReportFailure(_ context.Context, _, _ string, unitID int64, _ string) error {
	s.log("Fail %d", unitID)
	return s.failErr[unitID]
}

func (s *scriptCoord) reportFailure(_ context.Context, _, _ string, unitID int64, _ string, kind failureKind, _ int64) error {
	s.log("Fail %d %s", unitID, map[failureKind]string{failCompute: "compute", failTransport: "transport"}[kind])
	return s.failErr[unitID]
}

func (s *scriptCoord) CancelNotices(context.Context, string) ([]CancelNotice, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.polls++
	switch s.polls {
	case 1:
		return s.notices, nil
	case 2:
		close(s.repolled)
	}
	return nil, nil
}

func (s *scriptCoord) Close() error {
	s.log("Close")
	return nil
}

// scriptShared is every scripted problem's shared blob.
var scriptShared = []byte("shared")

// plainCoord hides everything but the Coordinator methods — the shape of a
// coordinator wrapped from another package, which cannot implement the
// unexported failureReporter.
type plainCoord struct{ Coordinator }

// loopAlg runs a unit as its payload says: "ok", "fail", "panic", or
// "block" — until the stub has answered a cancel poll, or the unit's ctx
// ends.
type loopAlg struct{ s *scriptCoord }

func (loopAlg) Init([]byte) error { return nil }

func (a loopAlg) ProcessCtx(ctx context.Context, payload []byte) ([]byte, error) {
	switch string(payload) {
	case "fail":
		return nil, errors.New("scripted failure")
	case "panic":
		panic("scripted panic")
	case "block":
		select {
		case <-a.s.repolled:
		case <-ctx.Done():
		}
		return payload, ctx.Err()
	}
	return payload, nil
}

var registerLoopOnce sync.Once

// loopTask is unit id of problem P, epoch 1, run by loopAlg.
func loopTask(id int64, payload string, priority int) *Task {
	registerLoopOnce.Do(func() {
		RegisterAlgorithm("dist-test/loop", func() Algorithm { return loopAlg{} })
	})
	return &Task{ProblemID: "P", Epoch: 1, Priority: priority, SharedDigest: wire.Digest(scriptShared),
		Unit: Unit{ID: id, Algorithm: "dist-test/loop", Payload: []byte(payload)}}
}

// loopRow is one scripted Run: the stub's script and what Run must do.
type loopRow struct {
	name      string
	bare      bool // only the Coordinator methods: plain ReportFailure, no Close
	redial    bool
	poll      bool // run the cancel poller every ~1ms
	parks     []parkReply
	submitErr map[int64]error
	failErr   map[int64]error
	sharedErr error
	notices   []CancelNotice

	want           []string // every coordinator call but CancelNotices, in order
	units, aborted int
	wantErr        error
	minGap         time.Duration // least time from the first dispatch call to the second
}

func (r loopRow) run(t *testing.T) {
	t.Helper()
	s := &scriptCoord{parks: r.parks, submitErr: r.submitErr, failErr: r.failErr,
		sharedErr: r.sharedErr, notices: r.notices, repolled: make(chan struct{})}
	var coord Coordinator = s
	if r.bare {
		coord = plainCoord{s}
	}
	o := DonorOptions{Name: "loop", CancelPoll: -1, RedialMax: time.Millisecond,
		WrapAlgorithm: func(string, Algorithm) Algorithm { return loopAlg{s} }}
	if r.poll {
		o.CancelPoll = time.Millisecond
	}
	if r.redial {
		o.Redial = func() (Coordinator, error) {
			s.log("Redial")
			return s, nil
		}
	}
	d := newTestDonor(coord, o)
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	err := d.Run(ctx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if ctx.Err() != nil {
		t.Fatalf("Run did not return; calls %q", s.calls)
	}
	if !errors.Is(err, r.wantErr) {
		t.Errorf("Run = %v, want %v", err, r.wantErr)
	}
	if !slices.Equal(s.calls, r.want) {
		t.Errorf("calls %q, want %q", s.calls, r.want)
	}
	if d.Units() != r.units || d.Aborted() != r.aborted {
		t.Errorf("Units() = %d, Aborted() = %d; want %d, %d", d.Units(), d.Aborted(), r.units, r.aborted)
	}
	if r.minGap > 0 && len(s.parkedAt) > 1 && s.parkedAt[1].Sub(s.parkedAt[0]) < r.minGap {
		t.Errorf("re-parked after %v, want a back-off of at least %v", s.parkedAt[1].Sub(s.parkedAt[0]), r.minGap)
	}
}

// TestSiblingCancelNoticeSparesLiveUnits: a cancel notice cancels only the
// unit it names. A fold notifies every other holder of the unit it folded —
// here u1, which this donor lost a speculation race on and already
// finished — and its other units of the same problem incarnation must not
// die of that. A notice that does name a queued unit (Forget queues one per
// leased unit) still drops that unit before compute, and only that unit.
func TestSiblingCancelNoticeSparesLiveUnits(t *testing.T) {
	batch := []parkReply{{tasks: []*Task{loopTask(2, "block", 0), loopTask(3, "ok", 0)}}}
	for _, r := range []loopRow{{
		name: "loser notice for u1", poll: true, parks: batch,
		notices: []CancelNotice{{ProblemID: "P", Epoch: 1, UnitID: 1}},
		want:    []string{"WaitTasks", "FetchContent", "Submit 2", "Submit 3", "WaitTasks"},
		units:   2,
	}, {
		name: "notice for queued u3", poll: true, parks: batch,
		notices: []CancelNotice{{ProblemID: "P", Epoch: 1, UnitID: 3}},
		want:    []string{"WaitTasks", "FetchContent", "Submit 2", "WaitTasks"},
		units:   1, aborted: 1,
	}} {
		t.Run(r.name, r.run)
	}
}

// TestDonorLoopStages drives Run through every (stage × outcome) pair
// against the scripted stub: park, compute and report, each ending in
// continue, back off, reconnect (dropping the batch tail) or exit.
func TestDonorLoopStages(t *testing.T) {
	gone := map[int64]error{1: ErrServerGone}
	errBoom := errors.New("boom")
	self := []CancelNotice{{ProblemID: "P", Epoch: 1, UnitID: 1}}
	queued := []CancelNotice{{ProblemID: "P", Epoch: 1, UnitID: 2}}
	one := func(payload string) []parkReply { return []parkReply{{tasks: []*Task{loopTask(1, payload, 0)}}} }
	two := func(payload string) []parkReply {
		return []parkReply{{tasks: []*Task{loopTask(1, payload, 0), loopTask(2, "ok", 0)}}}
	}
	// A task without a content digest fails verification whatever bytes
	// arrive: a transport failure, and the unit is never computed.
	digestless := loopTask(1, "ok", 0)
	digestless.SharedDigest = ""
	for _, r := range []loopRow{
		// park
		{name: "park/batch delivered, priority first",
			parks: []parkReply{{tasks: []*Task{loopTask(1, "ok", 0), loopTask(2, "ok", 5), loopTask(3, "ok", 0)}}},
			want:  []string{"WaitTasks", "FetchContent", "Submit 2", "Submit 1", "Submit 3", "WaitTasks"}, units: 3},
		{name: "park/slow empty park re-parks", parks: []parkReply{{delay: 6 * time.Millisecond}},
			want: []string{"WaitTasks", "WaitTasks"}},
		{name: "park/instant empty park floored", parks: []parkReply{{}},
			want: []string{"WaitTasks", "WaitTasks"}, minGap: time.Millisecond},
		{name: "park/gone with Redial", redial: true, parks: []parkReply{{err: ErrServerGone}},
			want: []string{"WaitTasks", "Close", "Redial", "WaitTasks"}},
		{name: "park/gone without Redial", parks: []parkReply{{err: ErrServerGone}},
			want: []string{"WaitTasks"}},
		{name: "park/closed", want: []string{"WaitTasks"}},
		{name: "park/other error", parks: []parkReply{{err: errBoom}},
			want: []string{"WaitTasks"}, wantErr: errBoom},
		// compute
		{name: "compute/ok", parks: one("ok"),
			want: []string{"WaitTasks", "FetchContent", "Submit 1", "WaitTasks"}, units: 1},
		{name: "compute/algorithm error", parks: one("fail"),
			want: []string{"WaitTasks", "FetchContent", "Fail 1 compute", "WaitTasks"}},
		{name: "compute/shared fetch error", parks: one("ok"), sharedErr: errBoom,
			want: []string{"WaitTasks", "FetchContent", "Fail 1 transport", "WaitTasks"}},
		{name: "compute/digest-less task", parks: []parkReply{{tasks: []*Task{digestless}}},
			want: []string{"WaitTasks", "FetchContent", "Fail 1 transport", "WaitTasks"}},
		{name: "compute/panic", parks: one("panic"),
			want: []string{"WaitTasks", "FetchContent", "Fail 1 compute", "WaitTasks"}},
		{name: "compute/bare failure report", bare: true,
			parks: []parkReply{{tasks: []*Task{loopTask(1, "fail", 0)}}},
			want:  []string{"WaitTasks", "FetchContent", "Fail 1", "WaitTasks"}},
		{name: "compute/notice for the computing unit", poll: true, parks: one("block"), notices: self,
			want: []string{"WaitTasks", "FetchContent", "WaitTasks"}, aborted: 1},
		{name: "compute/queued unit already noticed", poll: true, parks: two("block"), notices: queued,
			want: []string{"WaitTasks", "FetchContent", "Submit 1", "WaitTasks"}, units: 1, aborted: 1},
		// report
		{name: "report/submit gone", redial: true, parks: two("ok"), submitErr: gone,
			want: []string{"WaitTasks", "FetchContent", "Submit 1", "Close", "Redial", "WaitTasks"}},
		{name: "report/failure report gone", redial: true, parks: two("fail"), failErr: gone,
			want: []string{"WaitTasks", "FetchContent", "Fail 1 compute", "Close", "Redial", "WaitTasks"}},
		{name: "report/submit closed", parks: two("ok"), submitErr: map[int64]error{1: ErrClosed},
			want: []string{"WaitTasks", "FetchContent", "Submit 1"}},
	} {
		t.Run(r.name, r.run)
	}
}

// stopAlg is loopAlg that calls stop at the end of its nth ProcessCtx call
// and counts every call.
type stopAlg struct {
	loopAlg
	n     int
	calls *int
	stop  func()
}

func (a stopAlg) ProcessCtx(ctx context.Context, payload []byte) ([]byte, error) {
	if *a.calls++; *a.calls == a.n {
		defer a.stop()
	}
	return a.loopAlg.ProcessCtx(ctx, payload)
}

// TestStopEndsRunBeforeItReturns: a Stop called inside a unit's ProcessCtx
// has ended the loop by the time it returns. That unit is not submitted,
// and no later unit of the batch starts.
func TestStopEndsRunBeforeItReturns(t *testing.T) {
	var tasks []*Task
	for id := int64(1); id <= 9; id++ {
		tasks = append(tasks, loopTask(id, "ok", 0))
	}
	s := &scriptCoord{parks: []parkReply{{tasks: tasks}}, repolled: make(chan struct{})}
	var d *Donor
	calls := 0
	d = newTestDonor(s, DonorOptions{Name: "stopper", CancelPoll: -1,
		WrapAlgorithm: func(string, Algorithm) Algorithm {
			return stopAlg{loopAlg: loopAlg{s}, n: 4, calls: &calls, stop: d.Stop}
		}})
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	if err := d.Run(ctx); err != nil || ctx.Err() != nil {
		t.Fatalf("Run = %v (ctx %v), want a clean stop", err, ctx.Err())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if want := []string{"WaitTasks", "FetchContent", "Submit 1", "Submit 2", "Submit 3"}; !slices.Equal(s.calls, want) {
		t.Errorf("calls %q, want %q", s.calls, want)
	}
	if d.Units() != 3 || calls != 4 {
		t.Errorf("Units() = %d after %d ProcessCtx calls; want 3 after 4", d.Units(), calls)
	}
}
