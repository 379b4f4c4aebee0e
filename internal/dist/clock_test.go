package dist

// Tests of the server under a fake Clock: the lease sweep runs on the
// clock's timer, so a test decides the exact instant every sweep sees.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
)

// fakeClock is a Clock whose time moves only when advance moves it; a timer
// fires, synchronously and at its own instant, when advance passes it.
type fakeClock struct {
	t      *testing.T
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	c     *fakeClock
	at    time.Time
	f     func()
	armed bool
}

func newFakeClock(t *testing.T) *fakeClock {
	return &fakeClock{t: t, now: time.Date(2005, 4, 4, 9, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) AfterFunc(d time.Duration, f func()) Timer {
	tm := &fakeTimer{c: c, f: f}
	tm.Reset(d)
	c.mu.Lock()
	c.timers = append(c.timers, tm)
	c.mu.Unlock()
	return tm
}

func (tm *fakeTimer) Stop() bool {
	tm.c.mu.Lock()
	defer tm.c.mu.Unlock()
	was := tm.armed
	tm.armed = false
	return was
}

func (tm *fakeTimer) Reset(d time.Duration) bool {
	tm.c.mu.Lock()
	defer tm.c.mu.Unlock()
	was := tm.armed
	tm.at, tm.armed = tm.c.now.Add(d), true
	return was
}

// advance moves the clock to to, firing every timer due by then in instant
// order, each with the clock at its instant. A timer that keeps firing at
// one instant is a livelock: the test fails rather than spin.
func (c *fakeClock) advance(to time.Time) {
	c.t.Helper()
	var last time.Time
	same := 0
	for {
		c.mu.Lock()
		var next *fakeTimer
		for _, tm := range c.timers {
			if tm.armed && !tm.at.After(to) && (next == nil || tm.at.Before(next.at)) {
				next = tm
			}
		}
		if next == nil {
			c.now = to
			c.mu.Unlock()
			return
		}
		next.armed = false
		if next.at.After(c.now) {
			c.now = next.at
		}
		at := c.now
		c.mu.Unlock()
		if at.Equal(last) {
			if same++; same > 100 {
				c.t.Fatalf("a timer kept re-arming for %s, the instant it fired at", at)
			}
		} else {
			last, same = at, 0
		}
		next.f()
	}
}

// sweepDue returns the instant the server's next lease sweep is armed for.
func sweepDue(s *Server) time.Time {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	return s.sweepAt
}

// TestSweepAtDeadlineExpiresLease: a lease expires at its deadline. The
// grant brings the sweep forward to that instant, and the sweep that fires
// there must drop the lease; judged strictly after the deadline, it drops
// nothing and re-arms for the same instant forever.
func TestSweepAtDeadlineExpiresLease(t *testing.T) {
	clk := newFakeClock(t)
	srv := newTestServer(ServerOptions{Policy: sched.Fixed{Size: 1}, Lease: time.Minute, Clock: clk})
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "p", DM: newGridDM(1)}); err != nil {
		t.Fatal(err)
	}
	t0 := clk.Now()
	clk.advance(t0.Add(5 * time.Second)) // off the Lease/4 ticks
	dispatch(t, srv, "a")
	deadline := clk.Now().Add(time.Minute)

	clk.advance(deadline.Add(-time.Nanosecond))
	if st, _ := srv.Stats(bg, "p"); st.Reissued != 0 {
		t.Fatalf("lease expired before its deadline: %+v", st)
	}
	if due := sweepDue(srv); !due.Equal(deadline) {
		t.Fatalf("sweep armed for %s, want the deadline %s", due, deadline)
	}
	clk.advance(deadline)
	if st, _ := srv.Stats(bg, "p"); st.Reissued != 1 {
		t.Fatalf("sweep at the deadline left the lease standing: %+v", st)
	}
	if due := sweepDue(srv); !due.After(deadline) {
		t.Fatalf("sweep re-armed for %s, not after the deadline it ran at", due)
	}
	if task := dispatch(t, srv, "b"); task.Unit.ID != 1 {
		t.Fatalf("b got unit %d, want the expired unit 1", task.Unit.ID)
	}
}

// TestSweepAtStragglerDueWakesSpeculation: a straggler is due a speculative
// copy at its due instant. A donor that found nothing to do arms the sweep
// for that instant; the sweep there must find the straggler due (and stop
// asking for itself), and the donor scanning then gets the copy.
func TestSweepAtStragglerDueWakesSpeculation(t *testing.T) {
	clk := newFakeClock(t)
	srv := newTestServer(ServerOptions{Policy: sched.Fixed{Size: 1}, Lease: time.Hour, Clock: clk})
	defer srv.Close()
	if err := srv.Submit(bg, &Problem{ID: "p", DM: newGridDM(2)}); err != nil {
		t.Fatal(err)
	}
	measure(t, srv, "p", "a", time.Minute)
	straggler := dispatch(t, srv, "a").Unit.ID
	if task, _, err := srv.RequestTask(bg, "b"); err != nil || task != nil {
		t.Fatalf("b got %+v, %v before the straggler is due", task, err)
	}
	due := sweepDue(srv)
	if !due.After(clk.Now()) || !due.Before(clk.Now().Add(time.Hour/4)) {
		t.Fatalf("sweep armed for %s, want the straggler's due instant", due)
	}

	clk.advance(due.Add(-time.Nanosecond))
	if task, _, _ := srv.RequestTask(bg, "b"); task != nil {
		t.Fatalf("b got unit %d before the straggler is due", task.Unit.ID)
	}
	clk.advance(due)
	if next := sweepDue(srv); !next.After(due) {
		t.Fatalf("sweep re-armed for %s, not after the due instant it ran at", next)
	}
	task, _, err := srv.RequestTask(bg, "b")
	if err != nil || task == nil || task.Unit.ID != straggler {
		t.Fatalf("b at the due instant got %+v, %v; want a copy of unit %d", task, err, straggler)
	}
	if st, _ := srv.Stats(bg, "p"); st.Speculated != 1 {
		t.Fatalf("stats %+v, want one speculated unit", st)
	}
}

// TestCloseRacesSweeps: on the wall clock the lease sweep runs on timer
// goroutines of its own. Close must stop it and wait for a pass already
// running, whatever instant it lands at (run under -race: the sweep's
// timer and state are shared with Close).
func TestCloseRacesSweeps(t *testing.T) {
	for i := 0; i < 20; i++ {
		srv := newTestServer(ServerOptions{Policy: sched.Fixed{Size: 1}, Lease: 4 * time.Millisecond})
		if err := srv.Submit(bg, &Problem{ID: "p", DM: newGridDM(4)}); err != nil {
			t.Fatal(err)
		}
		dispatch(t, srv, "a")
		dispatch(t, srv, "b")
		time.Sleep(time.Duration(i%5) * time.Millisecond) // sweeps every ms
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		srv.sweepMu.Lock()
		armed := srv.sweep != nil
		srv.sweepMu.Unlock()
		if armed {
			t.Fatal("lease sweep still armed after Close")
		}
	}
}
