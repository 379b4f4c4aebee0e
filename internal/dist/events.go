package dist

import (
	"context"
	"errors"
	"time"
)

// EventKind classifies one lifecycle event of a submitted problem.
type EventKind uint8

const (
	// EventSubmitted opens every watch: a snapshot of the problem at
	// subscription time (and the event published when Submit registers it).
	EventSubmitted EventKind = iota + 1
	// EventUnitDispatched marks a unit leased to a donor.
	EventUnitDispatched
	// EventUnitDone marks a unit's result accepted and folded.
	EventUnitDone
	// EventProgress carries updated counters after each folded unit.
	EventProgress
	// EventFailed is terminal: the problem ended with an error.
	EventFailed
	// EventFinished is terminal: the final result is ready.
	EventFinished
	// EventForgotten is terminal: the problem was evicted with Forget (or
	// auto-forgotten) before this watch saw it finish.
	EventForgotten
	// EventRecovered opens a watch on a problem that was restored from the
	// journal after a coordinator restart: same snapshot payload as
	// EventSubmitted, but the kind tells the subscriber the problem
	// predates this server process.
	EventRecovered
	// EventUnitSpeculated marks a straggler unit granted a second,
	// concurrent lease (ServerOptions.SpeculateAfter); Donor names the
	// speculating donor. The original donor's lease stays live.
	EventUnitSpeculated
	// EventUnitReplicaDispatched marks an extra replica of a spot-checked
	// unit leased to a distinct donor for quorum verification
	// (ServerOptions.VerifyFraction); Donor names the replica's donor. The
	// first copy of a verified unit is announced as a plain
	// EventUnitDispatched.
	EventUnitReplicaDispatched
	// EventQuorumAgreed marks a verified unit's replica results reaching
	// quorum agreement and folding exactly one winner; Donor names the donor
	// whose result was folded.
	EventQuorumAgreed
	// EventQuorumConflict marks a quorum resolution that had to discard at
	// least one disagreeing replica result; Donor names one of the
	// disagreeing donors. It accompanies (precedes) the EventQuorumAgreed of
	// the same unit.
	EventQuorumConflict
	// EventDonorQuarantined marks a donor's trust EWMA falling below
	// ServerOptions.QuarantineBelow: the named Donor stops receiving work
	// and its live leases on this problem were dropped. UnitID is
	// zero; the event is published on each problem the quarantine touched.
	EventDonorQuarantined
)

// String names the kind for logs.
func (k EventKind) String() string {
	switch k {
	case EventSubmitted:
		return "submitted"
	case EventUnitDispatched:
		return "unit-dispatched"
	case EventUnitDone:
		return "unit-done"
	case EventProgress:
		return "progress"
	case EventFailed:
		return "failed"
	case EventFinished:
		return "finished"
	case EventForgotten:
		return "forgotten"
	case EventRecovered:
		return "recovered"
	case EventUnitSpeculated:
		return "unit-speculated"
	case EventUnitReplicaDispatched:
		return "unit-replica-dispatched"
	case EventQuorumAgreed:
		return "quorum-agreed"
	case EventQuorumConflict:
		return "quorum-conflict"
	case EventDonorQuarantined:
		return "donor-quarantined"
	default:
		return "unknown"
	}
}

// Terminal reports whether the kind ends an event stream.
func (k EventKind) Terminal() bool {
	return k == EventFailed || k == EventFinished || k == EventForgotten
}

// Event is one entry of a Server.Watch stream.
type Event struct {
	Kind      EventKind
	ProblemID string
	// Epoch is the problem incarnation the event belongs to.
	Epoch int64
	Time  time.Time

	// UnitID and Donor are set on unit events.
	UnitID int64
	Donor  string

	// Counters, carried by the snapshot, progress and terminal events.
	Completed int // units folded so far
	Inflight  int // units currently leased
	// AppDone/AppTotal are application-level progress (from Progresser);
	// both zero when the DataManager does not report progress.
	AppDone, AppTotal int

	// Err is set on EventFailed (and EventForgotten: ErrForgotten).
	Err error

	// Dropped counts events this subscriber lost to back-pressure since the
	// previous delivered event — the bounded fan-out never blocks the
	// coordinator on a slow consumer.
	Dropped int
}

// watchBuffer is each Watch subscriber's event buffer; a consumer that
// falls further behind loses the oldest events.
const watchBuffer = 64

// watcher is one Watch subscription's server-side state, guarded by the
// owning problem's mutex while registered.
type watcher struct {
	ch chan Event
	// done is closed when the subscriber's context is cancelled; it
	// releases a blocked terminal delivery.
	done chan struct{}
	// delivered is closed once the terminal event has been handed over (or
	// abandoned), ending the subscription's context goroutine.
	delivered chan struct{}
	// dropped counts events lost to a full buffer since the last delivery;
	// it rides on the next event that does get through. Guarded by ps.mu.
	dropped int
}

// Watch streams the problem's lifecycle events. The first event is an
// EventSubmitted snapshot of the current state; the stream ends — and the
// channel closes — after a terminal event (finished, failed, forgotten).
// Intermediate events are dropped, oldest first, when the subscriber falls
// more than 64 events (watchBuffer) behind (Event.Dropped counts the
// losses); terminal events are always delivered. Cancelling ctx
// unsubscribes and closes the channel.
//
// Watching an already-completed problem yields its terminal event
// immediately; a forgotten or unknown ID returns ErrForgotten or
// ErrUnknownProblem.
func (s *Server) Watch(ctx context.Context, id string) (<-chan Event, error) {
	if ctx == nil {
		ctx = context.Background() //dist:allow-background nil-ctx normalisation in a public entry point
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ps, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	ps.mu.Lock()
	if ps.done {
		// Late subscription: hand over the terminal event and close.
		ev := s.terminalEventLocked(ps)
		ps.mu.Unlock()
		ch := make(chan Event, 1)
		ch <- ev
		close(ch)
		return ch, nil
	}
	w := &watcher{
		ch:        make(chan Event, watchBuffer),
		done:      make(chan struct{}),
		delivered: make(chan struct{}),
	}
	ps.watchers = append(ps.watchers, w)
	// The opening snapshot goes straight into the fresh buffer.
	s.sendLocked(ps, w, s.snapshotEventLocked(ps))
	ps.mu.Unlock()

	go func() {
		select {
		case <-ctx.Done():
			if s.detachWatcher(ps, w) {
				// Still subscribed: no terminal delivery exists or ever
				// will, so this goroutine owns the channel close.
				close(w.done)
				close(w.ch)
				return
			}
			// A terminal delivery is in flight; release it if it is
			// blocked on the abandoned buffer — it closes the channel.
			close(w.done)
		case <-w.delivered:
		}
	}()
	return w.ch, nil
}

// detachWatcher removes w from ps's subscriber list, reporting whether it
// was still registered (false once a terminal event took ownership).
func (s *Server) detachWatcher(ps *problemState, w *watcher) bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for i, cur := range ps.watchers {
		if cur == w {
			ps.watchers = append(ps.watchers[:i], ps.watchers[i+1:]...)
			return true
		}
	}
	return false
}

// eventLocked starts an event of the given kind with the problem's identity
// and current counters; app adds the DataManager's application-level
// progress. Callers hold mu.
//
//dist:locked mu
func (ps *problemState) eventLocked(kind EventKind, app bool) Event {
	ev := Event{
		Kind:      kind,
		ProblemID: ps.id,
		Epoch:     ps.epoch,
		Time:      time.Now(),
		Completed: ps.completed,
		Inflight:  int(ps.inflightN.Load()),
	}
	if pr, ok := ps.p.DM.(Progresser); ok && app {
		ev.AppDone, ev.AppTotal = pr.Progress()
	}
	return ev
}

// snapshotEventLocked builds the EventSubmitted opening snapshot. Callers
// hold ps.mu.
//
//dist:locked mu
func (s *Server) snapshotEventLocked(ps *problemState) Event {
	if ps.recovered {
		return ps.eventLocked(EventRecovered, true)
	}
	return ps.eventLocked(EventSubmitted, true)
}

// terminalEventLocked builds the event describing how ps ended. Callers
// hold ps.mu; ps.done must be true.
//
//dist:locked mu
func (s *Server) terminalEventLocked(ps *problemState) Event {
	ev := ps.eventLocked(EventFinished, false)
	ev.Err = ps.err
	switch {
	case errors.Is(ps.err, ErrForgotten):
		ev.Kind = EventForgotten
	case ps.err != nil:
		ev.Kind = EventFailed
	}
	return ev
}

// publishLocked fans one event out to the problem's subscribers without
// ever blocking: a full buffer drops the event and charges the
// subscriber's drop counter. Terminal events instead hand each subscriber
// to a delivery goroutine that blocks until the event is read (or the
// watch abandoned) and then closes the channel. Callers hold ps.mu.
//
//dist:locked mu
func (s *Server) publishLocked(ps *problemState, ev Event) {
	if len(ps.watchers) == 0 {
		return
	}
	if !ev.Kind.Terminal() {
		for _, w := range ps.watchers {
			s.sendLocked(ps, w, ev)
		}
		return
	}
	for _, w := range ps.watchers {
		w := w
		ev := ev
		ev.Dropped = w.dropped
		w.dropped = 0
		go func() {
			select {
			case w.ch <- ev:
			case <-w.done:
			}
			close(w.delivered)
			close(w.ch)
		}()
	}
	ps.watchers = nil
}

// sendLocked delivers one non-terminal event to one subscriber,
// non-blocking. Callers hold ps.mu.
func (s *Server) sendLocked(ps *problemState, w *watcher, ev Event) {
	ev.Dropped = w.dropped
	select {
	case w.ch <- ev:
		w.dropped = 0
	default:
		w.dropped++
	}
}

// publishUnitEventLocked emits a unit-granularity event. Callers hold
// ps.mu.
//
//dist:locked mu
func (s *Server) publishUnitEventLocked(ps *problemState, kind EventKind, unitID int64, donor string) {
	if len(ps.watchers) == 0 {
		return
	}
	ev := ps.eventLocked(kind, false)
	ev.UnitID, ev.Donor = unitID, donor
	s.publishLocked(ps, ev)
}

// publishProgressLocked emits an EventProgress with current counters.
// Callers hold ps.mu.
//
//dist:locked mu
func (s *Server) publishProgressLocked(ps *problemState) {
	if len(ps.watchers) > 0 {
		s.publishLocked(ps, ps.eventLocked(EventProgress, true))
	}
}
