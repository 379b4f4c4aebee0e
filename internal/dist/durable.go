package dist

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/wire"
)

// Durability: with ServerOptions.DataDir set, the coordinator journals the
// mutations that matter — a problem submitted, a unit granted (cut from its
// DataManager), a replica result held for quorum, a unit result folded, a
// problem forgotten — to a write-ahead log (package journal) and
// checkpoints problem states in the background. Everything else the server
// tracks (leases, donor statistics and trust, park queues) is soft state the
// fleet regenerates within a poll interval. Recovery is replay: a restarted
// coordinator restores each problem's DataManager from its checkpoint or
// Submit record and feeds the WAL tail through the same unitTable
// transitions that wrote it (unitTable.replay), so every unit granted and
// not folded comes back open, every journaled fold folds again, held
// replicas are held again, and fresh incarnation epochs fence pre-crash
// stragglers.

// DurableDM is the optional extension point durability hangs on: a
// DataManager (typed or byte-level) that can flatten its state for the
// journal, restored through the restorer registered for its kind. Replay
// drives a restored DataManager through the calls the live server made, so
// a durable DataManager also promises:
//   - NextUnit is deterministic given the state and the budget, and numbers
//     fresh units in increasing order;
//   - a DataManager restored from MarshalState's bytes first re-emits every
//     unit that was pending (cut, not folded) at capture, under its
//     original ID and in increasing ID order, whatever the budget;
//   - Consume rejects an unknown unit ID with an error rather than
//     corrupting state;
//   - it is not a Requeuer: a requeue follows a lost lease, which is never
//     journaled, so replay could not reproduce the units it renumbers.
//     Submit on a durable server rejects the pair.
type DurableDM interface {
	// DurableKind names the restorer registered with RegisterDurableDM;
	// empty opts the DataManager out of durability.
	DurableKind() string
	// MarshalState flattens the DataManager's current state.
	MarshalState() ([]byte, error)
}

var (
	durableMu sync.RWMutex
	// durables maps DurableKind to its restorer — the server-side analogue
	// of the donor's algorithm registry: every kind a coordinator can
	// recover is compiled into its binary and selected by name.
	//dist:guardedby durableMu
	durables = map[string]func(state []byte) (DataManager, error){}
)

// RegisterDurableDM adds a named durable-DataManager restorer to the
// recovery registry. Registering the same kind twice panics, like
// RegisterAlgorithm.
func RegisterDurableDM(kind string, restore func(state []byte) (DataManager, error)) {
	if kind == "" {
		panic("dist: RegisterDurableDM with empty kind")
	}
	if restore == nil {
		panic("dist: RegisterDurableDM with nil restorer")
	}
	durableMu.Lock()
	defer durableMu.Unlock()
	if _, dup := durables[kind]; dup {
		panic(fmt.Sprintf("dist: durable DataManager kind %q registered twice", kind))
	}
	durables[kind] = restore
}

// restoreDurableDM rebuilds a DataManager from its journaled state.
func restoreDurableDM(kind string, state []byte) (DataManager, error) {
	durableMu.RLock()
	restore, ok := durables[kind]
	durableMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dist: durable DataManager kind %q is not registered in this binary", kind)
	}
	dm, err := restore(state)
	if err != nil {
		return nil, fmt.Errorf("dist: restoring durable DataManager %q: %w", kind, err)
	}
	if dm == nil {
		return nil, fmt.Errorf("dist: restorer for %q returned a nil DataManager", kind)
	}
	if _, ok := dm.(DurableDM); !ok {
		return nil, fmt.Errorf("dist: restorer for %q returned %T, which is not a DurableDM", kind, dm)
	}
	if err := replayable(dm); err != nil {
		return nil, fmt.Errorf("dist: restorer for %q: %w", kind, err)
	}
	return dm, nil
}

// replayable rejects the one DataManager shape replay cannot reproduce: a
// Requeuer (see DurableDM).
func replayable(dm DataManager) error {
	if _, ok := dm.(Requeuer); ok {
		return errors.New("a durable DataManager cannot be a Requeuer: its requeues follow lost leases, which are not journaled")
	}
	return nil
}

// durableKind reports the DataManager's durable kind (empty for
// DataManagers that opted out or never implemented DurableDM).
func durableKind(dm DataManager) string {
	if d, ok := dm.(DurableDM); ok {
		return d.DurableKind()
	}
	return ""
}

// RecoveredProblem summarises one problem a restarted coordinator rebuilt
// from its journal.
type RecoveredProblem struct {
	ProblemID string
	// Epoch is the fresh post-recovery incarnation — above every epoch the
	// journal ever issued, so results computed before the crash are fenced.
	Epoch int64
	// Completed counts units whose folds survived (snapshot plus replayed
	// tail).
	Completed int
	// Requeued counts the units back in play: every unit the journal
	// granted and saw no fold for, rebuilt open under its original ID.
	Requeued int
}

// Recovery summarises what OpenServer rebuilt from the journal; Server.
// Recovery returns nil when the data directory held no prior state.
type Recovery struct {
	// Problems are the restored problems, in journal order.
	Problems []RecoveredProblem
	// FoldsReplayed counts tail folds applied on top of the snapshot;
	// FoldsSkipped counts folds that found no rebuilt unit to fold — none
	// in a journal this server wrote, unless a Grant failed to replay (the
	// problem then fails with the reason).
	FoldsReplayed int
	FoldsSkipped  int
	// Truncated reports the WAL ended in a torn or corrupt frame and
	// replay stopped at the last good record.
	Truncated bool
	// Skipped lists problems that could not be restored (their kind is not
	// registered in this binary, or the state failed to decode).
	Skipped []string
}

// Recovery reports what this server rebuilt from its journal at startup,
// or nil if it started fresh (no DataDir, or an empty one).
func (s *Server) Recovery() *Recovery { return s.recovery }

// OpenServer creates a coordinator, recovering prior state from
// ServerOptions.DataDir when one is configured (WithDataDir). It is
// NewServer with the journal's I/O errors surfaced; without a DataDir it
// never fails.
func OpenServer(opts ...ServerOption) (*Server, error) {
	var o ServerOptions
	for _, opt := range opts {
		opt(&o)
	}
	o.applyDefaults()
	s := newServer(o)
	if o.DataDir != "" {
		if err := s.openDurable(); err != nil {
			return nil, err
		}
	}
	s.start()
	return s, nil
}

// openDurable opens the journal and replays whatever it holds. Runs before
// start(): no donor, watcher or background loop exists yet.
func (s *Server) openDurable() error {
	st, rec, err := journal.Open(s.opts.DataDir, journal.Options{})
	if err != nil {
		return err
	}
	s.journal = st
	if err := s.recover(rec); err != nil {
		_ = st.Close()
		return err
	}
	return nil
}

// recover rebuilds the journaled problems. A checkpointed or submitted
// problem gets its DataManager back from the registered restorer and a
// fresh table; every later Grant, Replica and Fold record of the same
// incarnation then replays through that table (Server.replay), and a
// Forget ends the problem the way the live Forget did. A Submit below the
// incarnation already rebuilt is one the checkpoint covers.
func (s *Server) recover(rec *journal.Recovered) error {
	// Replay ends in a checkpoint of every rebuilt problem; one triggered
	// midway would capture only the problems registered so far.
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	info := &Recovery{Truncated: rec.Truncated}
	// Epoch fencing across the restart: seed the incarnation allocator
	// above everything the journal ever issued; every rebuilt problem draws
	// a fresh epoch from it. A pre-crash straggler redialing in carries the
	// old epoch and is dropped by the existing mismatch checks. Replay
	// itself never checks epochs (its results carry none).
	if cur := s.epochSeq.Load(); cur < rec.MaxEpoch {
		s.epochSeq.Store(rec.MaxEpoch)
	}
	// rebuilt maps each problem ID to its state under replay and the
	// journal epoch its records carry.
	type entry struct {
		ps    *problemState
		epoch int64
	}
	rebuilt := make(map[string]entry)
	var order []string
	restore := func(sn journal.Snapshot) {
		dm, err := restoreDurableDM(sn.Kind, sn.State)
		if err != nil {
			info.Skipped = append(info.Skipped, fmt.Sprintf("%s: %v", sn.ProblemID, err))
			return
		}
		if _, ok := rebuilt[sn.ProblemID]; !ok {
			order = append(order, sn.ProblemID)
		}
		// ps.durable stays false until replay ends, so nothing replay owes
		// is journaled a second time.
		ps := s.newProblemState(&Problem{ID: sn.ProblemID, DM: dm, SharedData: sn.Shared}, s.epochSeq.Add(1), wire.Digest(sn.Shared))
		ps.kind, ps.recovered = sn.Kind, true
		ps.table.resume(int(sn.Dispatched), int(sn.Completed), int(sn.Reissued))
		rebuilt[sn.ProblemID] = entry{ps, sn.Epoch}
	}
	live := func(id string, epoch int64) *problemState {
		if e, ok := rebuilt[id]; ok && e.epoch == epoch {
			return e.ps
		}
		return nil
	}
	for _, sn := range rec.Problems {
		restore(sn)
	}
	for _, r := range rec.Tail {
		switch r := r.(type) {
		case *journal.Submit:
			if e, ok := rebuilt[r.ProblemID]; ok && e.epoch >= r.Epoch {
				continue // the snapshot already covers this incarnation
			}
			restore(journal.Snapshot{ProblemID: r.ProblemID, Epoch: r.Epoch, Kind: r.Kind, State: r.State, Shared: r.Shared})
		case *journal.Grant:
			if ps := live(r.ProblemID, r.Epoch); ps != nil {
				s.replay(ps, r)
			}
		case *journal.Replica:
			if ps := live(r.ProblemID, r.Epoch); ps != nil {
				s.replay(ps, r)
			}
		case *journal.Fold:
			if ps := live(r.ProblemID, r.Epoch); ps != nil {
				if s.replay(ps, r) {
					info.FoldsReplayed++
				} else {
					info.FoldsSkipped++
				}
			}
		case *journal.Forget:
			if ps := live(r.ProblemID, r.Epoch); ps != nil {
				ps.mu.Lock()
				ps.table.finish(fmt.Errorf("%w: %q evicted before completion", ErrForgotten, r.ProblemID))
				s.unlock(ps)
				delete(rebuilt, r.ProblemID)
			}
		}
	}

	now := s.opts.Clock.Now()
	for _, id := range order {
		e, ok := rebuilt[id]
		if !ok {
			continue // forgotten in the tail
		}
		ps, t := e.ps, &e.ps.table
		ps.durable = true
		ps.mu.Lock()
		if ps.p.DM.Done() {
			// Every fold was journaled before the crash (or there was never
			// any work): waiters get the result without recomputation.
			t.finish(nil)
		}
		// A quorum that was waiting for a trusted tie-breaker resolves by
		// count now — trust is soft state, so no donor is trusted yet. This
		// is the expiry sweep's re-evaluation, run now rather than at its
		// first tick.
		t.expire(now, s)
		rp := RecoveredProblem{ProblemID: id, Epoch: ps.epoch, Completed: t.completed, Requeued: len(t.sets)}
		s.unlock(ps)
		s.regMu.Lock()
		s.problems[id] = ps
		s.order = append(s.order, id)
		s.untombstoneLocked(id)
		s.regMu.Unlock()
		info.Problems = append(info.Problems, rp)
	}
	if len(rec.Problems) == 0 && len(rec.Tail) == 0 && !rec.Truncated {
		// Fresh directory: nothing to fence, nothing to compact — skip the
		// checkpoint rather than write an empty snapshot.
		return nil
	}
	s.recovery = info
	// Recovery checkpoint: persist the fresh epochs immediately, so a
	// second crash replays records journaled under them instead of
	// mismatched pre-crash incarnations — and the old segments are
	// compacted away.
	return s.snapshotLocked()
}

// replay applies one journaled unit record to a problem under rebuild, then
// the effects its transitions owe — none reach the journal, since the
// problem is not durable yet. It reports whether a Fold folded.
func (s *Server) replay(ps *problemState, r journal.Record) bool {
	ps.mu.Lock()
	defer s.unlock(ps)
	return ps.table.replay(r)
}

// replayFleet is the fleet a replayed quorum sees: a trusted donor exists
// and a tie-breaker can still arrive, so no held quorum resolves during
// replay — a set folds exactly where the journal recorded its Fold.
type replayFleet struct{}

func (replayFleet) trustedDonorExists() bool                    { return true }
func (replayFleet) liveDonors(time.Time, func(string) bool) int { return 1 }
func (replayFleet) throughput() float64                         { return 0 }

// replay applies one journaled unit record of the table's incarnation
// through the transitions the live table ran when it owed the record, and
// reports whether a Fold folded:
//   - Grant: regrant re-cuts the unit from the restored DataManager and
//     adds its set, open — leases are soft state.
//   - Replica: the result is offered again, untrusted (trust is soft
//     state). A held replica means the set was spot-checked, even if a
//     probation grant raised its quorum after the Grant, and that the donor
//     was involved in it.
//   - Fold: the set folds the journaled payload.
//
// A Grant the restored DataManager cannot reproduce fails the problem with
// the reason; the problem's later records then find nothing to act on.
func (t *unitTable) replay(r journal.Record) bool {
	if t.done {
		return false
	}
	switch r := r.(type) {
	case *journal.Grant:
		if err := t.regrant(r.UnitID, r.Budget, int(r.Quorum)); err != nil {
			t.finish(fmt.Errorf("dist: problem %q: replaying the grant of unit %d: %w", t.task.ProblemID, r.UnitID, err))
		}
	case *journal.Replica:
		set := t.sets[r.UnitID]
		if set == nil {
			return false
		}
		if set.quorum == 1 {
			set.quorum = max(t.opts.VerifyQuorum, 2)
		}
		if !set.involves(r.Donor) {
			set.donors = append(set.donors, r.Donor)
		}
		t.offer(&Result{ProblemID: t.task.ProblemID, UnitID: r.UnitID, Donor: r.Donor, Payload: r.Payload}, false, time.Time{}, replayFleet{})
	case *journal.Fold:
		set := t.sets[r.UnitID]
		if set == nil {
			return false
		}
		t.fold(set, r.Payload, "")
		return true
	}
	return false
}

// regrant rebuilds the set of a journaled Grant: NextUnit(budget) on the
// restored DataManager must return unit uid. A restored DataManager
// re-emits its pending units first, whatever the budget, so units numbered
// below uid may come first — earlier cuts whose own Grant is not in this
// part of the journal — and are rebuilt open too; anything else means the
// DataManager diverged from the one that wrote the journal. A Grant for a
// set already rebuilt (a checkpoint re-appends the Grant of every
// outstanding set) only confirms its quorum.
func (t *unitTable) regrant(uid, budget int64, quorum int) error {
	if set := t.sets[uid]; set != nil {
		set.quorum = max(set.quorum, quorum)
		t.sync(set)
		return nil
	}
	for {
		u, ok, err := t.dm.NextUnit(budget)
		switch {
		case err != nil:
			return err
		case !ok:
			return fmt.Errorf("NextUnit(%d) returned no unit", budget)
		case u.ID > uid:
			return fmt.Errorf("NextUnit(%d) returned unit %d", budget, u.ID)
		}
		set := t.add(u.ID, u, 1)
		if u.ID == uid {
			set.quorum = quorum
		}
		t.sync(set)
		// Every unit folded or outstanding was dispatched at least once.
		t.dispatched = max(t.dispatched, t.completed+len(t.sets))
		if u.ID == uid {
			return nil
		}
	}
}

// record is the journal record a durable problem owes for a Grant,
// Replica or Fold effect.
func (e *effect) record(problemID string, epoch int64) journal.Record {
	switch e.kind {
	case fxGrant:
		return &journal.Grant{ProblemID: problemID, Epoch: epoch, UnitID: e.uid, Budget: e.budget, Quorum: int64(e.quorum)}
	case fxReplica:
		return &journal.Replica{ProblemID: problemID, Epoch: epoch, UnitID: e.uid, Donor: e.donor, Payload: e.payload}
	case fxFold:
		return &journal.Fold{ProblemID: problemID, Epoch: epoch, UnitID: e.uid, Payload: e.payload}
	}
	panic(fmt.Sprintf("dist: effect kind %d has no journal record", e.kind))
}

// checkpointIfDue writes a checkpoint when the records or bytes appended
// to the live WAL segment since the last one exceed the snapshot budget.
// Server.unlock calls it after a durable problem's critical section, so the
// request whose append crosses the budget runs the checkpoint; while one is
// already running (or recovery is replaying) the check is skipped. Counting
// from the last checkpoint, not from the segment's start, keeps the Grants a
// checkpoint re-journals from triggering the next one.
func (s *Server) checkpointIfDue() {
	if s.opts.SnapshotBytes <= 0 && s.opts.SnapshotRecords <= 0 {
		return
	}
	if !s.snapMu.TryLock() {
		return
	}
	defer s.snapMu.Unlock()
	bytes, records := s.journal.LogSize()
	if (s.opts.SnapshotBytes > 0 && bytes-s.snapBytes >= s.opts.SnapshotBytes) ||
		(s.opts.SnapshotRecords > 0 && records-s.snapRecords >= s.opts.SnapshotRecords) {
		// A failed snapshot keeps the old segments (nothing is pruned), so
		// the error is not fatal here; sticky journal I/O errors surface at
		// Close.
		_ = s.snapshotLocked()
	}
}

// snapshotNow writes a checkpoint: it rotates the WAL, captures every live
// durable problem, and writes the snapshot, which prunes the retired
// segments. The capture is a consistent cut — every durable problem is
// locked across the rotation and its capture, so the new segment holds
// exactly the records its problems owed after their captured states, and
// replay never meets a record a state already includes. (This is the one
// place that holds several problem locks; it takes them in ID order, and
// nothing else nests them. The captures owe only journal records, so
// releasing each through unlock takes no other lock.) The registry read
// lock spans the rotation too: a problem registering meanwhile either is
// captured here or journals its Submit into the new segment. The problems
// come from the registry rather than the dispatch rotation, which a
// durable problem joins only once its Submit record is durable.
func (s *Server) snapshotNow() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.snapshotLocked()
}

// snapshotLocked is snapshotNow under snapMu. It records the live segment's
// size once the checkpoint is over, failed or not, as the base
// checkpointIfDue counts from. A closed server writes none: its problems
// are ending, and a checkpoint that skipped them would prune the records
// the next Open resumes them from.
//
//dist:locked snapMu
func (s *Server) snapshotLocked() error {
	defer func() { s.snapBytes, s.snapRecords = s.journal.LogSize() }()
	s.regMu.RLock()
	if s.closed {
		s.regMu.RUnlock()
		return ErrClosed
	}
	var states []*problemState
	for _, ps := range s.problems {
		if ps.durable {
			states = append(states, ps)
		}
	}
	slices.SortFunc(states, func(a, b *problemState) int { return strings.Compare(a.id, b.id) })
	for _, ps := range states {
		ps.mu.Lock()
	}
	err := s.journal.Rotate()
	s.regMu.RUnlock()
	var snaps []journal.Snapshot
	for _, ps := range states {
		if err == nil && !ps.done {
			var sn journal.Snapshot
			sn, err = s.captureLocked(ps)
			snaps = append(snaps, sn)
		}
		s.unlock(ps)
	}
	if err != nil {
		// Without a complete capture, writing this snapshot would prune
		// segments still needed to recover the problem that failed to
		// marshal. Abort; recovery replays across the extra segments.
		return err
	}
	return s.journal.WriteSnapshot(journal.Meta{EpochSeq: s.epochSeq.Load()}, snaps)
}

// captureLocked marshals one live durable problem's state and owes the
// records that rebuild its outstanding units on top of it (rejournal): the
// checkpoint prunes the segments holding their originals, and the caller's
// unlock appends them to the just-rotated WAL. Finished problems are not
// captured: durability covers in-flight work, and a done problem's records
// in the WAL replay it back to done until compaction retires them.
//
//dist:locked mu
func (s *Server) captureLocked(ps *problemState) (journal.Snapshot, error) {
	state, err := ps.p.DM.(DurableDM).MarshalState()
	if err != nil {
		return journal.Snapshot{}, fmt.Errorf("dist: problem %q: marshal durable state: %w", ps.id, err)
	}
	t := &ps.table
	t.rejournal()
	return journal.Snapshot{
		ProblemID:  ps.id,
		Epoch:      ps.epoch,
		Kind:       ps.kind,
		State:      state,
		Shared:     ps.shared,
		Dispatched: int64(t.dispatched),
		Completed:  int64(t.completed),
		Reissued:   int64(t.reissued),
	}, nil
}
