package dist

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/wire"
)

// Durability: with ServerOptions.DataDir set, the coordinator journals the
// three mutations that matter — a problem submitted, a unit result folded,
// a problem forgotten — to a write-ahead log (package journal) and
// checkpoints problem states in the background. Everything else the server
// tracks (leases, donor statistics, park queues) is soft state the fleet
// regenerates within a poll interval, so a restarted coordinator replays
// snapshot+tail, re-queues the un-folded work via the restored
// DataManagers, and fences pre-crash stragglers with fresh incarnation
// epochs.

// DurableDM is the optional extension point durability hangs on: a
// DataManager (typed or byte-level) that can flatten its state for the
// journal. Restoring MarshalState's bytes through the registered restorer
// must yield a DataManager that regenerates every not-yet-folded unit —
// under its original unit ID where possible, so folds journaled after the
// snapshot replay cleanly — and whose Consume rejects unknown unit IDs
// with an error rather than corrupting state (replay relies on that to be
// idempotent).
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

// RegisteredDurableDMs lists the registered durable kinds, sorted.
func RegisteredDurableDMs() []string {
	durableMu.RLock()
	defer durableMu.RUnlock()
	kinds := make([]string, 0, len(durables))
	for k := range durables {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
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
	return dm, nil
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
	// Requeued estimates the units back in play: dispatch events the
	// journal saw no fold for. The restored DataManager regenerates them.
	Requeued int
}

// Recovery summarises what OpenServer rebuilt from the journal; Server.
// Recovery returns nil when the data directory held no prior state.
type Recovery struct {
	// Problems are the restored problems, in journal order.
	Problems []RecoveredProblem
	// FoldsReplayed counts tail folds applied on top of the snapshot;
	// FoldsSkipped counts folds the restored DataManagers rejected
	// (already covered by the snapshot, or for units regenerated under new
	// IDs — that work is simply recomputed).
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

// recover replays the journal into registered problems: snapshot states
// first, then the WAL tail in order. Replay is idempotent by construction —
// a fold the captured state already includes is rejected by the
// DataManager's unknown-unit check and skipped; a Submit below the live
// epoch is a duplicate; a Forget deletes only its own incarnation.
func (s *Server) recover(rec *journal.Recovered) error {
	type recEntry struct {
		snap journal.Snapshot
		dm   DataManager
		// replicas holds the journaled-but-not-folded replica results of
		// quorum-verified units, keyed unit → donor → payload. A Fold for
		// the unit under the same epoch supersedes them (WAL order
		// guarantees the fold was appended after every replica it resolved).
		replicas map[int64]map[string][]byte
	}
	info := &Recovery{Truncated: rec.Truncated}
	entries := make(map[string]*recEntry)
	var order []string
	restore := func(sn journal.Snapshot) {
		dm, err := restoreDurableDM(sn.Kind, sn.State)
		if err != nil {
			info.Skipped = append(info.Skipped, fmt.Sprintf("%s: %v", sn.ProblemID, err))
			return
		}
		if _, ok := entries[sn.ProblemID]; !ok {
			order = append(order, sn.ProblemID)
		}
		entries[sn.ProblemID] = &recEntry{snap: sn, dm: dm}
	}
	for _, sn := range rec.Problems {
		restore(sn)
	}
	for _, r := range rec.Tail {
		switch r := r.(type) {
		case *journal.Submit:
			if e, ok := entries[r.ProblemID]; ok && e.snap.Epoch >= r.Epoch {
				continue // the snapshot already covers this incarnation
			}
			restore(journal.Snapshot{ProblemID: r.ProblemID, Epoch: r.Epoch, Kind: r.Kind, State: r.State, Shared: r.Shared})
		case *journal.Fold:
			e, ok := entries[r.ProblemID]
			if !ok || e.snap.Epoch != r.Epoch {
				continue
			}
			// Folded — whether replayed or already covered — means any held
			// replicas of the unit are resolved; drop them either way.
			delete(e.replicas, r.UnitID)
			if err := e.dm.Consume(r.UnitID, r.Payload); err != nil {
				info.FoldsSkipped++
				continue
			}
			e.snap.Completed++
			info.FoldsReplayed++
		case *journal.Replica:
			e, ok := entries[r.ProblemID]
			if !ok || e.snap.Epoch != r.Epoch {
				continue
			}
			if e.replicas == nil {
				e.replicas = make(map[int64]map[string][]byte)
			}
			if e.replicas[r.UnitID] == nil {
				e.replicas[r.UnitID] = make(map[string][]byte)
			}
			e.replicas[r.UnitID][r.Donor] = r.Payload
		case *journal.Forget:
			if e, ok := entries[r.ProblemID]; ok && e.snap.Epoch == r.Epoch {
				delete(entries, r.ProblemID)
			}
		}
	}

	// Epoch fencing across the restart: seed the incarnation allocator
	// above everything the journal ever issued, then give every recovered
	// problem a fresh epoch. A pre-crash straggler redialing in carries the
	// old epoch and is dropped by the existing mismatch checks.
	if cur := s.epochSeq.Load(); cur < rec.MaxEpoch {
		s.epochSeq.Store(rec.MaxEpoch)
	}
	for _, id := range order {
		e, ok := entries[id]
		if !ok {
			continue // forgotten in the tail
		}
		sn := e.snap
		requeued := int(sn.Dispatched - sn.Completed)
		if requeued < 0 {
			requeued = 0
		}
		completed := int(sn.Completed)
		dispatched := int(sn.Dispatched)
		if dispatched < completed {
			// Tail folds can outnumber snapshotted dispatch events; keep
			// the counters' dispatched ≥ completed invariant.
			dispatched = completed
		}
		ps := &problemState{
			id:           id,
			epoch:        s.epochSeq.Add(1),
			sharedDigest: wire.Digest(sn.Shared),
			p:            &Problem{ID: id, DM: e.dm, SharedData: sn.Shared},
			shared:       sn.Shared,
			units:        make(map[int64]*attemptSet),
			doneCh:       make(chan struct{}),
			durable:      true,
			kind:         sn.Kind,
			recovered:    true,
			dispatched:   dispatched,
			completed:    completed,
			reissued:     int(sn.Reissued),
		}
		s.regMu.Lock()
		s.problems[id] = ps
		s.order = append(s.order, id)
		s.untombstoneLocked(id)
		s.regMu.Unlock()
		ps.mu.Lock()
		if e.dm.Done() {
			// Every fold was journaled before the crash: the problem
			// completes during replay and waiters get the result without
			// any recomputation.
			s.finalizeLocked(ps)
		} else if s.verifyEnabled() {
			// Rebuild the pending spot-checked sets from their journaled
			// replicas, so quorums started before the crash complete across
			// it instead of recomputing every copy. The sets have no unit
			// yet (the restored DataManager re-emits it under its original
			// ID at the next dispatch) and no leases; donor trust is soft
			// state, so every recovered result counts as untrusted. A set
			// whose quorum was already satisfied — the fold record was lost
			// with the crash — resolves right here: no donor is trusted
			// this early, so plain count quorum applies.
			for uid, byDonor := range e.replicas {
				set := ps.addSetLocked(uid, nil, s.opts.VerifyQuorum)
				for donor, payload := range byDonor {
					set.donors = append(set.donors, donor)
					set.results = append(set.results, heldResult{donor: donor, payload: payload})
				}
				s.settleLocked(ps, set, time.Now())
			}
		}
		s.unlock(ps)
		info.Problems = append(info.Problems, RecoveredProblem{
			ProblemID: id, Epoch: ps.epoch, Completed: completed, Requeued: requeued,
		})
	}
	if len(rec.Problems) == 0 && len(rec.Tail) == 0 && !rec.Truncated {
		// Fresh directory: nothing to fence, nothing to compact — skip the
		// checkpoint rather than write an empty snapshot.
		return nil
	}
	s.recovery = info
	// Recovery checkpoint: persist the fresh epochs immediately, so a
	// second crash replays folds journaled under them instead of mismatched
	// pre-crash incarnations — and the old segments are compacted away.
	return s.snapshotNow()
}

// snapshotScan is the interval between the snapshotter's compaction-budget
// checks.
const snapshotScan = 2 * time.Second

// snapshotLoop compacts the journal in the background whenever the live
// WAL segment exceeds the byte or record budget.
func (s *Server) snapshotLoop() {
	defer s.wg.Done()
	t := time.NewTicker(snapshotScan)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			bytes, records := s.journal.LogSize()
			if (s.opts.SnapshotBytes > 0 && bytes >= s.opts.SnapshotBytes) ||
				(s.opts.SnapshotRecords > 0 && records >= s.opts.SnapshotRecords) {
				// A failed snapshot keeps the old segments (nothing is
				// pruned), so the error is not fatal here; sticky journal
				// I/O errors surface at Close.
				_ = s.snapshotNow()
			}
		}
	}
}

// snapshotNow rotates the WAL, captures every live durable problem and
// writes the checkpoint. Rotation happens first so the snapshot covers
// everything in the retired segments; folds racing into the new segment
// during capture replay idempotently on top of it.
func (s *Server) snapshotNow() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if err := s.journal.Rotate(); err != nil {
		return err
	}
	snaps, err := s.captureDurable()
	if err != nil {
		// Without a complete capture, writing this snapshot would prune
		// segments still needed to recover the problem that failed to
		// marshal. Abort; recovery replays across the extra segments.
		return err
	}
	return s.journal.WriteSnapshot(journal.Meta{EpochSeq: s.epochSeq.Load()}, snaps)
}

// captureDurable marshals every live durable problem's state under its own
// lock. Finished problems are skipped: durability covers in-flight work,
// and a done problem's folds in the WAL replay it back to done anyway
// until compaction retires them.
//
// Held replica results are re-appended to the (just rotated) WAL
// here, under the same ps.mu a racing fold would take: compaction prunes
// the segments holding their original records, and without the re-append a
// crash after pruning would lose every held replica. Appending under the
// lock keeps the WAL's replica-before-fold order for any unit that folds
// during the capture.
func (s *Server) captureDurable() ([]journal.Snapshot, error) {
	s.regMu.RLock()
	states := make([]*problemState, 0, len(s.order))
	for _, id := range s.order {
		if ps := s.problems[id]; ps != nil {
			states = append(states, ps)
		}
	}
	s.regMu.RUnlock()
	var snaps []journal.Snapshot
	for _, ps := range states {
		ps.mu.Lock()
		if ps.done || !ps.durable {
			ps.mu.Unlock()
			continue
		}
		d, ok := ps.p.DM.(DurableDM)
		if !ok {
			ps.mu.Unlock()
			continue
		}
		state, err := d.MarshalState()
		if err != nil {
			ps.mu.Unlock()
			return nil, fmt.Errorf("dist: problem %q: marshal durable state: %w", ps.id, err)
		}
		snaps = append(snaps, journal.Snapshot{
			ProblemID:  ps.id,
			Epoch:      ps.epoch,
			Kind:       ps.kind,
			State:      state,
			Shared:     ps.shared,
			Dispatched: int64(ps.dispatched),
			Completed:  int64(ps.completed),
			Reissued:   int64(ps.reissued),
		})
		for _, set := range ps.units {
			for _, r := range set.results {
				_ = s.journal.Append(&journal.Replica{ProblemID: ps.id, Epoch: ps.epoch, UnitID: set.uid, Donor: r.donor, Payload: r.payload})
			}
		}
		ps.mu.Unlock()
	}
	return snaps, nil
}
