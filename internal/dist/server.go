package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/sched"
	"repro/internal/wire"
)

// ErrClosed is returned by coordinator calls after Close.
var ErrClosed = errors.New("dist: server closed")

// ErrUnknownProblem is returned by problem-addressed calls (Wait, Status,
// Stats, SharedData, Watch, Forget) for an ID that was never submitted.
var ErrUnknownProblem = errors.New("dist: unknown problem")

// ErrForgotten is returned by problem-addressed calls for an ID that was
// submitted and later retired with Forget (or auto-retired after Wait), so
// callers can distinguish "never existed" from "completed and evicted".
// A Wait already blocked when the problem is forgotten mid-run also fails
// with this error.
var ErrForgotten = errors.New("dist: problem forgotten")

// ServerOptions tunes scheduling and fault tolerance. Construct servers
// with functional options (WithPolicy, WithLeaseTTL, ...); the struct is
// the bag they mutate and can be adopted wholesale with WithServerOptions.
type ServerOptions struct {
	// Policy sizes work units per donor; nil defaults to the paper's
	// adaptive strategy with a 5s target.
	Policy sched.Policy
	// Lease is how long a dispatched unit may stay out before it is
	// presumed lost and reissued to another donor. Zero defaults to 2m.
	Lease time.Duration
	// ExpiryScan is the interval between lease sweeps. Zero defaults to
	// Lease/4 (at least one second).
	ExpiryScan time.Duration
	// SpeculateAfter enables speculative re-dispatch of straggler units: a
	// free donor with nothing fresh to compute is granted a second,
	// concurrent lease on a unit that is already leased elsewhere, but only
	// once the owning problem is at least this fraction complete (completed
	// over completed plus outstanding). First result wins: the server folds
	// whichever copy reports first and sends the other donor a cancel
	// notice, so a unit can never be folded twice; the unit requeues only
	// when its last lease is lost. Zero (the default) disables speculation;
	// values outside (0, 1] are ignored. 0.9 is a reasonable tail-chasing
	// setting.
	SpeculateAfter float64
	// BulkThreshold is the payload size in bytes above which a network
	// server ships unit payloads over the raw-socket bulk channel instead
	// of inline in the RPC reply (the paper's §2.2 rationale). Zero
	// defaults to 64 KiB; negative disables offloading.
	BulkThreshold int
	// AutoForget retires a problem automatically once a Wait call has
	// delivered its final result, so a long-lived server submitting many
	// problems does not accumulate their states. Waiters already blocked
	// when the first Wait returns still receive the result (they hold the
	// problem's state directly); later Status/Stats/Wait calls get
	// ErrForgotten.
	AutoForget bool
	// WatchBuffer is each Watch subscriber's event buffer; a consumer that
	// falls further behind loses the oldest events (Event.Dropped counts
	// them). Zero defaults to 64.
	WatchBuffer int
	// LongPoll caps how long one WaitTask call may stay parked server-side
	// before replying "no task" (the donor immediately re-parks, so the
	// cap only bounds how long a single RPC is outstanding). Zero or
	// negative defaults to 45s.
	LongPoll time.Duration
	// DispatchBatch caps how many units one batched WaitTask reply may
	// carry (see TaskBatchWaiter); the effective batch is the smaller of
	// this cap and what the donor asked for, and every unit is leased
	// individually. Zero defaults to 8. Negative (or 1) disables batching:
	// replies carry a single unit, the pre-batch behaviour, kept for
	// ablation benchmarks.
	DispatchBatch int
	// DataDir enables the durable coordinator: submits, folds and forgets
	// of DurableDM-backed problems are journaled under this directory and
	// a restarted server recovers them (see durable.go). Empty — the
	// default — keeps the in-memory behaviour. Construct servers with a
	// DataDir via OpenServer, which surfaces the journal's I/O errors.
	DataDir string
	// JournalFsyncEveryRecord makes every journaled record durable before
	// its mutation is acknowledged, instead of the default group-commit
	// batching (folds become durable within one sync interval; submits and
	// forgets always wait for the fsync). Kept for the durability-cost
	// ablation benchmark.
	JournalFsyncEveryRecord bool
	// SnapshotBytes/SnapshotRecords bound the live WAL segment: when
	// either is exceeded the background snapshotter checkpoints every
	// problem and prunes the log. Zero defaults to 8 MiB / 4096 records;
	// negative disables that trigger (tests drive snapshots directly).
	SnapshotBytes   int64
	SnapshotRecords int
	// SnapshotScan is the interval between compaction-budget checks. Zero
	// defaults to 2s.
	SnapshotScan time.Duration
	// VerifyFraction enables quorum spot-checking of results from untrusted
	// donors: this fraction of freshly dispatched units (deterministically
	// sampled per problem) — plus every unit handed to a donor below the
	// trust bar (see ProbationUnits) — is replicated to VerifyQuorum
	// distinct donors, and the unit folds only once quorum replica results
	// agree (byte-identical, or equivalent under the DataManager's
	// ResultEquivaler). Zero — the default — disables verification
	// entirely: no replicas, no trust tracking, no quarantine. Values above
	// 1 verify every unit.
	VerifyFraction float64
	// VerifyQuorum is how many agreeing replica results fold a verified
	// unit. Zero defaults to 2; values below 2 are raised to 2 (a quorum of
	// one would be the unverified fold). Meaningless without VerifyFraction.
	VerifyQuorum int
	// QuarantineBelow is the trust floor: a donor whose trust EWMA falls
	// below it is quarantined — it receives no further work, its live
	// leases are dropped (failure kind "verify"), and its pending and
	// future results are rejected. Zero defaults to 0.3; negative disables
	// quarantine while keeping trust tracking. Meaningless without
	// VerifyFraction.
	QuarantineBelow float64
	// ProbationUnits sets the trust bar: the trust EWMA this many
	// consecutive quorum agreements earn from neutral, so a new donor is
	// trusted after exactly that many. A donor below the bar — new, or
	// demoted by a lost quorum or a lapsed replica lease — has every unit
	// it is handed spot-checked regardless of VerifyFraction, and its
	// results cannot complete a quorum on their own once any trusted donor
	// exists (see attempts.go). Zero defaults to 4; negative disables
	// probation (bar zero: every non-quarantined donor is trusted).
	// Meaningless without VerifyFraction.
	ProbationUnits int
	// ReadmitAfter lets a quarantined donor back in after this long, on
	// re-entry probation: its trust resets to neutral as if it had just
	// joined. Zero — the default — quarantines forever.
	// Meaningless without VerifyFraction.
	ReadmitAfter time.Duration
}

func (o *ServerOptions) applyDefaults() {
	if o.Policy == nil {
		o.Policy = sched.Adaptive{Target: 5 * time.Second, Bootstrap: 1000, Min: 1}
	}
	if o.Lease <= 0 {
		o.Lease = 2 * time.Minute
	}
	if o.ExpiryScan <= 0 {
		o.ExpiryScan = o.Lease / 4
		if o.ExpiryScan < time.Second {
			o.ExpiryScan = time.Second
		}
	}
	if o.BulkThreshold == 0 {
		o.BulkThreshold = 64 << 10
	}
	if o.WatchBuffer <= 0 {
		o.WatchBuffer = 64
	}
	if o.LongPoll <= 0 {
		o.LongPoll = 45 * time.Second
	}
	if o.DispatchBatch == 0 {
		o.DispatchBatch = 8
	}
	if o.SnapshotBytes == 0 {
		o.SnapshotBytes = 8 << 20
	}
	if o.SnapshotRecords == 0 {
		o.SnapshotRecords = 4096
	}
	if o.SnapshotScan <= 0 {
		o.SnapshotScan = 2 * time.Second
	}
	if o.VerifyFraction > 1 {
		o.VerifyFraction = 1
	}
	if o.VerifyFraction > 0 {
		if o.VerifyQuorum < 2 {
			o.VerifyQuorum = 2
		}
		if o.QuarantineBelow == 0 {
			o.QuarantineBelow = 0.3
		}
		if o.QuarantineBelow < 0 {
			o.QuarantineBelow = 0 // trust can never go negative: quarantine off
		}
		if o.ProbationUnits == 0 {
			o.ProbationUnits = 4
		}
		if o.ProbationUnits < 0 {
			o.ProbationUnits = 0
		}
	}
}

// maxForgottenTombstones bounds the retired-ID set a long-lived server
// keeps for ErrForgotten answers.
const maxForgottenTombstones = 4096

// problemState is the server's bookkeeping for one submitted problem. Each
// problem carries its own mutex and attempt table, so
// RequestTask/SubmitResult/ReportFailure for different problems never
// contend — the registry lock is held only for the map lookup.
type problemState struct {
	// id duplicates p.ID so lock-free callers (rotation pruning) never have
	// to touch the caller-owned Problem struct.
	id string
	// epoch tags this incarnation of the ID (Forget frees IDs for reuse);
	// dispatched tasks carry it and results must echo it, so a straggler
	// from a forgotten predecessor is never folded into this problem.
	// Immutable after Submit.
	epoch int64
	// sharedDigest is the content address of the problem's shared blob,
	// stamped on every dispatched Task so donors can cache and verify it.
	// Immutable after Submit.
	sharedDigest string
	// durable marks a problem whose mutations are journaled; kind names
	// its registered restorer. recovered marks a problem this process
	// rebuilt from the journal rather than accepted via Submit. All three
	// are immutable after registration.
	durable   bool
	kind      string
	recovered bool
	// priority and deadline order this problem in the dispatch scan (see
	// sched.DispatchKey); copied from the Problem at Submit and immutable
	// afterwards, so RequestTask reads them without taking mu.
	priority int
	deadline time.Time
	// inflightN counts the live leases across every attempt set, as an
	// atomic so the dispatch scan can rank problems by outstanding leases
	// (the work-stealing key) without locking shards it will not visit. It
	// is also what Status and every event report as Inflight. Updated
	// wherever a lease is granted or goes, always under mu.
	inflightN atomic.Int64

	// mu guards every field below. DataManager methods are called with mu
	// held, so DataManager implementations need no internal
	// synchronisation (but must not call back into the server).
	mu sync.Mutex

	p *Problem //dist:guardedby mu
	// shared is the server's own reference to the problem's shared blob,
	// so retiring the problem can release it without mutating the
	// caller-owned Problem struct.
	//dist:guardedby mu
	shared []byte
	// units is the attempt table: every outstanding unit — leased, awaiting
	// reissue, or held for quorum — keyed by unit ID (attempts.go). open
	// lists the sets that currently want a lease, oldest first, so dispatch
	// never scans the table.
	//dist:guardedby mu
	units map[int64]*attemptSet
	//dist:guardedby mu
	open []*attemptSet
	// wake and trustDeltas are what the current critical section owes once
	// mu drops: a wake of parked donors, and quorum outcomes for the donor
	// trust EWMAs. Server.unlock pays both.
	//dist:guardedby mu
	wake bool
	//dist:guardedby mu
	trustDeltas []trustDelta
	// verifyAcc is the deterministic sampling accumulator: each fresh
	// dispatch adds VerifyFraction and a unit is spot-checked whenever the
	// accumulator crosses 1 — no randomness, so tests can count on exact
	// sampling.
	//dist:guardedby mu
	verifyAcc float64
	// watchers are the live Watch subscriptions (see events.go).
	//dist:guardedby mu
	watchers []*watcher

	dispatched int //dist:guardedby mu
	completed  int //dist:guardedby mu
	reissued   int //dist:guardedby mu
	// speculated counts units re-dispatched by the straggler-speculation
	// scan; each also counts once more in dispatched.
	//dist:guardedby mu
	speculated int
	// verified counts units folded through quorum agreement; conflicts
	// counts quorum resolutions that discarded at least one disagreeing
	// replica result.
	//dist:guardedby mu
	verified int
	//dist:guardedby mu
	conflicts int
	// consecFails / consecTransport count compute and transport failures
	// since the last successful Consume.
	//dist:guardedby mu
	consecFails int
	//dist:guardedby mu
	consecTransport int

	// starved records that a dispatch scan came up empty-handed for this
	// problem while it was still live (NextUnit said "nothing yet" — a
	// stage barrier, typically). Only then can folding a result release
	// new units, so only then does foldLocked wake parked WaitTask
	// donors; gating the wake this way keeps a busy fleet's result stream
	// from making every parked donor rescan on every fold.
	//dist:guardedby mu
	starved bool

	done   bool   //dist:guardedby mu
	result []byte //dist:guardedby mu
	err    error  //dist:guardedby mu
	// doneCh is created at Submit and closed exactly once on completion;
	// the channel value itself is immutable, so Wait reads it lock-free.
	doneCh chan struct{}
}

// donorState is the server's measured view of one donor. Its own mutex
// keeps stats updates off both the registry lock and the problem locks.
type donorState struct {
	mu       sync.Mutex
	stats    sched.DonorStats //dist:guardedby mu
	lastSeen time.Time        //dist:guardedby mu
	// trust is the donor's reputation EWMA in [0, 1], fed by quorum
	// outcomes (agree pulls toward 1, disagree and timeout toward 0);
	// seeded at sched.TrustNeutral on first contact. Only meaningful while
	// verification is enabled; the donor is trusted while it is at or
	// above Server.trustBar (trustedLocked).
	//dist:guardedby mu
	trust float64
	// quarantined marks a donor whose trust fell below the floor: it
	// receives no work and its results are rejected until readmission
	// (ServerOptions.ReadmitAfter) resets it to neutral trust.
	//dist:guardedby mu
	quarantined bool
	//dist:guardedby mu
	quarantinedAt time.Time
}

// Status is a point-in-time snapshot of one problem's progress.
type Status struct {
	// Completed, Inflight and Reissued count work units.
	Completed, Inflight, Reissued int
	// AppDone/AppTotal are application-level progress (from Progresser);
	// both zero when the DataManager does not report progress.
	AppDone, AppTotal int
	// Done reports whether the final result is ready.
	Done bool
	// Recovered reports the problem was restored from the journal after a
	// coordinator restart rather than submitted to this process.
	Recovered bool
}

// Server is the coordinating node: it owns the submitted problems, sizes
// units per donor via the scheduling policy, tracks leases, and requeues
// failed or expired units. It implements Coordinator for in-process donors;
// wrap it with ListenAndServe for the networked deployment.
//
// State is sharded per problem: a small RWMutex-guarded registry maps IDs
// to problemStates, each of which owns its mutex, attempt table and Watch
// subscriber list. Coordinator calls for different problems
// proceed in parallel, and RequestTask skips problem shards whose lock is
// momentarily contended before falling back to a blocking pass.
//
// Lock order (outer to inner): registry (regMu) → problemState.mu →
// donorMu / donorState.mu / cancelMu / parkMu. A problem lock is never held
// while acquiring the registry lock, and the donor, cancel and park locks
// are leaves: no code path takes a registry or problem lock while holding
// one. The bulk channel's resolver (bulkBlob) enters this order from the
// top like any other caller — regMu.RLock, dropped, then one problem's mu —
// holding nothing of its own: wire.BulkServer releases its mutex before
// calling out, or that mutex would be a new outermost lock.
type Server struct {
	opts ServerOptions

	// regMu guards the problem registry: problems, order, forgotten and
	// closed. Held only for lookup and registration — never across
	// DataManager calls.
	regMu    sync.RWMutex
	problems map[string]*problemState //dist:guardedby regMu
	// order is the dispatch rotation; done problems are pruned lazily.
	//dist:guardedby regMu
	order []string
	// forgotten tombstones retired IDs so Status/Stats/Wait can answer
	// ErrForgotten instead of ErrUnknownProblem. The set is bounded
	// (oldest-first eviction) so the eviction feature cannot itself grow
	// without bound; an ID whose tombstone has aged out degrades to the
	// unknown-problem error.
	//dist:guardedby regMu
	forgotten      map[string]struct{}
	forgottenOrder []string //dist:guardedby regMu
	closed         bool     //dist:guardedby regMu

	// rr is the round-robin dispatch cursor across live problems, advanced
	// once per RequestTask so concurrent instances keep every donor busy
	// across stage barriers (the paper's Figure 2 usage pattern).
	rr atomic.Uint64

	// epochSeq allocates problem incarnation tags (see problemState.epoch).
	epochSeq atomic.Int64

	donorMu sync.RWMutex
	donors  map[string]*donorState //dist:guardedby donorMu

	// trustBar is the trust a donor must hold to be trusted (trustedLocked):
	// probationBar(ProbationUnits), zero with probation off. Immutable.
	trustBar float64

	// cancelMu guards cancels, the per-donor queues of epoch-tagged cancel
	// notices for in-flight units of problems that ended while the unit
	// was out. Donors drain their queue via CancelNotices while computing
	// and abort matching units. A leaf lock (taken under ps.mu).
	cancelMu sync.Mutex
	cancels  map[string][]CancelNotice //dist:guardedby cancelMu

	// parkMu guards parkCh, the broadcast channel WaitTask callers park on
	// while no unit is dispatchable. wakeParked closes and replaces it, so
	// every parked donor re-runs its dispatch scan; the events that can
	// make a unit dispatchable — a Submit, an attempt set left open by a
	// failure, lease expiry or held result, and a folded result on a
	// problem some scan starved on
	// (stage barriers release new units on a fold; see problemState.
	// starved) — all wake it. A leaf lock.
	parkMu sync.Mutex
	parkCh chan struct{} //dist:guardedby parkMu

	// journal is the durable coordinator's write-ahead store (nil without
	// ServerOptions.DataDir); recovery holds what was rebuilt from it at
	// startup. Both are set before start() and immutable afterwards. The
	// store's internal locks are leaves under ps.mu (fold appends);
	// snapMu serialises whole snapshots (the background loop racing a
	// final Close checkpoint) and is only ever taken first, before any
	// registry or problem lock.
	journal  *journal.Store
	recovery *Recovery
	snapMu   sync.Mutex

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

var _ Coordinator = (*Server)(nil)
var _ CancelNotifier = (*Server)(nil)

// NewServer creates an in-process coordinator. With ServerOptions.DataDir
// set it panics if the journal cannot be opened — use OpenServer when the
// durable path's I/O errors should be handled instead.
func NewServer(opts ...ServerOption) *Server {
	s, err := OpenServer(opts...)
	if err != nil {
		panic(fmt.Sprintf("dist: NewServer: %v (use OpenServer to handle journal errors)", err))
	}
	return s
}

// newServer builds the coordinator without starting its background loops,
// so OpenServer can replay a journal into a quiescent server first.
func newServer(o ServerOptions) *Server {
	return &Server{
		opts:      o,
		trustBar:  probationBar(o.ProbationUnits),
		problems:  make(map[string]*problemState),
		forgotten: make(map[string]struct{}),
		donors:    make(map[string]*donorState),
		cancels:   make(map[string][]CancelNotice),
		parkCh:    make(chan struct{}),
		stop:      make(chan struct{}),
	}
}

// start launches the background loops once construction (and any journal
// recovery) is complete.
func (s *Server) start() {
	s.wg.Add(1)
	go s.expiryLoop()
	if s.journal != nil {
		s.wg.Add(1)
		go s.snapshotLoop()
	}
}

// Submit registers a problem for dispatch. An ID retired with Forget may be
// reused; a live or completed-but-unforgotten ID may not. From the moment
// the problem is registered its shared blob is what the network layer's
// bulk channel serves (bulkBlob reads it from here), so no donor can be
// handed a unit whose shared data is not yet fetchable, and a rejected
// duplicate Submit never touches the live problem's blob.
func (s *Server) Submit(ctx context.Context, p *Problem) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if p == nil || p.DM == nil {
		return errors.New("dist: Submit with nil problem or DataManager")
	}
	if p.ID == "" {
		return errors.New("dist: Submit with empty problem ID")
	}
	// The digest is computed outside the registry lock: hashing a large
	// alignment must not stall every other problem's lookups.
	sharedDigest := wire.Digest(p.SharedData)
	// Durable problems marshal their submit record before registration —
	// the DataManager is still caller-owned here, so no lock is needed —
	// and a state that cannot be marshalled is rejected up front rather
	// than discovered at the first checkpoint.
	var jrec *journal.Submit
	var kind string
	if s.journal != nil {
		if kind = durableKind(p.DM); kind != "" {
			state, merr := p.DM.(DurableDM).MarshalState()
			if merr != nil {
				return fmt.Errorf("dist: problem %q: marshal durable state: %w", p.ID, merr)
			}
			jrec = &journal.Submit{ProblemID: p.ID, Kind: kind, State: state, Shared: p.SharedData}
		}
	}
	s.regMu.Lock()
	if s.closed {
		s.regMu.Unlock()
		return ErrClosed
	}
	if _, dup := s.problems[p.ID]; dup {
		s.regMu.Unlock()
		return fmt.Errorf("dist: problem %q already submitted", p.ID)
	}
	ps := &problemState{
		id:           p.ID,
		epoch:        s.epochSeq.Add(1),
		sharedDigest: sharedDigest,
		durable:      jrec != nil,
		kind:         kind,
		priority:     p.Priority,
		deadline:     p.Deadline,
		p:            p,
		shared:       p.SharedData,
		units:        make(map[int64]*attemptSet),
		doneCh:       make(chan struct{}),
	}
	s.problems[p.ID] = ps
	s.order = append(s.order, p.ID)
	s.untombstoneLocked(p.ID) // the ID is live again
	s.regMu.Unlock()

	if jrec != nil {
		// The submit record is fsynced before Submit returns: an
		// acknowledged problem survives a crash. The problem is already
		// dispatchable during the append — a crash inside that window
		// merely loses work donors recompute — but a journal that cannot
		// accept the record rolls the registration back and fails the
		// Submit, because an unjournaled "durable" problem would silently
		// vanish on restart.
		jrec.Epoch = ps.epoch
		if jerr := s.journal.AppendSync(jrec); jerr != nil {
			jerr = fmt.Errorf("dist: problem %q: journal submit: %w", p.ID, jerr)
			ps.mu.Lock()
			s.failLocked(ps, jerr)
			ps.mu.Unlock()
			s.regMu.Lock()
			if cur := s.problems[p.ID]; cur == ps {
				delete(s.problems, p.ID)
				s.removeFromOrderLocked(p.ID)
			}
			s.regMu.Unlock()
			return jerr
		}
	}

	// The DataManager calls below (Done, a Progresser snapshot, possibly
	// FinalResult) run under the problem's own lock only — regMu is never
	// held across DataManager calls, or one slow implementation would stall
	// every other problem's lookups. The problem is dispatchable from the
	// moment regMu drops; a donor racing in merely discovers Done() itself
	// and finalizeLocked is idempotent.
	ps.mu.Lock()
	s.publishLocked(ps, s.snapshotEventLocked(ps))
	if p.DM.Done() {
		s.finalizeLocked(ps)
	}
	ps.mu.Unlock()
	// A fresh problem means fresh dispatchable units: wake long-poll
	// donors parked in WaitTask so they pick them up now instead of at
	// their next poll tick.
	s.wakeParked()
	return nil
}

// ctxErr is the nil-tolerant ctx.Err().
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// lookup resolves a problem ID, distinguishing never-submitted from
// forgotten IDs.
func (s *Server) lookup(id string) (*problemState, error) {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	if ps, ok := s.problems[id]; ok {
		return ps, nil
	}
	if _, ok := s.forgotten[id]; ok {
		return nil, fmt.Errorf("%w: %q", ErrForgotten, id)
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownProblem, id)
}

// allProblems snapshots the registered problem states, so a sweep can take
// each problem's lock without holding the registry's.
func (s *Server) allProblems() []*problemState {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	states := make([]*problemState, 0, len(s.problems))
	for _, ps := range s.problems {
		states = append(states, ps)
	}
	return states
}

// isClosed reports whether Close has begun.
func (s *Server) isClosed() bool {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	return s.closed
}

// Wait blocks until the problem completes (or ctx is cancelled) and returns
// its final result. With ServerOptions.AutoForget the problem is retired
// once the result has been delivered; subsequent calls return ErrForgotten.
// A ctx cancellation only abandons this Wait — pair it with Forget to also
// stop the donors' in-flight compute (RunLocal does exactly that).
func (s *Server) Wait(ctx context.Context, id string) ([]byte, error) {
	ps, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background() //dist:allow-background nil-ctx normalisation in a public entry point
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-ps.doneCh:
	}
	ps.mu.Lock()
	out, werr := ps.result, ps.err
	ps.mu.Unlock()
	if s.opts.AutoForget {
		// Idempotent across concurrent waiters; each already holds ps, so
		// every Wait in flight still delivers the result. The eviction is
		// identity-checked: if another waiter already forgot this ID and
		// the caller resubmitted a fresh problem under it, a slow waiter's
		// deferred forget must not evict the new problem mid-run.
		_ = s.forgetMatching(id, ps)
	}
	return out, werr
}

// Forget retires a problem: its state is evicted from the server, and with
// it everything the bulk channel served for it (shared blob, offloaded
// unit payloads). A problem forgotten before completion fails with
// ErrForgotten, unblocking any Wait; leased and requeued units are
// discarded, not reissued, and every donor holding one of its leases is
// queued an epoch-tagged cancel notice so it aborts the unit's ProcessCtx
// instead of finishing doomed work. Forgetting an already-forgotten ID is a no-op;
// forgetting a never-submitted ID returns ErrUnknownProblem.
func (s *Server) Forget(id string) error {
	return s.forgetMatching(id, nil)
}

// forgetMatching is Forget, optionally restricted to a specific problem
// instance: with only non-nil the eviction happens just when the registry
// still maps id to that exact state, so a stale ID-addressed forget (an
// AutoForget waiter racing a resubmission of the same ID) never evicts a
// successor problem.
func (s *Server) forgetMatching(id string, only *problemState) error {
	s.regMu.Lock()
	if s.closed {
		s.regMu.Unlock()
		return ErrClosed
	}
	ps, ok := s.problems[id]
	if !ok {
		_, wasForgotten := s.forgotten[id]
		s.regMu.Unlock()
		if wasForgotten {
			return nil // idempotent double-Forget
		}
		return fmt.Errorf("%w %q", ErrUnknownProblem, id)
	}
	if only != nil && ps != only {
		s.regMu.Unlock()
		return nil // the ID was reused; the caller's problem is already gone
	}
	s.regMu.Unlock()

	// Release the problem BEFORE unregistering its ID, with the registry
	// lock dropped: the exclusive registry lock must not be held while
	// waiting on the problem's lock (a DataManager call may hold it for a
	// while, and stalling every other problem's lookups behind regMu would
	// re-serialize the coordinator).
	ps.mu.Lock()
	// A still-running problem fails (releasing its units and shared blob,
	// cancelling its donors, and unblocking waiters); a completed one
	// already released everything in finalize/fail, so this is a no-op.
	s.failLocked(ps, fmt.Errorf("%w: %q evicted before completion", ErrForgotten, id))
	ps.mu.Unlock()

	s.regMu.Lock()
	// Identity-checked removal: a concurrent Forget of the same ID may
	// have completed (and the ID may even have been resubmitted) while the
	// release above ran; never unregister a successor.
	removed := false
	if cur := s.problems[id]; cur == ps {
		delete(s.problems, id)
		s.tombstoneLocked(id)
		s.removeFromOrderLocked(id)
		removed = true
	}
	s.regMu.Unlock()
	if removed && ps.durable && s.journal != nil {
		// Fsynced before Forget acknowledges: a forgotten problem must not
		// resurrect on restart. An I/O error cannot un-forget the
		// in-memory eviction above; it sticks in the store and surfaces at
		// Close.
		_ = s.journal.AppendSync(&journal.Forget{ProblemID: id, Epoch: ps.epoch})
	}
	return nil
}

// tombstoneLocked records a retired ID, evicting the oldest tombstones
// past the cap so the set stays bounded on a long-lived server. Callers
// hold regMu.
//
//dist:locked regMu
func (s *Server) tombstoneLocked(id string) {
	if _, ok := s.forgotten[id]; !ok {
		s.forgotten[id] = struct{}{}
		s.forgottenOrder = append(s.forgottenOrder, id)
	}
	for len(s.forgottenOrder) > maxForgottenTombstones {
		old := s.forgottenOrder[0]
		s.forgottenOrder = s.forgottenOrder[1:]
		delete(s.forgotten, old)
	}
}

// untombstoneLocked clears a retired ID that is live again, keeping the
// eviction order in sync with the set. Callers hold regMu.
//
//dist:locked regMu
func (s *Server) untombstoneLocked(id string) {
	if _, ok := s.forgotten[id]; !ok {
		return
	}
	delete(s.forgotten, id)
	for i, oid := range s.forgottenOrder {
		if oid == id {
			s.forgottenOrder = append(s.forgottenOrder[:i], s.forgottenOrder[i+1:]...)
			break
		}
	}
}

// removeFromOrderLocked drops one ID from the dispatch rotation. Callers
// hold regMu.
//
//dist:locked regMu
func (s *Server) removeFromOrderLocked(id string) {
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}

// Status reports a problem's progress. Prefer Watch for continuous
// observation; Status remains for one-shot probes.
func (s *Server) Status(ctx context.Context, id string) (Status, error) {
	if err := ctxErr(ctx); err != nil {
		return Status{}, err
	}
	ps, err := s.lookup(id)
	if err != nil {
		return Status{}, err
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	st := Status{
		Completed: ps.completed,
		Inflight:  int(ps.inflightN.Load()),
		Reissued:  ps.reissued,
		Done:      ps.done,
		Recovered: ps.recovered,
	}
	if pr, ok := ps.p.DM.(Progresser); ok {
		st.AppDone, st.AppTotal = pr.Progress()
	}
	return st, nil
}

// ProblemStats are a problem's lifetime unit counters plus its recovery
// provenance.
type ProblemStats struct {
	// Dispatched, Completed and Reissued count work units over the
	// problem's lifetime, surviving coordinator restarts for durable
	// problems (the snapshot carries them).
	Dispatched, Completed, Reissued int
	// Speculated counts straggler units re-dispatched to a second donor
	// under ServerOptions.SpeculateAfter (each also counts in Dispatched).
	Speculated int
	// Verified counts units folded through quorum agreement
	// (ServerOptions.VerifyFraction); Conflicts counts quorum resolutions
	// that discarded at least one disagreeing replica result.
	Verified, Conflicts int
	// Recovered reports the problem was restored from the journal after a
	// coordinator restart rather than submitted to this process.
	Recovered bool
}

// Stats reports a problem's unit counters.
func (s *Server) Stats(ctx context.Context, id string) (ProblemStats, error) {
	if err := ctxErr(ctx); err != nil {
		return ProblemStats{}, err
	}
	ps, lerr := s.lookup(id)
	if lerr != nil {
		return ProblemStats{}, lerr
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ProblemStats{
		Dispatched: ps.dispatched,
		Completed:  ps.completed,
		Reissued:   ps.reissued,
		Speculated: ps.speculated,
		Verified:   ps.verified,
		Conflicts:  ps.conflicts,
		Recovered:  ps.recovered,
	}, nil
}

// DonorCount reports how many distinct donors have contacted the server.
func (s *Server) DonorCount() int {
	s.donorMu.RLock()
	defer s.donorMu.RUnlock()
	return len(s.donors)
}

// Close stops the server. Problems still running fail with ErrClosed so
// concurrent Wait calls return. A durable server writes a final
// checkpoint first — before the problems are marked failed, so their live
// state is what persists — making a deliberate Close a clean shutdown the
// next Open resumes from.
func (s *Server) Close() error {
	s.regMu.Lock()
	first := !s.closed
	s.regMu.Unlock()
	var jerr error
	if first && s.journal != nil {
		jerr = s.snapshotNow()
	}

	s.regMu.Lock()
	var toFail []*problemState
	if !s.closed {
		s.closed = true
		for _, ps := range s.problems {
			toFail = append(toFail, ps)
		}
	}
	s.regMu.Unlock()
	for _, ps := range toFail {
		ps.mu.Lock()
		s.failLocked(ps, ErrClosed)
		ps.mu.Unlock()
	}
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	if s.journal != nil {
		if cerr := s.journal.Close(); jerr == nil {
			jerr = cerr
		}
	}
	return jerr
}

// SharedData implements Coordinator.
func (s *Server) SharedData(ctx context.Context, problemID string) ([]byte, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	ps, err := s.lookup(problemID)
	if err != nil {
		return nil, err
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.shared, nil
}

// finalizeLocked marks a problem done with its DataManager's final result.
// Callers hold ps.mu.
//
//dist:locked mu
func (s *Server) finalizeLocked(ps *problemState) {
	if ps.done {
		return
	}
	out, err := ps.p.DM.FinalResult()
	ps.done = true
	ps.result, ps.err = out, err
	close(ps.doneCh)
	s.releaseLocked(ps)
}

// failLocked marks a problem done with an error. Callers hold ps.mu.
//
//dist:locked mu
func (s *Server) failLocked(ps *problemState, err error) {
	if ps.done {
		return
	}
	ps.done = true
	ps.err = err
	close(ps.doneCh)
	s.releaseLocked(ps)
}

// releaseLocked drops a finished problem's attempt table and the shared
// blob: a problem that finalized early (Done with units still out) must not
// pin unit payloads for the server's lifetime, and Status should not report
// in-flight work for a done problem. Donors still computing one of the
// leased units get a cancel notice so they abort instead of finishing work
// whose result would be dropped. (A donor fetching shared
// data for a finished problem gets nil, fails Init, and the failure report
// is ignored — the problem is done.) Dropping the table and the blob is
// also what ends their life on the bulk channel, which serves them from
// here (bulkBlob). The terminal Watch event fires here too, under the
// problem lock. Callers hold ps.mu; ps.done is already true.
//
//dist:locked mu
func (s *Server) releaseLocked(ps *problemState) {
	for _, set := range ps.units {
		s.cancelLeasesLocked(ps, set)
	}
	ps.inflightN.Store(0)
	ps.units, ps.open = nil, nil
	s.publishLocked(ps, s.terminalEventLocked(ps))
	ps.shared = nil // the server's reference only; the caller's Problem is untouched
}
