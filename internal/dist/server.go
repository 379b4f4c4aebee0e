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

// pollHint is the wait RequestTask suggests alongside an empty reply. No
// donor of this repository sleeps on it — they park in WaitTask — so it
// only paces a foreign Coordinator client that polls.
const pollHint = 50 * time.Millisecond

// throughputAlpha weights the newest cost/elapsed sample in the EWMA the
// scheduler sizes units from.
const throughputAlpha = 0.3

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
	// free donor with nothing fresh to compute is handed a copy of a unit
	// that is already leased elsewhere, but only once the owning problem
	// is at least this fraction complete (completed over completed plus
	// in-flight). The lease moves to the speculating donor — first result
	// wins by the existing straggler rule (the server accepts whichever
	// copy folds first and drops the other), so a unit can never be folded
	// twice. Zero (the default) disables speculation; values outside
	// (0, 1] are ignored. 0.9 is a reasonable tail-chasing setting.
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
	// sampled per problem) — plus every unit handed to a donor still in
	// probation — is replicated to VerifyQuorum distinct donors, and the
	// unit folds only once quorum replica results agree (byte-identical, or
	// equivalent under the DataManager's ResultEquivaler). Zero — the
	// default — disables verification entirely: no replicas, no trust
	// tracking, no quarantine. Values above 1 verify every unit.
	VerifyFraction float64
	// VerifyQuorum is how many agreeing replica results fold a verified
	// unit. Zero defaults to 2; values below 2 are raised to 2 (a quorum of
	// one would be the unverified fold). Meaningless without VerifyFraction.
	VerifyQuorum int
	// QuarantineBelow is the trust floor: a donor whose trust EWMA falls
	// below it is quarantined — it receives no further work, its in-flight
	// leases are requeued (failure kind "verify"), and its pending and
	// future results are rejected. Zero defaults to 0.3; negative disables
	// quarantine while keeping trust tracking. Meaningless without
	// VerifyFraction.
	QuarantineBelow float64
	// ProbationUnits is how many quorum *agreements* a new donor must
	// accrue before its results are trusted: until then every unit it is
	// handed is spot-checked regardless of VerifyFraction, and its results
	// cannot complete a quorum on their own once any trusted donor exists
	// (see verify.go). Zero defaults to 4; negative disables probation.
	// Meaningless without VerifyFraction.
	ProbationUnits int
	// ReadmitAfter lets a quarantined donor back in after this long, on
	// re-entry probation: its trust and probation progress reset as if it
	// had just joined. Zero — the default — quarantines forever.
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

// maxUnitAttempts bounds how often one cached unit is re-dispatched after
// failures before the whole problem is failed — a deterministically
// poisoned unit must not ping-pong between donors forever.
const maxUnitAttempts = 8

// maxConsecutiveFailures bounds compute failures with no intervening
// success for one problem. Requeuer DataManagers regenerate lost units
// under fresh IDs, so the per-unit attempt cap cannot see a poisoned unit
// cycling there; this problem-level bound catches it.
const maxConsecutiveFailures = 64

// maxForgottenTombstones bounds the retired-ID set a long-lived server
// keeps for ErrForgotten answers.
const maxForgottenTombstones = 4096

// maxConsecutiveTransport bounds transport failures (unfetchable payloads)
// with no intervening success. Deliberately very loose — partial-fleet
// bulk-connectivity problems self-heal via requeue and any completed unit
// resets it — but it turns "no donor can reach the bulk channel at all"
// (a misconfigured advertised address, a NAT forwarding only the RPC port)
// from a silent livelock into a diagnosable failure.
const maxConsecutiveTransport = 1024

// maxPendingCancels bounds one donor's queued cancel notices; a donor that
// never drains (a v1 binary without the poll) loses the oldest notices,
// which only costs it some wasted compute on doomed units.
const maxPendingCancels = 256

// leaseInfo tracks one in-flight unit.
type leaseInfo struct {
	unit     *Unit
	donor    string
	deadline time.Time
	attempts int
	// speculated marks a lease re-dispatched to a second donor under
	// SpeculateAfter, so the tail-chasing scan never stacks a third copy on
	// the same unit. Reset when the unit leaves the lease table.
	speculated bool
}

// queuedUnit is a cached unit awaiting reissue (DataManagers implementing
// Requeuer regenerate units instead and never enter this queue).
type queuedUnit struct {
	unit      *Unit
	lastDonor string
	attempts  int
}

// problemState is the server's bookkeeping for one submitted problem. Each
// problem carries its own mutex, lease table and requeue queue, so
// RequestTask/SubmitResult/ReportFailure for different problems never
// contend — the registry lock is held only for the map lookup.
type problemState struct {
	// id duplicates p.ID so lock-free callers (cleanup hooks, rotation
	// pruning) never have to touch the caller-owned Problem struct.
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
	// inflightN mirrors len(inflight) as an atomic, so the dispatch scan
	// can rank problems by outstanding leases (the work-stealing key)
	// without locking shards it will not visit. Updated wherever the lease
	// table grows or shrinks, always under mu.
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
	shared   []byte
	inflight map[int64]*leaseInfo //dist:guardedby mu
	requeue  []queuedUnit         //dist:guardedby mu
	// verify tracks the units under quorum spot-checking, keyed by unit ID.
	// A verified unit lives here INSTEAD of the inflight table: every
	// replica lease, held result and excluded donor belongs to its
	// verifySet, and the unit only folds when the set resolves (verify.go).
	// Nil until the first set is created; lazily allocated.
	//dist:guardedby mu
	verify map[int64]*verifySet
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
	// new units, so only then does submitResult wake parked WaitTask
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
	// verification is enabled.
	//dist:guardedby mu
	trust float64
	// verifiedOK counts the donor's quorum agreements; probation ends once
	// it reaches ServerOptions.ProbationUnits.
	//dist:guardedby mu
	verifiedOK int
	// quarantined marks a donor whose trust fell below the floor: it
	// receives no work and its results are rejected until readmission
	// (ServerOptions.ReadmitAfter) resets it to re-entry probation.
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
// to problemStates, each of which owns its mutex, lease table, requeue
// queue and Watch subscriber list. Coordinator calls for different problems
// proceed in parallel, and RequestTask skips problem shards whose lock is
// momentarily contended before falling back to a blocking pass.
//
// Lock order (outer to inner): registry (regMu) → problemState.mu →
// donorMu / donorState.mu / cancelMu / parkMu. A problem lock is never held
// while acquiring the registry lock, and the donor, cancel and park locks
// are leaves: no code path takes a registry or problem lock while holding
// one.
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

	// trusted counts donors past probation and not quarantined — the
	// fleet-wide signal the quorum rule keys on: once any trusted donor
	// exists, a quorum must include one (see verify.go). Maintained on the
	// probation/quarantine/prune transitions.
	trusted atomic.Int64

	// cancelMu guards cancels, the per-donor queues of epoch-tagged cancel
	// notices for in-flight units of problems that ended while the unit
	// was out. Donors drain their queue via CancelNotices while computing
	// and abort matching units. A leaf lock (taken under ps.mu).
	cancelMu sync.Mutex
	cancels  map[string][]CancelNotice //dist:guardedby cancelMu

	// parkMu guards parkCh, the broadcast channel WaitTask callers park on
	// while no unit is dispatchable. wakeParked closes and replaces it, so
	// every parked donor re-runs its dispatch scan; the events that can
	// make a unit dispatchable — a Submit, a failure or lease-expiry
	// requeue, and a folded result on a problem some scan starved on
	// (stage barriers release new units on a fold; see problemState.
	// starved) — all wake it. A leaf lock.
	parkMu sync.Mutex
	parkCh chan struct{} //dist:guardedby parkMu

	// onProblemDone, when non-nil, is invoked (under the problem's lock)
	// each time a problem finalizes, fails, or is forgotten; the network
	// layer uses it to drop the problem's bulk-channel blobs however the
	// problem ended.
	onProblemDone func(problemID string)
	// onUnitRetired, when non-nil, is invoked (under the problem's lock)
	// when a lost unit is regenerated by a Requeuer DataManager — its old
	// ID will never be dispatched again, so the network layer can drop the
	// ID's offloaded payload immediately instead of at problem end.
	onUnitRetired func(problemID string, epoch, unitID int64)

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
// reused; a live or completed-but-unforgotten ID may not.
func (s *Server) Submit(ctx context.Context, p *Problem) error {
	return s.submitWith(ctx, p, nil)
}

// submitWith registers a problem, invoking publish (when non-nil) under the
// registry lock after validation but before the problem becomes
// dispatchable. The network server uses this to put the shared blob on the
// bulk channel so no donor can be handed a unit whose shared data is not
// yet fetchable — and a rejected duplicate Submit never touches the live
// problem's blob. publish receives the blob's content digest so the
// network layer stores the blob content-addressed without hashing it a
// second time.
func (s *Server) submitWith(ctx context.Context, p *Problem, publish func(sharedDigest string)) error {
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
	if publish != nil {
		publish(sharedDigest)
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
		inflight:     make(map[int64]*leaseInfo),
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

// isClosed reports whether Close has begun.
func (s *Server) isClosed() bool {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	return s.closed
}

// liveEpoch reports the incarnation currently registered — and not yet
// done — under id. The network layer uses it to detect that an offload it
// just published was for a stale task.
func (s *Server) liveEpoch(id string) (int64, bool) {
	ps, err := s.lookup(id)
	if err != nil {
		return 0, false
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.done {
		return 0, false
	}
	return ps.epoch, true
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

// Forget retires a problem: its state is evicted from the server and its
// network-layer resources (shared blob, offloaded unit payloads) are
// released. A problem forgotten before completion fails with ErrForgotten,
// unblocking any Wait; leased and requeued units are discarded, not
// reissued, and every donor holding one of its leases is queued an
// epoch-tagged cancel notice so it aborts the unit's ProcessCtx instead of
// finishing doomed work. Forgetting an already-forgotten ID is a no-op;
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

	// Release the problem BEFORE unregistering its ID. The network layer's
	// blob cleanup is keyed by problem ID, so it must run while the ID is
	// still registered — a duplicate Submit is rejected until the delete
	// below, which means the cleanup can only ever touch this incarnation's
	// blobs, never a successor's. This ordering also keeps the exclusive
	// registry lock from being held while waiting on the problem's lock
	// (a DataManager call may hold it for a while, and stalling every
	// other problem's lookups behind regMu would re-serialize the
	// coordinator).
	ps.mu.Lock()
	// A still-running problem fails (releasing its units and blobs,
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
		Inflight:  ps.inflightLocked(),
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

// RequestTask implements Coordinator: pick the next unit for a donor,
// round-robin across live problems. The rotation is snapshotted under the
// registry read lock; each candidate problem is then tried under its own
// lock. The first pass only TryLocks each shard — a problem whose
// DataManager is busy partitioning or folding under its lock is skipped
// rather than blocked on, so one slow problem never adds latency to a
// request that an idle problem could serve. Shards skipped as contended
// are retried with a blocking lock only if the fast pass found nothing.
func (s *Server) RequestTask(ctx context.Context, donor string) (*Task, time.Duration, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, 0, err
	}
	s.regMu.RLock()
	if s.closed {
		s.regMu.RUnlock()
		return nil, 0, ErrClosed
	}
	rotation := make([]*problemState, 0, len(s.order))
	for _, id := range s.order {
		if ps := s.problems[id]; ps != nil {
			rotation = append(rotation, ps)
		}
	}
	s.regMu.RUnlock()

	ds := s.touchDonor(donor)
	n := len(rotation)
	if n == 0 {
		return nil, pollHint, nil
	}
	view, quarantined := s.donorDispatchView(ds)
	if quarantined {
		// A quarantined donor gets no work at all; it keeps polling (and
		// long-polling) and is let back in only by ReadmitAfter.
		return nil, pollHint, nil
	}
	live := s.liveDonorCount()
	// Peer liveness is sampled lazily — the O(donors) scan only runs when
	// some problem actually has a requeued unit to arbitrate — and at most
	// once per request. The memoized value can be a poll interval stale;
	// the consequence is at most one deferred requeue pickup (see
	// popRequeueLocked), never a lost unit.
	othersAliveMemo := -1
	othersAlive := func() bool {
		if othersAliveMemo < 0 {
			othersAliveMemo = 0
			if s.otherDonorAlive(donor) {
				othersAliveMemo = 1
			}
		}
		return othersAliveMemo == 1
	}

	// The visit order starts from the round-robin cursor (the fairness
	// tiebreak) and is then reordered by urgency: priority descending,
	// deadline, then fewest leases first. The lease rank is the
	// work-stealing rule — a starved problem outranks a hot one, so the hot
	// problem's surplus donors drain toward it. Keys are built from
	// immutable Submit-time fields plus an atomic lease counter; no problem
	// lock is taken for problems the scan never reaches.
	start := int(s.rr.Add(1) % uint64(n))
	keys := make([]sched.DispatchKey, n)
	for i, ps := range rotation {
		keys[i] = sched.DispatchKey{Priority: ps.priority, Deadline: ps.deadline, Inflight: ps.inflightN.Load(), Trust: view.trust}
	}
	scan := sched.ScanOrder(keys, start)
	var finished []*problemState
	var contended []*problemState
	for _, idx := range scan {
		ps := rotation[idx]
		task, done, tried := s.tryDispatch(ps, donor, view, live, othersAlive, false)
		if !tried {
			contended = append(contended, ps)
			continue
		}
		if done {
			finished = append(finished, ps)
		}
		if task != nil {
			s.pruneRotation(finished)
			return task, pollHint, nil
		}
	}
	// Slow pass: everything uncontended came up empty, so waiting on the
	// busy shards is now worth it (their DataManagers may be mid-partition
	// with units to give).
	for _, ps := range contended {
		task, done, _ := s.tryDispatch(ps, donor, view, live, othersAlive, true)
		if done {
			finished = append(finished, ps)
		}
		if task != nil {
			s.pruneRotation(finished)
			return task, pollHint, nil
		}
	}
	s.pruneRotation(finished)
	return nil, pollHint, nil
}

// tryDispatch attempts to hand one of ps's units to donor under ps's own
// lock — acquired blockingly when block is set, with TryLock otherwise
// (tried is false when the shard was skipped as contended). It returns the
// dispatched task (nil when the problem has nothing for this donor) and
// whether the problem is done — finished problems are pruned from the
// rotation by the caller.
func (s *Server) tryDispatch(ps *problemState, donor string, view dispatchView, live int, othersAlive func() bool, block bool) (task *Task, done, tried bool) {
	if block {
		ps.mu.Lock()
	} else if !ps.mu.TryLock() {
		return nil, false, false
	}
	defer ps.mu.Unlock()
	if ps.done {
		return nil, true, true
	}
	// A probation donor with ProbationUnits of unresolved verification
	// backlog gets no new units — only replica service — until its
	// quorums resolve: every unit it takes must be replicated, so an
	// unbounded stream of them multiplies the problem by the quorum (and
	// hands a malicious donor free amplification).
	verifyCapped := s.verifyEnabled() && view.probation &&
		ps.verifyBacklogLocked(donor, s.opts.ProbationUnits)
	if !verifyCapped {
		if u, attempts, ok := s.popRequeueLocked(ps, donor, othersAlive); ok {
			// A probationary donor's requeued units are spot-checked like
			// its fresh ones — no unit handed to an untrusted donor may
			// fold unverified.
			if s.verifyEnabled() && view.probation {
				return s.startVerifyLocked(ps, u, donor, attempts, view), false, true
			}
			s.leaseLocked(ps, u, donor, attempts)
			return s.taskLocked(ps, u), false, true
		}
	}
	// A pending verification set wanting one more replica outranks fresh
	// work: resolving a held unit unblocks its fold.
	if t := s.replicaLocked(ps, donor, view); t != nil {
		return t, false, true
	}
	if verifyCapped {
		// Parked at the backlog cap: a resolving quorum must wake this
		// donor so it can claim fresh work again.
		ps.starved = true
		return nil, false, true
	}
	budget := s.opts.Policy.Budget(view.stats, remainingCost(ps.p.DM), live)
	budget = scaleBudgetByTrust(budget, view.trust)
	for {
		u, ok, err := ps.p.DM.NextUnit(budget)
		if err != nil {
			s.failLocked(ps, fmt.Errorf("dist: problem %q: NextUnit: %w", ps.id, err))
			return nil, true, true
		}
		if !ok {
			if ps.p.DM.Done() {
				s.finalizeLocked(ps)
				return nil, true, true
			}
			if len(ps.inflight) == 0 && len(ps.requeue) == 0 && len(ps.verify) == 0 {
				// Nothing dispatchable, nothing in flight, nothing awaiting
				// reissue or quorum, not done: no future event can unstick
				// this problem. Fail loudly rather than leaving Wait hanging.
				s.failLocked(ps, fmt.Errorf("dist: problem %q stalled: no dispatchable units, none in flight, not done", ps.id))
				return nil, true, true
			}
			// Nothing fresh, but the problem is close to done with leases
			// still out: offer this free donor a speculative copy of the
			// oldest straggler before parking it. Probationary donors are
			// never offered speculation — first-result-wins would let an
			// untrusted copy fold unverified.
			if !(s.verifyEnabled() && view.probation) {
				if t := s.speculateLocked(ps, donor); t != nil {
					return t, false, true
				}
			}
			// A dispatch scan starved on this problem: the next folded result
			// may release stage-barrier units, so it must wake parked donors.
			ps.starved = true
			return nil, false, true
		}
		if vs, hasSet := ps.verify[u.ID]; hasSet {
			// A recovered verification set whose unit the DataManager just
			// regenerated: attach the unit, and hand this donor a replica if
			// it is eligible. Otherwise keep scanning — the set's replica
			// slots are served to other donors by replicaLocked.
			if vs.unit == nil {
				vs.unit = u
			}
			if t := s.replicaForSetLocked(ps, vs, donor, view); t != nil {
				return t, false, true
			}
			continue
		}
		if s.verifyEnabled() && (view.probation || s.sampleVerifyLocked(ps)) {
			return s.startVerifyLocked(ps, u, donor, 0, view), false, true
		}
		s.leaseLocked(ps, u, donor, 0)
		return s.taskLocked(ps, u), false, true
	}
}

// taskLocked builds the dispatched Task for one of ps's units. Callers
// hold ps.mu.
//
//dist:locked mu
func (s *Server) taskLocked(ps *problemState, u *Unit) *Task {
	return &Task{ProblemID: ps.id, Unit: *u, Epoch: ps.epoch, SharedDigest: ps.sharedDigest, Priority: ps.priority}
}

// speculateLocked implements straggler speculation (ServerOptions.
// SpeculateAfter): when a problem has no fresh units but is at least the
// configured fraction complete, a free donor is handed a copy of the
// oldest outstanding lease instead of parking. The lease itself moves to
// the speculating donor — the original holder becomes the straggler, and
// whichever copy reports first is folded by submitResult's existing
// unit-ID accept rule while the other is dropped, so no unit can fold
// twice. The moved lease also redirects failure reports: the original
// donor's are dropped as stale (li.donor no longer matches), the
// speculator's requeue normally. Each lease is speculated at most once
// per time through the lease table, and a donor is never handed a copy
// of a unit it already holds. Callers hold ps.mu.
//
//dist:locked mu
func (s *Server) speculateLocked(ps *problemState, donor string) *Task {
	frac := s.opts.SpeculateAfter
	if frac <= 0 || frac > 1 {
		return nil
	}
	if len(ps.inflight) == 0 || len(ps.requeue) > 0 {
		return nil
	}
	total := ps.completed + len(ps.inflight)
	if float64(ps.completed) < frac*float64(total) {
		return nil
	}
	var pick *leaseInfo
	for _, li := range ps.inflight {
		if li.speculated || li.donor == donor {
			continue
		}
		if pick == nil || li.deadline.Before(pick.deadline) {
			pick = li
		}
	}
	if pick == nil {
		return nil
	}
	pick.donor = donor
	pick.deadline = time.Now().Add(s.opts.Lease)
	pick.speculated = true
	ps.dispatched++
	ps.speculated++
	s.publishUnitEventLocked(ps, EventUnitSpeculated, pick.unit.ID, donor)
	return s.taskLocked(ps, pick.unit)
}

// pruneRotation removes finished problems from the dispatch order. Their
// states stay addressable for Wait/Status/Stats until Forget. Pointer
// identity is checked so a forgotten-and-resubmitted ID's fresh problem is
// never pruned by a stale reference to its predecessor.
func (s *Server) pruneRotation(finished []*problemState) {
	if len(finished) == 0 {
		return
	}
	s.regMu.Lock()
	defer s.regMu.Unlock()
	for _, ps := range finished {
		if cur := s.problems[ps.id]; cur != ps {
			continue
		}
		s.removeFromOrderLocked(ps.id)
	}
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

// SubmitResult implements Coordinator: fold one completed unit and feed the
// donor's measured cost/elapsed back into its scheduling statistics.
func (s *Server) SubmitResult(ctx context.Context, res *Result) error {
	_, err := s.submitResult(ctx, res)
	return err
}

// submitResult additionally reports whether the result was accepted (false
// for stragglers whose unit already completed elsewhere or whose problem is
// done) so the network layer keeps bulk payloads a reissued copy may still
// need.
func (s *Server) submitResult(ctx context.Context, res *Result) (accepted bool, err error) {
	if err := ctxErr(ctx); err != nil {
		return false, err
	}
	if res == nil {
		return false, errors.New("dist: SubmitResult with nil result")
	}
	if s.isClosed() {
		return false, ErrClosed
	}
	ds := s.touchDonor(res.Donor)
	donorTrusted := false
	if s.verifyEnabled() {
		ds.mu.Lock()
		rejected := ds.quarantined
		donorTrusted = !ds.quarantined && ds.verifiedOK >= s.opts.ProbationUnits
		ds.mu.Unlock()
		if rejected {
			// Results from quarantined donors are rejected outright; their
			// revoked leases were already requeued with failure kind verify.
			return false, nil
		}
	}
	ps, lerr := s.lookup(res.ProblemID)
	if lerr != nil {
		return false, nil // problem finished (or was forgotten) while the unit was out
	}
	ps.mu.Lock()
	if ps.done {
		ps.mu.Unlock()
		return false, nil
	}
	if res.Epoch != 0 && res.Epoch != ps.epoch {
		// A straggler computed for a forgotten predecessor of this ID:
		// unit numbering restarts per incarnation, so the IDs can collide
		// while the payloads mean entirely different work. Drop it; the
		// current incarnation's unit stays leased and completes normally.
		ps.mu.Unlock()
		return false, nil
	}
	if vs, ok := ps.verify[res.UnitID]; ok {
		// A spot-checked unit: hold the result in its verification set and
		// fold only on quorum agreement (verify.go). Trust updates are
		// applied after the problem lock drops — donor locks are leaves and
		// a quarantine walks every problem.
		deltas, wake, held, cost := s.verifySubmitLocked(ps, vs, res, donorTrusted)
		ps.mu.Unlock()
		if wake {
			s.wakeParked()
		}
		s.applyTrustDeltas(deltas)
		if held && cost > 0 {
			s.feedThroughput(ds, cost, res.Elapsed)
		}
		return held, nil
	}
	var cost int64
	if li, ok := ps.inflight[res.UnitID]; ok {
		cost = li.unit.Cost
		delete(ps.inflight, res.UnitID)
		ps.inflightN.Add(-1)
	} else if q, ok := s.takeQueuedLocked(ps, res.UnitID); ok {
		// The donor outlived its lease but finished before the unit was
		// re-dispatched: the result is perfectly good, and accepting it
		// saves recomputing the whole unit.
		cost = q.unit.Cost
	} else {
		ps.mu.Unlock()
		return false, nil // reissued copy already completed; drop the straggler
	}
	if cerr := ps.p.DM.Consume(res.UnitID, res.Payload); cerr != nil {
		s.failLocked(ps, fmt.Errorf("dist: problem %q: Consume unit %d: %w", ps.id, res.UnitID, cerr))
		ps.mu.Unlock()
		return false, nil
	}
	if ps.durable {
		// Folds are journaled with a buffered write before the ack; the
		// group commit makes them durable within one sync interval (or
		// before this append returns, under JournalFsyncEveryRecord). A
		// crash inside that window loses at most an interval's folds,
		// which recovery regenerates and the fleet recomputes. An I/O
		// error here sticks in the store and surfaces at the next
		// checkpoint or Close; the fold itself proceeds — durability
		// degrades rather than aborting a healthy run.
		_ = s.journal.Append(&journal.Fold{ProblemID: ps.id, Epoch: ps.epoch, UnitID: res.UnitID, Payload: res.Payload})
	}
	ps.completed++
	ps.consecFails = 0
	ps.consecTransport = 0
	// Folding a result only creates dispatchable work when a dispatch scan
	// previously starved on this problem (stage-barrier DataManagers
	// release their next stage on a fold). Wake parked donors exactly
	// then — an unconditional wake would make every parked donor rescan on
	// every result a busy fleet folds.
	wake := ps.starved && !ps.done
	ps.starved = false
	s.publishUnitEventLocked(ps, EventUnitDone, res.UnitID, res.Donor)
	s.publishProgressLocked(ps)
	if ps.p.DM.Done() {
		s.finalizeLocked(ps)
		wake = false // a finished problem releases no new units
	}
	ps.mu.Unlock()
	if wake {
		s.wakeParked()
	}

	// Scheduler feedback happens outside the problem lock: stats are
	// per-donor state, not per-problem state.
	s.feedThroughput(ds, cost, res.Elapsed)
	return true, nil
}

// feedThroughput feeds one completed unit's measured cost/elapsed into the
// donor's scheduling statistics. Elapsed is floored at 1ms: a
// sub-millisecond (or bogus donor-reported) sample would otherwise make
// the EWMA throughput — and with it the next adaptive budget, which has no
// upper clamp by default — effectively infinite, serializing the whole
// problem onto one donor.
func (s *Server) feedThroughput(ds *donorState, cost int64, elapsed time.Duration) {
	sec := elapsed.Seconds()
	if sec < 1e-3 {
		sec = 1e-3
	}
	ds.mu.Lock()
	ds.stats.Completed++
	ds.stats.Throughput = sched.EWMA(ds.stats.Throughput, float64(cost)/sec, throughputAlpha)
	ds.mu.Unlock()
}

// publishUnitEventLocked emits a unit-granularity event. Callers hold
// ps.mu.
//
//dist:locked mu
func (s *Server) publishUnitEventLocked(ps *problemState, kind EventKind, unitID int64, donor string) {
	if len(ps.watchers) == 0 {
		return
	}
	s.publishLocked(ps, Event{
		Kind:      kind,
		ProblemID: ps.id,
		Epoch:     ps.epoch,
		Time:      time.Now(),
		UnitID:    unitID,
		Donor:     donor,
		Completed: ps.completed,
		Inflight:  ps.inflightLocked(),
	})
}

// publishProgressLocked emits an EventProgress with current counters.
// Callers hold ps.mu.
//
//dist:locked mu
func (s *Server) publishProgressLocked(ps *problemState) {
	if len(ps.watchers) == 0 {
		return
	}
	ev := Event{
		Kind:      EventProgress,
		ProblemID: ps.id,
		Epoch:     ps.epoch,
		Time:      time.Now(),
		Completed: ps.completed,
		Inflight:  ps.inflightLocked(),
	}
	if pr, ok := ps.p.DM.(Progresser); ok {
		ev.AppDone, ev.AppTotal = pr.Progress()
	}
	s.publishLocked(ps, ev)
}

// ReportFailure implements Coordinator: attribute the failure to the donor
// and requeue the unit for another donor. The epoch goes unchecked on this
// untagged path; in-process and RPC donors use the tagged variant.
func (s *Server) ReportFailure(ctx context.Context, donor, problemID string, unitID int64, reason string) error {
	return s.reportFailure(ctx, donor, problemID, unitID, reason, failCompute, 0)
}

// reportTaggedFailure implements taggedFailureReporter for in-process
// donors.
func (s *Server) reportTaggedFailure(ctx context.Context, donor, problemID string, unitID int64, reason string, transport bool, epoch int64) error {
	kind := failCompute
	if transport {
		kind = failTransport
	}
	return s.reportFailure(ctx, donor, problemID, unitID, reason, kind, epoch)
}

// reportFailure requeues a failed unit. kind is failTransport for failures
// to *fetch* the payload: those say nothing about the unit itself and must
// not feed the poisoned-unit caps — half a fleet with a firewalled bulk
// port would otherwise fail the whole problem while healthy donors remain.
// A non-zero epoch that does not match the problem's incarnation marks a
// straggler report from a forgotten predecessor of a reused ID: dropped,
// like its submitResult counterpart, so it cannot revoke a live lease of
// the successor when donor names collide.
//
// The donor's reputation (its Failures count, and lastSeen liveness) is
// only touched AFTER the report validates against a live lease held by
// this donor under the current epoch: a report for a never-leased unit, a
// stale epoch, or someone else's lease says nothing about this donor and
// must not move its stats.
func (s *Server) reportFailure(ctx context.Context, donor, problemID string, unitID int64, reason string, kind failureKind, epoch int64) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if s.isClosed() {
		return ErrClosed
	}
	if s.verifyEnabled() {
		if ds := s.peekDonor(donor); ds != nil {
			ds.mu.Lock()
			rejected := ds.quarantined
			ds.mu.Unlock()
			if rejected {
				return nil // quarantined donors' reports are rejected like their results
			}
		}
	}
	ps, lerr := s.lookup(problemID)
	if lerr != nil {
		return nil // problem finished or forgotten; nothing to requeue
	}
	var deltas []trustDelta
	ps.mu.Lock()
	if ps.done {
		ps.mu.Unlock()
		return nil
	}
	if epoch != 0 && epoch != ps.epoch {
		ps.mu.Unlock()
		return nil
	}
	if vs, ok := ps.verify[unitID]; ok {
		if _, held := vs.leases[donor]; !held {
			ps.mu.Unlock()
			return nil // no replica lease: a straggler or an impostor
		}
		deltas = s.verifyFailureLocked(ps, vs, donor, reason, kind)
		ps.mu.Unlock()
	} else {
		li, ok := ps.inflight[unitID]
		if !ok {
			ps.mu.Unlock()
			return nil
		}
		if li.donor != donor {
			// Stale report: the unit's lease already expired and the unit was
			// re-dispatched to someone else. Results from stragglers are
			// accepted; their failure reports must not revoke the new lease.
			ps.mu.Unlock()
			return nil
		}
		s.requeueLocked(ps, li, reason, kind)
		ps.mu.Unlock()
	}
	// The requeued unit (or reopened replica slot) is dispatchable again,
	// to a different donor by preference: wake parked WaitTask callers.
	s.wakeParked()
	s.applyTrustDeltas(deltas)
	ds := s.touchDonor(donor)
	ds.mu.Lock()
	ds.stats.Failures++
	ds.mu.Unlock()
	return nil
}

// failureKind classifies why an in-flight unit came back, because each
// class gets a different bound: compute failures feed the tight
// poisoned-unit caps; transport failures (payload unfetchable) feed only a
// very loose cap that catches a bulk channel no donor can reach; lease
// expiries feed no cap at all — a healthy unit that merely takes many
// lease periods, or a mass outage expiring every lease in one sweep, must
// reissue, not fail the problem. Verify failures (a quarantined donor's
// revoked leases) are uncapped like expiries: they blame the donor, not
// the unit.
type failureKind int

const (
	failCompute failureKind = iota
	failTransport
	failExpiry
	failVerify
)

// requeueLocked returns a lost or failed in-flight unit to the dispatch
// pool: Requeuer DataManagers regenerate it, others get the cached payload
// re-dispatched (preferring a different donor). Callers hold ps.mu.
//
//dist:locked mu
func (s *Server) requeueLocked(ps *problemState, li *leaseInfo, reason string, kind failureKind) {
	if ps.done {
		return
	}
	delete(ps.inflight, li.unit.ID)
	ps.inflightN.Add(-1)
	ps.reissued++
	switch kind {
	case failCompute:
		ps.consecFails++
		attempts := li.attempts + 1
		if attempts >= maxUnitAttempts {
			s.failLocked(ps, fmt.Errorf("dist: problem %q: unit %d failed %d times, last: %s",
				ps.id, li.unit.ID, attempts, reason))
			return
		}
		li.attempts = attempts
		if ps.consecFails >= maxConsecutiveFailures {
			s.failLocked(ps, fmt.Errorf("dist: problem %q: %d consecutive failures without a completed unit, last: %s",
				ps.id, ps.consecFails, reason))
			return
		}
	case failTransport:
		ps.consecTransport++
		if ps.consecTransport >= maxConsecutiveTransport {
			s.failLocked(ps, fmt.Errorf("dist: problem %q: %d consecutive transport failures without a completed unit (bulk channel unreachable from every donor?), last: %s",
				ps.id, ps.consecTransport, reason))
			return
		}
	}
	if rq, ok := ps.p.DM.(Requeuer); ok {
		rq.Requeue(li.unit.ID)
		if s.onUnitRetired != nil {
			s.onUnitRetired(ps.id, ps.epoch, li.unit.ID)
		}
		return
	}
	ps.requeue = append(ps.requeue, queuedUnit{unit: li.unit, lastDonor: li.donor, attempts: li.attempts})
}

// takeQueuedLocked removes and returns the queued unit with the given ID,
// if the unit is awaiting reissue (its lease expired but it has not been
// handed out again). Callers hold ps.mu.
//
//dist:locked mu
func (s *Server) takeQueuedLocked(ps *problemState, unitID int64) (queuedUnit, bool) {
	for i, q := range ps.requeue {
		if q.unit.ID == unitID {
			ps.requeue = append(ps.requeue[:i], ps.requeue[i+1:]...)
			return q, true
		}
	}
	return queuedUnit{}, false
}

// popRequeueLocked takes a queued unit for the donor, preferring units last
// held by a different donor so a unit one machine cannot compute migrates.
// The preference only holds while some *other* donor is actually alive — a
// donor that has not polled for a full lease is presumed gone, and waiting
// for it would starve the unit forever. othersAlive is memoized per
// request by the caller; a stale value defers the pickup by at most one
// poll interval. Evaluating it here acquires donor locks under ps.mu,
// which the lock order permits: donor locks are leaves — no code path
// takes a registry or problem lock while holding one. Callers hold ps.mu.
//
//dist:locked mu
func (s *Server) popRequeueLocked(ps *problemState, donor string, othersAlive func() bool) (*Unit, int, bool) {
	pick := -1
	for i, q := range ps.requeue {
		if q.lastDonor != donor {
			pick = i
			break
		}
	}
	if pick < 0 {
		if len(ps.requeue) == 0 || othersAlive() {
			return nil, 0, false // let another donor claim it
		}
		pick = 0 // no other live donor: better to retry than to stall
	}
	q := ps.requeue[pick]
	ps.requeue = append(ps.requeue[:pick], ps.requeue[pick+1:]...)
	return q.unit, q.attempts, true
}

// otherDonorAlive reports whether any donor other than name has polled
// within the last lease interval.
func (s *Server) otherDonorAlive(name string) bool {
	cutoff := time.Now().Add(-s.opts.Lease)
	s.donorMu.RLock()
	defer s.donorMu.RUnlock()
	for n, ds := range s.donors {
		if n == name {
			continue
		}
		ds.mu.Lock()
		alive := ds.lastSeen.After(cutoff)
		ds.mu.Unlock()
		if alive {
			return true
		}
	}
	return false
}

// liveDonorCount counts donors seen within the last lease interval — the
// pool size scheduling policies divide remaining work by. Counting every
// donor ever seen would permanently shrink GSS/factoring unit sizes after
// churn. Never returns less than 1 (the caller itself just polled).
func (s *Server) liveDonorCount() int {
	cutoff := time.Now().Add(-s.opts.Lease)
	n := 0
	s.donorMu.RLock()
	for _, ds := range s.donors {
		ds.mu.Lock()
		if ds.lastSeen.After(cutoff) {
			n++
		}
		ds.mu.Unlock()
	}
	s.donorMu.RUnlock()
	if n < 1 {
		n = 1
	}
	return n
}

// leaseLocked records a dispatched unit. Callers hold ps.mu.
//
//dist:locked mu
func (s *Server) leaseLocked(ps *problemState, u *Unit, donor string, attempts int) {
	ps.inflight[u.ID] = &leaseInfo{
		unit:     u,
		donor:    donor,
		deadline: time.Now().Add(s.opts.Lease),
		attempts: attempts,
	}
	ps.inflightN.Add(1)
	ps.dispatched++
	s.publishUnitEventLocked(ps, EventUnitDispatched, u.ID, donor)
}

// touchDonor returns the donor's state, creating it on first contact, and
// stamps its last-seen time.
func (s *Server) touchDonor(name string) *donorState {
	now := time.Now()
	s.donorMu.RLock()
	ds, ok := s.donors[name]
	s.donorMu.RUnlock()
	if !ok {
		s.donorMu.Lock()
		ds, ok = s.donors[name]
		if !ok {
			ds = &donorState{trust: sched.TrustNeutral}
			s.donors[name] = ds
		}
		s.donorMu.Unlock()
	}
	ds.mu.Lock()
	ds.lastSeen = now
	ds.mu.Unlock()
	return ds
}

// peekDonor returns the donor's state without creating it or stamping its
// last-seen time — for checks that must not count as donor activity.
func (s *Server) peekDonor(name string) *donorState {
	s.donorMu.RLock()
	defer s.donorMu.RUnlock()
	return s.donors[name]
}

// bumpFailures charges one failure to a donor's scheduling statistics, if
// the donor is still tracked.
func (s *Server) bumpFailures(name string) {
	s.donorMu.RLock()
	ds, ok := s.donors[name]
	s.donorMu.RUnlock()
	if !ok {
		return
	}
	ds.mu.Lock()
	ds.stats.Failures++
	ds.mu.Unlock()
}

func remainingCost(dm DataManager) int64 {
	if cr, ok := dm.(CostReporter); ok {
		return cr.RemainingCost()
	}
	return 0
}

// CancelNotices implements CancelNotifier: drain and return the donor's
// pending epoch-tagged cancel notices. Donors poll this while computing a
// unit and abort when a notice matches the unit's problem incarnation.
func (s *Server) CancelNotices(ctx context.Context, donor string) ([]CancelNotice, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if s.isClosed() {
		return nil, ErrClosed
	}
	s.cancelMu.Lock()
	notices := s.cancels[donor]
	if notices != nil {
		delete(s.cancels, donor)
	}
	s.cancelMu.Unlock()
	return notices, nil
}

// queueCancels records a cancel notice for every donor holding one of ps's
// in-flight leases — called when the problem ends (finalized early, failed,
// forgotten, closed) with units still out, all compute on which is now
// wasted. Callers hold ps.mu; cancelMu is a leaf below it.
//
//dist:locked mu
func (s *Server) queueCancels(ps *problemState) {
	if len(ps.inflight) == 0 && len(ps.verify) == 0 {
		return
	}
	s.cancelMu.Lock()
	defer s.cancelMu.Unlock()
	for _, li := range ps.inflight {
		s.queueOneCancelLocked(ps, li.donor, li.unit.ID)
	}
	for _, vs := range ps.verify {
		for donor := range vs.leases {
			s.queueOneCancelLocked(ps, donor, vs.uid)
		}
	}
}

// queueOneCancelLocked appends one cancel notice to a donor's bounded
// queue. Callers hold ps.mu and cancelMu.
//
//dist:locked mu
//dist:locked cancelMu
func (s *Server) queueOneCancelLocked(ps *problemState, donor string, unitID int64) {
	q := append(s.cancels[donor], CancelNotice{
		ProblemID: ps.id,
		Epoch:     ps.epoch,
		UnitID:    unitID,
	})
	if len(q) > maxPendingCancels {
		q = q[len(q)-maxPendingCancels:]
	}
	s.cancels[donor] = q
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

// releaseLocked drops a finished problem's queued and leased unit payloads
// and the shared blob: a problem that finalized early (Done with units
// still out) must not pin them for the server's lifetime, and Status should
// not report in-flight work for a done problem. Donors still computing one
// of the leased units get a cancel notice so they abort instead of
// finishing work whose result would be dropped. (A donor fetching shared
// data for a finished problem gets nil, fails Init, and the failure report
// is ignored — the problem is done.) The network layer's cleanup hook and
// the terminal Watch event fire here too, under the problem lock. Callers
// hold ps.mu; ps.done is already true.
//
//dist:locked mu
func (s *Server) releaseLocked(ps *problemState) {
	s.queueCancels(ps)
	s.publishLocked(ps, s.terminalEventLocked(ps))
	ps.requeue = nil
	ps.inflightN.Add(-int64(len(ps.inflight)))
	ps.inflight = nil
	for _, vs := range ps.verify {
		ps.inflightN.Add(-int64(len(vs.leases)))
	}
	ps.verify = nil
	ps.shared = nil // the server's reference only; the caller's Problem is untouched
	if s.onProblemDone != nil {
		s.onProblemDone(ps.id)
	}
}

// expiryLoop periodically reissues units whose lease has lapsed — the
// fault-tolerance path that lets the run survive donors being powered off.
func (s *Server) expiryLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.opts.ExpiryScan)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.expireLeases(time.Now())
		}
	}
}

// expireLeases requeues every in-flight unit whose lease deadline passed
// and prunes donors gone long enough that their scheduling statistics are
// worthless, so the donor map stays bounded on a long-lived server.
func (s *Server) expireLeases(now time.Time) {
	if s.isClosed() {
		return
	}
	donorCutoff := now.Add(-10 * s.opts.Lease)
	s.donorMu.Lock()
	var pruned []string
	for name, ds := range s.donors {
		ds.mu.Lock()
		gone := ds.lastSeen.Before(donorCutoff)
		wasTrusted := gone && s.verifyEnabled() && !ds.quarantined && ds.verifiedOK >= s.opts.ProbationUnits
		ds.mu.Unlock()
		if gone {
			delete(s.donors, name)
			pruned = append(pruned, name)
			if wasTrusted {
				// The trusted count must track live donors only, or a fleet
				// that fully churned could leave quorums forever demanding a
				// trusted participant that no longer exists.
				s.trusted.Add(-1)
			}
		}
	}
	s.donorMu.Unlock()
	if len(pruned) > 0 {
		// A pruned donor will never drain its cancel queue; drop it.
		s.cancelMu.Lock()
		for _, name := range pruned {
			delete(s.cancels, name)
		}
		s.cancelMu.Unlock()
	}

	s.regMu.RLock()
	states := make([]*problemState, 0, len(s.problems))
	for _, ps := range s.problems {
		states = append(states, ps)
	}
	s.regMu.RUnlock()

	requeued := false
	for _, ps := range states {
		var blamed []string
		var deltas []trustDelta
		ps.mu.Lock()
		if ps.done {
			ps.mu.Unlock()
			continue
		}
		for _, li := range ps.inflight {
			if ps.done {
				break // requeueLocked failed the problem mid-sweep
			}
			if now.After(li.deadline) {
				blamed = append(blamed, li.donor)
				s.requeueLocked(ps, li, "lease expired", failExpiry)
				requeued = true
			}
		}
		// Expired replica leases reopen their verification slots; the
		// timeout is a quorum outcome that drags the donor's trust down
		// (gently — an outage is not a wrong answer).
		for _, vs := range ps.verify {
			if ps.done {
				break
			}
			dropped := false
			for donor, l := range vs.leases {
				if now.After(l.deadline) {
					delete(vs.leases, donor)
					ps.inflightN.Add(-1)
					ps.reissued++
					blamed = append(blamed, donor)
					deltas = append(deltas, trustDelta{donor: donor, outcome: outcomeTimeout})
					dropped = true
					requeued = true
				}
			}
			if dropped && !ps.done {
				// No new result, so this cannot fold — but it can expose a
				// set that exhausted every allowed donor without quorum.
				d2, _ := s.resolveVerifyLocked(ps, vs)
				deltas = append(deltas, d2...)
			}
		}
		ps.mu.Unlock()
		// Donor stats are charged outside the problem lock (lock order:
		// problem locks never nest around donor state).
		for _, name := range blamed {
			s.bumpFailures(name)
		}
		s.applyTrustDeltas(deltas)
	}
	if requeued {
		// Expired leases put units back in play; one wake after the sweep
		// lets parked WaitTask callers claim them all.
		s.wakeParked()
	}
}
