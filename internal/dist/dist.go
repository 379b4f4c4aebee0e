package dist // package documentation lives in doc.go

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Problem bundles the server-side half of a computation with the shared
// blob donors fetch once before processing any of its units.
type Problem struct {
	// ID names the problem; it must be unique within a server.
	ID string
	// DM partitions the work and folds results. Use AdaptDM (or
	// NewTypedProblem) to derive one from a TypedDM.
	DM DataManager
	// SharedData is sent to each donor once per problem (the paper's "data
	// files over ordinary sockets"); may be nil.
	SharedData []byte
	// Priority orders this problem in the dispatch scan: higher-priority
	// problems are offered free donors first. Zero is the default tier;
	// negative values yield to everything else. Immutable after Submit.
	Priority int
	// Deadline is an optional completion target used to break priority
	// ties in the dispatch scan (earlier deadlines first; the zero time
	// means none). Advisory only — the server never fails a problem for
	// missing it. Immutable after Submit.
	Deadline time.Time
}

// DataManager is the byte-level server-side extension point: it hands out
// work units sized to a cost budget and folds completed results. Most
// applications implement the typed TypedDM instead and wrap it with
// AdaptDM, which owns the gob codec.
//
// The server calls all methods under the owning problem's lock, so
// implementations need no internal synchronisation; different problems'
// DataManagers run concurrently with each other.
type DataManager interface {
	// NextUnit returns the next work unit, sized to approximately the given
	// cost budget. ok is false when no unit is currently available — either
	// because the problem is complete or because outstanding units must be
	// consumed first (a stage barrier).
	NextUnit(budget int64) (u *Unit, ok bool, err error)
	// Consume folds one completed unit's result payload.
	Consume(unitID int64, payload []byte) error
	// Done reports whether the final result is ready. It may become true
	// while units are still in flight (e.g. a search that found its target);
	// the server then finalises immediately and discards late results.
	Done() bool
	// FinalResult returns the completed problem's output.
	FinalResult() ([]byte, error)
}

// CostReporter is optionally implemented by DataManagers that can estimate
// their outstanding work; policies like GSS and factoring use it.
type CostReporter interface {
	RemainingCost() int64
}

// Progresser is optionally implemented by DataManagers that can report
// application-level progress for status displays and Watch events.
type Progresser interface {
	Progress() (done, total int)
}

// Requeuer is optionally implemented by DataManagers that prefer to
// regenerate lost units themselves. When a unit fails or its lease expires
// the server calls Requeue instead of re-dispatching its cached payload.
type Requeuer interface {
	Requeue(unitID int64)
}

// ResultEquivaler is optionally implemented by DataManagers whose results
// are not byte-deterministic (floating-point reductions, unordered
// collections): quorum verification (ServerOptions.VerifyFraction) then
// groups replica results by EquivalentResults instead of byte equality.
// Like every DataManager method it is called under the owning problem's
// lock; it must be reflexive, symmetric and transitive over the payloads
// one unit can produce.
type ResultEquivaler interface {
	EquivalentResults(unitID int64, a, b []byte) bool
}

// Algorithm is the donor-side extension point: the computation for one kind
// of work unit. A fresh instance is created per problem on each donor (via
// the factory registered under the unit's algorithm name) and initialised
// once with the problem's shared data.
//
// ProcessCtx must honour ctx cancellation promptly: the context is
// cancelled when the server forgets the problem mid-unit (the work's result
// would be discarded) and when the donor is shut down. Most applications
// implement the typed TypedAlgorithm instead and register it with
// RegisterTypedAlgorithm.
type Algorithm interface {
	Init(shared []byte) error
	ProcessCtx(ctx context.Context, payload []byte) ([]byte, error)
}

// Unit is one dispatched piece of work.
type Unit struct {
	// ID is unique within the problem.
	ID int64
	// Algorithm names the registered donor-side computation.
	Algorithm string
	// Payload is the unit's input, typically produced by a typed adapter.
	Payload []byte
	// Cost is the unit's size in the problem's cost units (residues for
	// DSEARCH, candidate topologies for DPRml); the scheduler divides it by
	// elapsed time to measure donor throughput.
	Cost int64
}

// Result is a completed unit's output as carried back to the server.
type Result struct {
	ProblemID string
	UnitID    int64
	Payload   []byte
	// Elapsed is the donor-measured compute time, fed into the scheduler's
	// throughput estimate.
	Elapsed time.Duration
	// Donor names the worker that computed the unit.
	Donor string
	// Epoch echoes the Task's incarnation tag so the server can drop a
	// straggler computed for a forgotten problem whose ID was reused.
	// *Server stamps every task with an epoch of at least 1; a zero
	// epoch, which no task carries, is accepted unchecked.
	Epoch int64
}

// Task is one unit of work handed to a specific donor.
type Task struct {
	ProblemID string
	Unit      Unit
	// Epoch identifies the incarnation of the problem that issued this
	// task: Forget frees a problem ID for reuse, and without the tag a
	// straggler result from the old incarnation could collide with an
	// identically numbered unit of its successor and be silently folded
	// into the wrong problem. Donors echo it in Result.Epoch.
	Epoch int64
	// SharedDigest is the content address (wire.Digest) of the problem's
	// shared blob. Donors key their blob cache by it — N problems sharing
	// one alignment cost one fetch — and verify every fetched blob against
	// it before use. *Server always sets it; a task without one fails that
	// verification like any mismatch and is never computed.
	SharedDigest string
	// Priority echoes the owning problem's Submit-time priority so a donor
	// holding a batch can compute urgent units first.
	Priority int
	// Verify marks this task as one replica of a spot-checked unit: the
	// server holds its result out of the fold until a quorum of replicas
	// agrees (ServerOptions.VerifyFraction). Advisory on the donor side —
	// the computation is identical — but surfaced for logs and metering.
	Verify bool
}

// CancelNotice tells a donor that a unit it holds is dead: its problem
// incarnation was forgotten, failed, or finished early, so any in-flight
// compute for it is wasted. The donor cancels the matching unit's
// ProcessCtx context. Epoch-tagged for the same reason Task.Epoch exists —
// a notice for a forgotten incarnation must never abort a unit of a
// resubmitted successor under the same ID.
type CancelNotice struct {
	ProblemID string
	Epoch     int64
	UnitID    int64
}

// Coordinator is the one contract a donor needs of a server: the
// in-process *Server and the networked *RPCClient both implement all of
// it. A donor parks in WaitTasks, fetches shared blobs by content digest,
// polls cancel notices while a unit computes, and reports each unit's
// result or failure. Every call is context-bound; cancelling the context
// abandons the call (the RPC may still complete server-side).
type Coordinator interface {
	TaskBatchWaiter
	ContentFetcher
	CancelNotifier
	// SubmitResult returns a completed unit's output.
	SubmitResult(ctx context.Context, res *Result) error
	// ReportFailure tells the server a unit could not be computed so it can
	// be requeued to another donor.
	ReportFailure(ctx context.Context, donor, problemID string, unitID int64, reason string) error
}

// CancelNotifier delivers epoch-tagged cancel notices for in-flight units.
// The donor polls it while a unit is computing and aborts the unit a
// notice names.
type CancelNotifier interface {
	// CancelNotices drains and returns the pending notices for the donor.
	CancelNotices(ctx context.Context, donor string) ([]CancelNotice, error)
}

// ContentFetcher fetches a shared blob by its content digest
// (Task.SharedDigest). *Server resolves the digest against its live
// problems, *RPCClient fetches the digest's bulk key; problemID rides along
// for implementations that index by problem. A digest no live problem
// carries is an error. Donors verify every fetched blob against the digest
// before use.
type ContentFetcher interface {
	FetchContent(ctx context.Context, problemID, digest string) ([]byte, error)
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]func() Algorithm)
)

// RegisterAlgorithm adds a named Algorithm factory to the donor-side
// registry — the Go substitute for Java's runtime class shipping: every
// algorithm a donor can run is compiled into its binary and selected by
// name. Registering the same name twice panics.
func RegisterAlgorithm(name string, f func() Algorithm) {
	if name == "" {
		panic("dist: RegisterAlgorithm with empty name")
	}
	if f == nil {
		panic("dist: RegisterAlgorithm with nil factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("dist: algorithm %q registered twice", name))
	}
	registry[name] = f
}

// RegisteredAlgorithms lists the registry's algorithm names, sorted.
func RegisteredAlgorithms() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// newAlgorithm instantiates a registered algorithm.
func newAlgorithm(name string) (Algorithm, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dist: algorithm %q not registered (have %v)", name, RegisteredAlgorithms())
	}
	return f(), nil
}
