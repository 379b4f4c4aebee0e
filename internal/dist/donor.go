package dist

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// DonorOptions tunes one donor worker. Construct donors with functional
// options (WithName, WithThrottle, ...); the struct is the bag they mutate
// and can be adopted wholesale with WithDonorOptions.
type DonorOptions struct {
	// Name identifies the donor in server statistics and logs.
	Name string
	// Throttle pauses between units so the donor stays a polite background
	// service on a machine someone else is using. Over the network a
	// batch's results land with the donor's next park (see
	// RPCClient.SubmitResult), so the pauses after a batch's units delay
	// its results as well.
	Throttle time.Duration
	// Logf, when non-nil, receives progress and failure messages.
	Logf func(format string, args ...any)
	// Redial, when non-nil, re-establishes the coordinator connection
	// after the server becomes unreachable (ErrServerGone): Run closes the
	// old coordinator and retries Redial with capped exponential backoff
	// until it succeeds or Stop is called. Without Redial the donor exits
	// cleanly when the server vanishes — the pre-reconnect behaviour,
	// still right for RunLocal-style in-process pools. An explicit server
	// Close (ErrClosed) always ends the loop; only lost connections are
	// retried.
	Redial func() (Coordinator, error)
	// RedialMax caps the exponential backoff between redial attempts,
	// which starts at 250ms (redialMin), or at RedialMax when that is
	// smaller. Zero defaults to 30s.
	RedialMax time.Duration
	// CancelPoll is how often the donor's one cancel poller asks the
	// coordinator for cancel notices. It asks only while a unit is
	// computing — an idle donor makes no such call — and a notice naming
	// that exact unit aborts its ProcessCtx instead of letting it finish
	// doomed work. Zero defaults to 500ms; negative disables the poll (a
	// doomed unit then runs to the end and the server drops its result).
	CancelPoll time.Duration
	// BlobCache, when non-nil, is the shared-blob cache this donor uses —
	// set the same instance on several in-process donors to share it, so a
	// blob every worker needs is fetched once per process. Nil gives the
	// donor a private 256 MiB cache. The cache's budget also derives how
	// many problems' algorithm state stays resident (problemCacheCap).
	BlobCache *BlobCache
	// WrapAlgorithm, when non-nil, interposes on every algorithm instance
	// the donor creates: it receives the registered name and the fresh
	// instance and returns the Algorithm actually run. The swarm harness
	// throttles simulated slow machines through it; metering and fault
	// injection fit the same seam. Returning the argument unchanged is
	// allowed; returning nil is not.
	WrapAlgorithm func(name string, a Algorithm) Algorithm
}

func (o *DonorOptions) applyDefaults() {
	if o.Name == "" {
		o.Name = "donor"
	}
	if o.RedialMax <= 0 {
		o.RedialMax = 30 * time.Second
	}
	if o.CancelPoll == 0 {
		o.CancelPoll = 500 * time.Millisecond
	}
	if o.BlobCache == nil {
		o.BlobCache = NewBlobCache(defaultBlobCacheBytes)
	}
}

// redialMin is the first back-off between redial attempts.
const redialMin = 250 * time.Millisecond

// redialFloor is where the redial back-off starts: redialMin, or RedialMax
// when that cap is smaller — "-retry 100ms" must mean backoff ≤ 100ms, not
// a silent raise to the floor.
func (o *DonorOptions) redialFloor() time.Duration {
	return min(redialMin, o.RedialMax)
}

// defaultBlobCacheBytes is the default shared-blob cache budget.
const defaultBlobCacheBytes = 256 << 20

// problemBytesQuantum is the slice of blob-cache budget one resident
// problem's algorithm state is assumed to accompany; minCachedProblems
// floors the derived bound so even a tiny budget keeps the problem being
// computed (plus one being switched to) resident.
const (
	problemBytesQuantum = 32 << 20
	minCachedProblems   = 2
)

// problemCacheCap derives how many problems' shared data and algorithm
// state a donor keeps resident from its blob cache's budget — one problem
// per problemBytesQuantum, floored. At the 256 MiB default this reproduces
// the pre-budget hardcoded bound of 8.
func (o *DonorOptions) problemCacheCap() int {
	return max(int(o.BlobCache.budget/problemBytesQuantum), minCachedProblems)
}

// pollJitterDiv spreads the cancel poller's period and every redial
// back-off uniformly ±1/5 (20%), so hundreds of donors started, or cut
// off, together do not call the server in lockstep forever after.
const pollJitterDiv = 5

// jitter returns d perturbed uniformly within ±d/pollJitterDiv.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	spread := d / pollJitterDiv
	return d - spread + rand.N(2*spread+1)
}

// Donor is one worker's compute loop: park on the coordinator for units, run
// the registered algorithm, return results, and report failures so lost
// units are requeued. The paper ran one of these as a low-priority
// background service on ~200 lab PCs.
type Donor struct {
	coord Coordinator
	opts  DonorOptions

	// halted ends when Stop calls halt. Run's context ends with it, on the
	// goroutine context.AfterFunc starts, which carries a Stop into the
	// calls in flight (a park, a ProcessCtx); the loop reads halted itself
	// (ended), so nothing starts or is submitted once Stop has returned.
	halted  context.Context
	halt    context.CancelFunc
	units   atomic.Int64
	aborted atomic.Int64

	// problems is the per-problem state kept between units, in first-use
	// order problemOrder. It stays bounded (problemCacheCap): a donor is a
	// long-lived service and the server cycles through many problems over
	// its lifetime, so the oldest is evicted first (a still-active problem
	// is simply re-initialised). The shared bytes themselves live in
	// opts.BlobCache, keyed by content digest.
	problems     map[string]*residentProblem
	problemOrder []string

	// pollMu guards what Run shares with its cancel poller.
	pollMu sync.Mutex
	// computing is the unit inside the compute stage (the zero value
	// between units); the poller calls CancelNotices only while it is set.
	//dist:guardedby pollMu
	computing watchedUnit
	// noticed holds the cancel notices drained since the last park, one
	// per unit: a queued batch unit found here is dropped before compute.
	// Cleared at every park — a notice only matters for units in hand.
	//dist:guardedby pollMu
	noticed map[CancelNotice]struct{}
}

// residentProblem is one problem's cached state: the incarnation its shared
// data was fetched under, and its initialised algorithm instances by name.
// A forgotten ID may be resubmitted with different shared data, and serving
// the successor from the predecessor's instances would silently corrupt
// results (the epoch on the result would be correct, so the server could
// not catch it), so a task of another epoch evicts and refetches.
type residentProblem struct {
	epoch int64
	algs  map[string]Algorithm
}

// watchedUnit is what the cancel poller needs of the computing unit: its
// exact key, the coordinator that leased it (captured here because
// reconnect swaps d.coord; nil between units) and the cancel of its
// compute ctx.
type watchedUnit struct {
	key      CancelNotice
	notifier CancelNotifier
	cancel   context.CancelFunc
}

// NewDonor creates a donor bound to a coordinator — a *Server for
// in-process workers or an *RPCClient from Dial for the real deployment.
// Configure WithRedial to make the donor a resilient background service
// that reconnects when the server bounces instead of exiting.
func NewDonor(coord Coordinator, opts ...DonorOption) *Donor {
	var o DonorOptions
	for _, opt := range opts {
		opt(&o)
	}
	o.applyDefaults()
	halted, halt := context.WithCancel(context.Background()) //dist:allow-background the donor owns its stop signal
	return &Donor{
		coord:    coord,
		opts:     o,
		halted:   halted,
		halt:     halt,
		problems: make(map[string]*residentProblem),
		noticed:  make(map[CancelNotice]struct{}),
	}
}

// Units reports how many work units this donor has completed: results it
// handed to the coordinator. An RPCClient queues a result for the next
// request, so a counted unit's result may not have reached the server yet.
func (d *Donor) Units() int { return int(d.units.Load()) }

// Aborted reports how many in-flight units this donor abandoned on a
// server cancel notice (the problem was forgotten or finished early).
func (d *Donor) Aborted() int { return int(d.aborted.Load()) }

// Stop ends Run (idempotent): once it returns no later unit starts, and
// the unit in progress is aborted — its ProcessCtx context is cancelled
// and nothing is submitted for it — and its lease expires server-side and
// reissues. A Run started after Stop returns at once.
func (d *Donor) Stop() { d.halt() }

// ended is why Run must stop — its ctx ended, or Stop was called — or nil.
// It reads halted as well as ctx because Stop reaches ctx only through
// context.AfterFunc's goroutine, which may not have run yet.
func (d *Donor) ended(ctx context.Context) error {
	return cmp.Or(ctx.Err(), d.halted.Err())
}

// Run fetches and computes work until ctx is cancelled, Stop is called, or
// the server tells the donor it is shutting down (ErrClosed). It is one
// loop over three stages — park (one dispatch call), compute (one unit),
// report (submit the result, or the failure) — and one switch that maps
// every coordinator error to continue, back off, reconnect (dropping the
// batch tail) or exit.
//
// The donor parks in WaitTasks and is woken the moment work appears; the
// server decides how long the park lasts and how many units it returns
// (several when the donor's measured unit time makes batching worthwhile),
// and the loop drains them before parking again. A unit that fails to
// compute is reported (and thereby requeued to another donor); a unit a
// server cancel notice names is aborted, or dropped unstarted if still
// queued, and nothing is submitted for it. When the server merely becomes
// unreachable (ErrServerGone — a crash, a restart, a partition) and Redial
// is configured, Run reconnects with capped exponential backoff and keeps
// going; without Redial it exits cleanly.
func (d *Donor) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background() //dist:allow-background nil-ctx normalisation in a public entry point
	}
	// One context carries both stop signals: the caller's ctx and Stop().
	runCtx, cancel := context.WithCancel(ctx)
	defer context.AfterFunc(d.halted, cancel)()
	var poller sync.WaitGroup
	defer poller.Wait()
	defer cancel()
	if d.opts.CancelPoll > 0 {
		poller.Add(1)
		go func() {
			defer poller.Done()
			d.pollCancels(runCtx)
		}()
	}

	// pending holds the not-yet-computed tail of the last dispatch batch.
	// It is drained before the donor re-parks, and dropped on reconnect:
	// the old server's leases died with it, and a restarted server may
	// carry different work under the same unit IDs.
	var pending []*Task
	for d.ended(runCtx) == nil {
		var wait time.Duration // back-off before the next stage
		var err error
		if len(pending) == 0 {
			pending, wait, err = d.park(runCtx)
		} else {
			t := pending[0]
			pending = pending[1:]
			res, kind, cerr := d.compute(runCtx, t)
			wait, err = d.report(runCtx, t, res, kind, cerr)
		}
		switch {
		case err == nil:
			if wait > 0 && !d.sleep(runCtx, wait) {
				return nil
			}
		case d.ended(runCtx) != nil || errors.Is(err, ErrClosed):
			return nil
		case errors.Is(err, ErrServerGone):
			// Whatever died with the connection — a park, a result, a
			// failure report — is never replayed: the reconnected server
			// may be another instance whose unit IDs mean different work.
			// The old leases, the batch tail's included, expire and reissue.
			d.logf("donor %s: server connection lost (%d queued units dropped): %v", d.opts.Name, len(pending), err)
			pending = nil
			if d.opts.Redial == nil || !d.reconnect(runCtx) {
				return nil
			}
		default:
			return err
		}
	}
	return nil
}

// park is the dispatch stage: one WaitTasks long-poll, its park time and
// batch size left to the coordinator. It returns the delivered units in run
// order, or how long to back off before parking again: nothing after a
// park that expired (the server did the waiting), and the 1ms floor after
// an empty "park" that came back too fast to have parked (a buggy or
// hostile server could otherwise spin the loop hot).
func (d *Donor) park(ctx context.Context) ([]*Task, time.Duration, error) {
	d.pollMu.Lock()
	clear(d.noticed)
	d.pollMu.Unlock()
	start := d.now()
	tasks, _, err := d.coord.WaitTasks(ctx, d.opts.Name, 0, 0)
	switch {
	case err != nil:
		return nil, 0, err
	case len(tasks) > 0:
		// Within one batch, urgent units run first: tasks echo their
		// problem's Submit-time priority, and the stable sort keeps the
		// server's dispatch order among equals.
		slices.SortStableFunc(tasks, func(a, b *Task) int { return cmp.Compare(b.Priority, a.Priority) })
		return tasks, 0, nil
	case d.now().Sub(start) < 5*time.Millisecond:
		return nil, time.Millisecond, nil
	}
	return nil, 0, nil
}

// errUnitCancelled is compute's verdict on a unit a cancel notice named.
var errUnitCancelled = errors.New("dist: unit cancelled by server")

// compute is the compute stage: run one unit, lazily creating and
// initialising the algorithm instance for (problem, algorithm name). From
// start to end the unit is the one the cancel poller watches: a notice
// naming it cancels its ctx, and a unit named while still queued is never
// started — either way the verdict is errUnitCancelled. A failure's kind is
// failTransport when the shared data could not be fetched and failCompute
// otherwise, a panicking Algorithm included: it must not kill the loop.
// Elapsed covers only ProcessCtx — the scheduler's throughput estimate must
// not absorb one-time shared-data fetch and Init cost, or a donor's first
// sample would make it look far slower than it is.
func (d *Donor) compute(ctx context.Context, t *Task) (res *Result, kind failureKind, err error) {
	key := CancelNotice{ProblemID: t.ProblemID, Epoch: t.Epoch, UnitID: t.Unit.ID}
	unitCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if !d.watch(key, cancel) {
		return nil, failCompute, errUnitCancelled
	}
	defer func() {
		if r := recover(); r != nil {
			res, kind, err = nil, failCompute, fmt.Errorf("algorithm panicked: %v", r)
		}
		if d.unwatch(key) {
			// Whether ProcessCtx aborted with the ctx error or raced to a
			// completed result, the unit is dead server-side.
			res, err = nil, errUnitCancelled
		}
	}()
	alg, kind, err := d.algorithm(unitCtx, t)
	if err != nil {
		return nil, kind, err
	}
	start := d.now()
	out, err := alg.ProcessCtx(unitCtx, t.Unit.Payload)
	if err == nil {
		err = d.ended(ctx) // Run ended mid-unit: nothing is submitted for it
	}
	if err != nil {
		return nil, failCompute, err
	}
	return &Result{ProblemID: t.ProblemID, UnitID: t.Unit.ID, Payload: out,
		Elapsed: d.now().Sub(start), Donor: d.opts.Name, Epoch: t.Epoch}, failCompute, nil
}

// watch makes key the unit the cancel poller watches, unless a notice
// already named it while it was queued (then it reports false).
func (d *Donor) watch(key CancelNotice, cancel context.CancelFunc) bool {
	d.pollMu.Lock()
	defer d.pollMu.Unlock()
	if _, dead := d.noticed[key]; dead {
		return false
	}
	d.computing = watchedUnit{key: key, notifier: d.coord, cancel: cancel}
	return true
}

// unwatch ends the watch on key and reports whether a notice named it.
func (d *Donor) unwatch(key CancelNotice) bool {
	d.pollMu.Lock()
	defer d.pollMu.Unlock()
	d.computing = watchedUnit{}
	_, dead := d.noticed[key]
	return dead
}

// pollCancels is Run's one cancel poller. Every CancelPoll, if a unit is
// computing, it drains the coordinator's notices into noticed and cancels
// the unit's ctx when one names it exactly — problem, epoch and unit: a
// fold sends a notice to every other holder of the unit it folded (a
// speculation loser, a settled replica), and that notice must not touch
// the same donor's other units of the problem. Between units it makes no
// call, so an idle donor costs no control traffic.
func (d *Donor) pollCancels(ctx context.Context) {
	tick := time.NewTicker(jitter(d.opts.CancelPoll))
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		d.pollMu.Lock()
		cn := d.computing.notifier
		d.pollMu.Unlock()
		if cn == nil {
			continue
		}
		notices, err := cn.CancelNotices(ctx, d.opts.Name)
		if err != nil {
			continue // transport hiccup; the next tick retries
		}
		d.pollMu.Lock()
		for _, n := range notices {
			d.noticed[n] = struct{}{}
		}
		if _, hit := d.noticed[d.computing.key]; hit && d.computing.cancel != nil {
			d.computing.cancel()
		}
		d.pollMu.Unlock()
	}
}

// report is the report stage: submit the unit's result, or tell the
// coordinator why there is none. A cancelled unit gets neither — its lease
// is already discarded server-side — and neither does a unit that failed
// because Run is shutting down: its lease expires and reissues. It returns
// the Throttle pause after a submitted result.
func (d *Donor) report(ctx context.Context, t *Task, res *Result, kind failureKind, err error) (time.Duration, error) {
	switch {
	case errors.Is(err, errUnitCancelled):
		d.aborted.Add(1)
		d.logf("donor %s: unit %d of %s cancelled by server; dropped", d.opts.Name, t.Unit.ID, t.ProblemID)
		return 0, nil
	case err != nil && d.ended(ctx) != nil:
		return 0, d.ended(ctx)
	case err != nil:
		d.logf("donor %s: unit %d of %s failed: %v", d.opts.Name, t.Unit.ID, t.ProblemID, err)
		if r, ok := d.coord.(failureReporter); ok {
			return 0, r.reportFailure(ctx, d.opts.Name, t.ProblemID, t.Unit.ID, err.Error(), kind, t.Epoch)
		}
		return 0, d.coord.ReportFailure(ctx, d.opts.Name, t.ProblemID, t.Unit.ID, err.Error())
	}
	if err := d.coord.SubmitResult(ctx, res); err != nil {
		return 0, err
	}
	d.units.Add(1)
	return d.opts.Throttle, nil
}

// failureReporter is implemented by coordinators that accept the failure
// context Coordinator.ReportFailure cannot carry: the kind (failTransport
// requeues the unit without feeding the poisoned-unit caps) and the task's
// epoch (a straggler report from a forgotten problem ID is dropped instead
// of revoking the successor's lease). *Server and *RPCClient implement it;
// a coordinator that wraps one from another package cannot (the method is
// unexported) and reports through plain ReportFailure.
type failureReporter interface {
	reportFailure(ctx context.Context, donor, problemID string, unitID int64, reason string, kind failureKind, epoch int64) error
}

// reconnect closes the dead coordinator and redials — immediately at
// first (a rolling restart may already be back up), then with exponential
// backoff between redialFloor and RedialMax — until a dial succeeds or ctx,
// which Stop cancels, ends (returning false). Problem caches are cleared
// on success: a restarted server may resubmit an ID with different shared
// data, and a stale Init would silently corrupt results.
func (d *Donor) reconnect(ctx context.Context) bool {
	if c, ok := d.coord.(io.Closer); ok {
		_ = c.Close()
	}
	backoff := d.opts.redialFloor()
	for attempt := 1; ctx.Err() == nil; attempt++ {
		coord, err := d.opts.Redial()
		if err == nil {
			d.logf("donor %s: reconnected to server (attempt %d)", d.opts.Name, attempt)
			d.coord = coord
			// The blob cache survives the reconnect: its keys are content
			// digests, valid against any server.
			clear(d.problems)
			d.problemOrder = nil
			return true
		}
		d.logf("donor %s: server unreachable, retrying in %s (attempt %d): %v",
			d.opts.Name, backoff, attempt, err)
		if !d.sleep(ctx, jitter(backoff)) {
			return false
		}
		backoff = min(2*backoff, d.opts.RedialMax)
	}
	return false
}

// algorithm returns the cached (problem, algorithm) instance, fetching
// shared data and running Init on first use; a failure's kind says whether
// it was the fetch (failTransport) or not. The task's epoch is its
// incarnation tag: a mismatch with the resident problem's means the ID was
// forgotten and reused, so the stale entry is evicted and refetched.
func (d *Donor) algorithm(ctx context.Context, t *Task) (Algorithm, failureKind, error) {
	name := t.Unit.Algorithm
	rp := d.problems[t.ProblemID]
	if rp != nil && rp.epoch != t.Epoch {
		d.evictProblem(t.ProblemID)
		rp = nil
	}
	if rp != nil && rp.algs[name] != nil {
		return rp.algs[name], failCompute, nil
	}
	alg, err := newAlgorithm(name)
	if err != nil {
		return nil, failCompute, err
	}
	if d.opts.WrapAlgorithm != nil {
		alg = d.opts.WrapAlgorithm(name, alg)
	}
	shared, err := d.sharedBlob(ctx, t)
	if err != nil {
		return nil, failTransport, fmt.Errorf("fetching shared data: %w", err)
	}
	if rp == nil {
		if len(d.problemOrder) >= d.opts.problemCacheCap() {
			d.evictProblem(d.problemOrder[0])
		}
		rp = &residentProblem{epoch: t.Epoch, algs: make(map[string]Algorithm)}
		d.problems[t.ProblemID] = rp
		d.problemOrder = append(d.problemOrder, t.ProblemID)
	}
	if err := alg.Init(shared); err != nil {
		return nil, failCompute, fmt.Errorf("initialising %s: %w", name, err)
	}
	rp.algs[name] = alg
	return alg, failCompute, nil
}

// sharedBlob returns the task's shared data through the blob cache, keyed
// by the task's content digest: every problem sharing the bytes hits one
// entry, and an epoch-bumped resubmission with different bytes carries a
// different digest, so stale bytes are unreachable by construction. The
// fetched blob is verified against the digest before use; a mismatch — a
// task without a digest included — is a transport-level failure
// (wire.ErrDigestMismatch) that requeues the unit without feeding the
// poisoned-unit caps.
func (d *Donor) sharedBlob(ctx context.Context, t *Task) ([]byte, error) {
	digest := t.SharedDigest
	return d.opts.BlobCache.Get(ctx, digest, func(ctx context.Context) ([]byte, error) {
		data, err := d.coord.FetchContent(ctx, t.ProblemID, digest)
		if err != nil {
			return nil, err
		}
		if got := wire.Digest(data); got != digest {
			return nil, fmt.Errorf("%w: shared blob of %s: fetched %d bytes hashing to %s, task says %q",
				wire.ErrDigestMismatch, t.ProblemID, len(data), got, digest)
		}
		return data, nil
	})
}

// evictProblem drops one problem's resident state. The shared blob is left
// to the cache's own LRU: it may be serving other problems that share the
// bytes.
func (d *Donor) evictProblem(problemID string) {
	delete(d.problems, problemID)
	d.problemOrder = slices.DeleteFunc(d.problemOrder, func(id string) bool { return id == problemID })
}

// now is the donor's one clock reading, taken at stage boundaries: a park's
// start and end, ProcessCtx's start and end.
func (d *Donor) now() time.Time { return time.Now() }

// sleep waits for at most wait, returning false if ctx (which Stop
// cancels) ended first.
func (d *Donor) sleep(ctx context.Context, wait time.Duration) bool {
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func (d *Donor) logf(format string, args ...any) {
	if d.opts.Logf != nil {
		d.opts.Logf(format, args...)
	}
}
