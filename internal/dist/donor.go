package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"strings"
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
	// service on a machine someone else is using.
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
	// RedialMin and RedialMax bound the exponential backoff between
	// redial attempts. Zero values default to 250ms and 30s.
	RedialMin, RedialMax time.Duration
	// CancelPoll is how often the donor polls the coordinator for cancel
	// notices while a unit is computing, so a server-side Forget aborts
	// the in-flight ProcessCtx instead of letting it finish doomed work.
	// Zero defaults to 500ms; negative disables the poll (cancellation is
	// then observed at unit boundaries only). Coordinators that do not
	// implement CancelNotifier are never polled.
	CancelPoll time.Duration
	// LongPollWait is the park duration the donor requests per WaitTask
	// long-poll (see TaskWaiter): the server holds the call until a unit
	// is dispatchable or the park expires, and the donor re-parks
	// immediately on an empty reply — no idle latency, no poll traffic.
	// Zero or negative defaults to 45s.
	LongPollWait time.Duration
	// BlobCacheBytes budgets the donor's shared-blob cache (see BlobCache)
	// when BlobCache is nil. Zero defaults to 256 MiB; negative keeps only
	// the single most recently used blob. The budget also derives how many
	// problems' algorithm state stays resident (problemCacheCap).
	BlobCacheBytes int64
	// BlobCache, when non-nil, is the shared-blob cache this donor uses —
	// set the same instance on several in-process donors to share it, so a
	// blob every worker needs is fetched once per process. Nil gives the
	// donor a private cache of BlobCacheBytes.
	BlobCache *BlobCache
	// DispatchBatch caps how many units the donor asks for per WaitTask
	// long-poll when the coordinator supports batched dispatch
	// (TaskBatchWaiter). The actual request adapts to measured compute
	// time (see batchSize): a batch is only worth its load-balance cost
	// when units are so small that control round trips dominate, so the
	// donor asks for a tail of at most ~batchLatencyTarget of queued work
	// and a fleet on coarse units degrades to single-unit dispatch by
	// itself. The batch is drained locally before the donor re-parks,
	// amortizing one frame and one park wakeup across the units; the
	// server clamps the request to its own ServerOptions.DispatchBatch.
	// Zero defaults to 8; negative (or 1) keeps single-unit dispatch.
	DispatchBatch int
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
	if o.RedialMin <= 0 {
		o.RedialMin = 250 * time.Millisecond
		// An explicit cap below the default floor wins: "-retry 100ms"
		// must mean backoff ≤ 100ms, not a silent raise to the floor.
		if o.RedialMax > 0 && o.RedialMax < o.RedialMin {
			o.RedialMin = o.RedialMax
		}
	}
	if o.RedialMax <= 0 {
		o.RedialMax = 30 * time.Second
	}
	if o.RedialMax < o.RedialMin {
		o.RedialMax = o.RedialMin
	}
	if o.CancelPoll == 0 {
		o.CancelPoll = 500 * time.Millisecond
	}
	if o.LongPollWait <= 0 {
		o.LongPollWait = 45 * time.Second
	}
	if o.DispatchBatch == 0 {
		o.DispatchBatch = 8
	}
	if o.BlobCacheBytes == 0 {
		o.BlobCacheBytes = defaultBlobCacheBytes
	}
	if o.BlobCache == nil {
		o.BlobCache = NewBlobCache(o.BlobCacheBytes)
	}
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
// state a donor keeps resident from its blob budget — one problem per
// problemBytesQuantum, floored. At the 256 MiB default this reproduces the
// pre-budget hardcoded bound of 8.
func (o *DonorOptions) problemCacheCap() int {
	c := int(o.BlobCacheBytes / problemBytesQuantum)
	if c < minCachedProblems {
		c = minCachedProblems
	}
	return c
}

// pollJitterFrac spreads each poll-wait uniformly ±20% around the server's
// hint, so hundreds of donors released by the same stage barrier do not
// thundering-herd RequestTask in lockstep forever after.
const pollJitterFrac = 0.2

// jitter returns d perturbed uniformly within ±pollJitterFrac.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	f := 1 - pollJitterFrac + 2*pollJitterFrac*rand.Float64()
	return time.Duration(float64(d) * f)
}

// Donor is one worker's compute loop: poll the coordinator for units, run
// the registered algorithm, return results, and report failures so lost
// units are requeued. The paper ran one of these as a low-priority
// background service on ~200 lab PCs.
type Donor struct {
	coord Coordinator
	opts  DonorOptions

	stop     chan struct{}
	stopOnce sync.Once
	units    atomic.Int64
	aborted  atomic.Int64

	// Per-problem algorithm instances, initialised once with the problem's
	// shared data (keyed by problemID + "\x00" + algorithm name). The
	// shared bytes themselves live in opts.BlobCache, keyed by content
	// digest.
	algs map[string]Algorithm
	// epochs records the incarnation tag each cached problem was fetched
	// under: a forgotten ID may be resubmitted with different shared data,
	// and serving the successor from the predecessor's cache would
	// silently corrupt results (the epoch on the result would be correct,
	// so the server could not catch it). A task whose epoch differs from
	// the cache's evicts and refetches.
	epochs map[string]int64
	// problemOrder tracks problem first-use order so resident algorithm
	// state stays bounded (problemCacheCap): a donor is a long-lived
	// service, and the server cycles through many problems over its
	// lifetime. Oldest-first eviction; a still-active problem that gets
	// evicted is simply re-initialised.
	problemOrder []string

	// unitEWMA tracks this donor's recent per-unit compute time
	// (exponential moving average), feeding batchSize's adaptive dispatch
	// sizing. Only Run's goroutine touches it.
	unitEWMA time.Duration

	// cancelMu guards cancelledIncs.
	cancelMu sync.Mutex
	// cancelledIncs records the problem incarnations cancel notices named
	// while the current batch drains. With batched dispatch a Forget can
	// arrive (via the watcher polling during unit 1) for units 2..N still
	// queued locally; checking this set before each pending unit drops
	// them without wasted compute. Cleared at every batch refill — stale
	// incarnations can never be re-dispatched, so old entries are dead
	// weight.
	//dist:guardedby cancelMu
	cancelledIncs map[string]struct{}
}

// incKey is the cancelledIncs map key for one problem incarnation.
func incKey(problemID string, epoch int64) string {
	return fmt.Sprintf("%s\x00%d", problemID, epoch)
}

// noteCancelled records cancel notices' problem incarnations.
func (d *Donor) noteCancelled(notices []CancelNotice) {
	if len(notices) == 0 {
		return
	}
	d.cancelMu.Lock()
	if d.cancelledIncs == nil {
		d.cancelledIncs = make(map[string]struct{})
	}
	for _, n := range notices {
		d.cancelledIncs[incKey(n.ProblemID, n.Epoch)] = struct{}{}
	}
	d.cancelMu.Unlock()
}

// incCancelled reports whether a cancel notice named this incarnation
// since the last batch refill.
func (d *Donor) incCancelled(problemID string, epoch int64) bool {
	d.cancelMu.Lock()
	defer d.cancelMu.Unlock()
	_, ok := d.cancelledIncs[incKey(problemID, epoch)]
	return ok
}

// resetCancelled clears the recorded incarnations (called before each
// batch fetch; notices only matter for units already in hand).
func (d *Donor) resetCancelled() {
	d.cancelMu.Lock()
	clear(d.cancelledIncs)
	d.cancelMu.Unlock()
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
	return &Donor{
		coord:  coord,
		opts:   o,
		stop:   make(chan struct{}),
		algs:   make(map[string]Algorithm),
		epochs: make(map[string]int64),
	}
}

// Units reports how many work units this donor has completed.
func (d *Donor) Units() int { return int(d.units.Load()) }

// Aborted reports how many in-flight units this donor abandoned on a
// server cancel notice (the problem was forgotten or finished early).
func (d *Donor) Aborted() int { return int(d.aborted.Load()) }

// Stop asks Run to return after the unit in progress (idempotent).
func (d *Donor) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
}

// Run fetches and computes work until ctx is cancelled, Stop is called, or
// the server tells the donor it is shutting down (ErrClosed). Against a
// *Server or an *RPCClient the loop parks in WaitTask between units and is
// woken the moment work appears, and a park may return several units when
// measured compute times make batching worthwhile (see batchSize), which
// the loop drains before parking again; a foreign Coordinator that lacks
// TaskWaiter is polled through RequestTask on its jittered wait hint. A
// unit that fails to compute is reported (and thereby requeued to another
// donor); a unit whose problem is forgotten mid-compute is aborted on the
// server's cancel notice and nothing is submitted for it. When the server
// merely becomes unreachable (ErrServerGone — a crash, a restart, a
// partition) and Redial is configured, Run reconnects with capped
// exponential backoff and keeps going; without Redial it exits cleanly.
func (d *Donor) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background() //dist:allow-background nil-ctx normalisation in a public entry point
	}
	// One context carries both stop signals: the caller's ctx and Stop().
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		select {
		case <-d.stop:
			cancel()
		case <-stopWatch:
		}
	}()

	// pending holds the not-yet-computed tail of the last dispatch batch.
	// It is drained before the donor re-parks, and dropped on reconnect:
	// the old server's leases died with it, and a restarted server may
	// carry different work under the same unit IDs.
	var pending []*Task
	for {
		if runCtx.Err() != nil {
			return nil
		}
		if len(pending) == 0 {
			d.resetCancelled()
			var tasks []*Task
			var wait time.Duration
			var parked bool
			fetchStart := time.Now()
			err := d.call(runCtx, func() error {
				var err error
				tasks, wait, parked, err = d.nextTasks(runCtx)
				return err
			})
			if err != nil {
				if runCtx.Err() != nil || errors.Is(err, ErrClosed) || errors.Is(err, ErrServerGone) {
					return nil
				}
				if isTransient(err) {
					d.logf("donor %s: transient: %v", d.opts.Name, err)
					if !d.sleep(runCtx, jitter(wait)) {
						return nil
					}
					continue
				}
				return err
			}
			if len(tasks) == 0 {
				if parked && wait <= 0 {
					// The long-poll park expired with nothing to hand out: the
					// server already did the waiting, so re-park immediately.
					// Unless it did no such thing — the hint rides the wire, so
					// a buggy or hostile server can answer "parked" instantly
					// with a zero hint forever; an empty reply that came back
					// faster than any real park gets the poll loop's sleep
					// floor instead of spinning the control channel hot.
					if time.Since(fetchStart) >= 5*time.Millisecond {
						continue
					}
					if !d.sleep(runCtx, time.Millisecond) {
						return nil
					}
					continue
				}
				if !d.sleep(runCtx, jitter(wait)) {
					return nil
				}
				continue
			}
			// Within one batch, urgent units run first: tasks echo their
			// problem's Submit-time priority, and the stable sort keeps the
			// server's dispatch order among equals.
			sort.SliceStable(tasks, func(i, j int) bool {
				return tasks[i].Priority > tasks[j].Priority
			})
			pending = tasks
		}
		task := pending[0]
		pending = pending[1:]
		if d.incCancelled(task.ProblemID, task.Epoch) {
			// A notice during an earlier unit of this batch already killed
			// the incarnation; its queued siblings die unstarted.
			d.aborted.Add(1)
			d.logf("donor %s: unit %d of %s cancelled by server; dropped before compute",
				d.opts.Name, task.Unit.ID, task.ProblemID)
			continue
		}
		out, elapsed, aborted, perr := d.process(runCtx, task)
		d.observeUnitTime(elapsed)
		if aborted {
			// The server cancelled this unit (Forget, early finish): no
			// result, no failure report — the lease is already discarded.
			d.aborted.Add(1)
			d.logf("donor %s: unit %d of %s cancelled by server; dropped mid-compute",
				d.opts.Name, task.Unit.ID, task.ProblemID)
			continue
		}
		if perr != nil {
			if runCtx.Err() != nil {
				return nil // shutting down; the lease will expire and reissue
			}
			d.logf("donor %s: unit %d of %s failed: %v", d.opts.Name, task.Unit.ID, task.ProblemID, perr)
			// A shared-data fetch failure is transport-level, not evidence
			// the unit is bad: route it past the poisoned-unit caps when
			// the coordinator can make the distinction. The tagged path
			// also carries the task's epoch so a straggler report can
			// never revoke a lease of a successor problem reusing the ID.
			var sf *sharedFetchError
			transport := errors.As(perr, &sf)
			var err error
			if tr, ok := d.coord.(taggedFailureReporter); ok {
				err = tr.reportTaggedFailure(runCtx, d.opts.Name, task.ProblemID, task.Unit.ID, perr.Error(), transport, task.Epoch)
			} else {
				err = d.coord.ReportFailure(runCtx, d.opts.Name, task.ProblemID, task.Unit.ID, perr.Error())
			}
			if gone, alive := d.handleGone(runCtx, err, "failure report for unit", task); gone {
				pending = nil // leases died with the connection; don't compute the batch tail
				if !alive {
					return nil
				}
				continue
			}
			if err != nil {
				if runCtx.Err() != nil || errors.Is(err, ErrClosed) {
					return nil
				}
				return err
			}
			continue
		}
		err := d.coord.SubmitResult(runCtx, &Result{
			ProblemID: task.ProblemID,
			UnitID:    task.Unit.ID,
			Payload:   out,
			Elapsed:   elapsed,
			Donor:     d.opts.Name,
			Epoch:     task.Epoch,
		})
		if gone, alive := d.handleGone(runCtx, err, "result of unit", task); gone {
			pending = nil // leases died with the connection; don't compute the batch tail
			if !alive {
				return nil
			}
			continue
		}
		if err != nil {
			if runCtx.Err() != nil || errors.Is(err, ErrClosed) {
				return nil
			}
			return err
		}
		d.units.Add(1)
		if d.opts.Throttle > 0 {
			if !d.sleep(runCtx, d.opts.Throttle) {
				return nil
			}
		}
	}
}

// batchLatencyTarget bounds the compute time a donor queues behind its
// current unit via batched dispatch: small enough that a batch tail never
// meaningfully delays redistribution to an idle donor, large enough to
// amortize many control round trips when units are tiny.
const batchLatencyTarget = 10 * time.Millisecond

// batchSize adaptively sizes the next dispatch request. Batching trades
// load balance for fewer control round trips, and that trade only pays
// when units are so small that the round trip dominates: a donor hoarding
// eight 50ms units serializes 400ms of work an idle neighbour could have
// shared. The request is therefore sized so the batch tail represents at
// most ~batchLatencyTarget of compute at this donor's measured per-unit
// time, capped by DispatchBatch. Before the first measurement the donor
// asks for a single unit — the conservative start costs one round trip
// and keeps a fresh fleet from carving an evenly divisible workload into
// lumpy batches.
func (d *Donor) batchSize() int {
	limit := d.opts.DispatchBatch
	if limit <= 1 || d.unitEWMA <= 0 {
		return 1
	}
	return min(1+int(batchLatencyTarget/d.unitEWMA), limit)
}

// observeUnitTime folds one unit's compute time into the donor's EWMA.
func (d *Donor) observeUnitTime(elapsed time.Duration) {
	if elapsed <= 0 {
		return
	}
	if d.unitEWMA == 0 {
		d.unitEWMA = elapsed
		return
	}
	d.unitEWMA += (elapsed - d.unitEWMA) * 3 / 10
}

// nextTasks fetches the donor's next batch of units: a batched WaitTask
// long-poll when the coordinator supports it and batchSize asks for
// more than one unit, a single-unit WaitTask park when it only supports
// that, and a RequestTask poll for a bare Coordinator. parked reports that a
// long-poll path was used — only then may an empty reply with a zero hint
// mean "re-park immediately" (and Run still floors replies that came back
// too fast to have parked); a foreign Coordinator returning a zero hint
// from RequestTask always gets the sleep floor.
func (d *Donor) nextTasks(ctx context.Context) (tasks []*Task, wait time.Duration, parked bool, err error) {
	if batch := d.batchSize(); batch > 1 {
		if tbw, ok := d.coord.(TaskBatchWaiter); ok {
			tasks, wait, err = tbw.WaitTasks(ctx, d.opts.Name, d.opts.LongPollWait, batch)
			return tasks, wait, true, err
		}
	}
	if tw, ok := d.coord.(TaskWaiter); ok {
		task, wait, err := tw.WaitTask(ctx, d.opts.Name, d.opts.LongPollWait)
		return taskSlice(task), wait, true, err
	}
	task, wait, err := d.coord.RequestTask(ctx, d.opts.Name)
	return taskSlice(task), wait, false, err
}

// taskSlice lifts a single dispatch into batch shape.
func taskSlice(t *Task) []*Task {
	if t == nil {
		return nil
	}
	return []*Task{t}
}

// call runs one coordinator operation, transparently redialing and
// retrying while the server is unreachable. Only use it for operations
// that are safe to replay against a *different* server instance —
// RequestTask is (it merely asks the current server for work). Results
// and failure reports are NOT replayed after a reconnect: a restarted
// server may carry a resubmitted problem under the same ID whose unit IDs
// cover different ranges, and a stale replayed payload would be silently
// folded into the wrong unit (see handleGone). call returns ErrServerGone
// only when redialing is not configured or ctx was cancelled mid-backoff.
func (d *Donor) call(ctx context.Context, op func() error) error {
	for {
		err := op()
		if err == nil || !errors.Is(err, ErrServerGone) {
			return err
		}
		if d.opts.Redial == nil || !d.reconnect(ctx) {
			return err
		}
	}
}

// handleGone deals with a result/failure-report delivery that died with
// the server connection. The pending message is dropped, never replayed:
// the reconnected server may be a different instance carrying a
// resubmitted problem whose unit IDs mean different work, so replaying a
// stale payload could be silently consumed as the wrong unit. Dropping is
// always safe — the old server's lease expires and the unit reissues.
// gone reports whether err was a lost-connection error; alive is false
// when the donor should exit (no Redial configured, or the run context was
// cancelled / Stop fired during backoff).
func (d *Donor) handleGone(ctx context.Context, err error, what string, task *Task) (gone, alive bool) {
	if err == nil || !errors.Is(err, ErrServerGone) {
		return false, true
	}
	if d.opts.Redial == nil {
		return true, false
	}
	d.logf("donor %s: %s %d of %s lost with the server connection (a lease expiry will reissue it)",
		d.opts.Name, what, task.Unit.ID, task.ProblemID)
	return true, d.reconnect(ctx)
}

// reconnect closes the dead coordinator and redials — immediately at
// first (a rolling restart may already be back up), then with exponential
// backoff between RedialMin and RedialMax — until a dial succeeds or the
// donor is stopped (returning false). Problem caches are cleared on
// success: a restarted server may resubmit an ID with different shared
// data, and a stale Init would silently corrupt results.
func (d *Donor) reconnect(ctx context.Context) bool {
	if c, ok := d.coord.(io.Closer); ok {
		_ = c.Close()
	}
	backoff := d.opts.RedialMin
	for attempt := 1; ; attempt++ {
		if d.stopped() || ctxErr(ctx) != nil {
			return false
		}
		coord, err := d.opts.Redial()
		if err == nil {
			d.logf("donor %s: reconnected to server (attempt %d)", d.opts.Name, attempt)
			d.coord = coord
			d.algs = make(map[string]Algorithm)
			d.epochs = make(map[string]int64)
			d.problemOrder = nil
			// The blob cache survives the reconnect: its keys are content
			// digests, valid against any server.
			return true
		}
		d.logf("donor %s: server unreachable, retrying in %s (attempt %d): %v",
			d.opts.Name, backoff, attempt, err)
		if !d.sleep(ctx, jitter(backoff)) {
			return false
		}
		backoff *= 2
		if backoff > d.opts.RedialMax {
			backoff = d.opts.RedialMax
		}
	}
}

// process computes one unit, lazily creating and initialising the
// algorithm instance for (problem, algorithm name). While ProcessCtx runs,
// a watcher goroutine polls the coordinator for cancel notices; a notice
// matching the task's problem incarnation cancels the unit's context, and
// process reports aborted=true so the loop drops the unit without
// submitting anything. elapsed covers only ProcessCtx — the scheduler's
// throughput estimate must not absorb one-time shared-data fetch and Init
// cost, or a donor's first sample would make it look far slower than it
// is.
func (d *Donor) process(ctx context.Context, t *Task) (out []byte, elapsed time.Duration, aborted bool, err error) {
	defer func() {
		// A panicking Algorithm must not kill the donor loop: convert it to
		// a failure so the unit is requeued.
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("algorithm panicked: %v", r)
		}
	}()
	unitCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var cancelled atomic.Bool
	if cn, ok := d.coord.(CancelNotifier); ok && d.opts.CancelPoll > 0 {
		watchDone := make(chan struct{})
		defer close(watchDone)
		go d.watchCancels(unitCtx, watchDone, cn, t, &cancelled, cancel)
	}
	alg, err := d.algorithm(unitCtx, t)
	if err != nil {
		return nil, 0, cancelled.Load(), err
	}
	start := time.Now()
	out, err = alg.ProcessCtx(unitCtx, t.Unit.Payload)
	if cancelled.Load() {
		// Whether ProcessCtx aborted with the context error or raced to a
		// completed result, the unit is dead server-side; drop everything.
		return nil, 0, true, nil
	}
	return out, time.Since(start), false, err
}

// watchCancels polls the coordinator for cancel notices until the unit
// finishes, cancelling the unit's context when a notice matches its
// problem incarnation. Notices for other incarnations (or problems this
// donor no longer computes) are discarded — their leases are already gone
// server-side.
func (d *Donor) watchCancels(ctx context.Context, done <-chan struct{}, cn CancelNotifier, t *Task, cancelled *atomic.Bool, cancel context.CancelFunc) {
	ticker := time.NewTicker(jitter(d.opts.CancelPoll))
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return
		case <-ctx.Done():
			return
		case <-ticker.C:
			notices, err := cn.CancelNotices(ctx, d.opts.Name)
			if err != nil {
				continue // transport hiccup; the next tick retries
			}
			// Record every named incarnation — with batched dispatch the
			// notices may cover units still queued locally, and the drain
			// loop checks the set before starting each one.
			d.noteCancelled(notices)
			if d.incCancelled(t.ProblemID, t.Epoch) {
				cancelled.Store(true)
				cancel()
				return
			}
		}
	}
}

// algorithm returns the cached (problem, algorithm) instance, fetching
// shared data and running Init on first use. The task's epoch is its
// incarnation tag: a mismatch with the cache means the problem ID was
// forgotten and reused — possibly with different shared data — so the
// stale entry is evicted and refetched. Epoch zero (a foreign Coordinator
// that does not tag its tasks) disables the check.
func (d *Donor) algorithm(ctx context.Context, t *Task) (Algorithm, error) {
	problemID, name := t.ProblemID, t.Unit.Algorithm
	if t.Epoch != 0 {
		if cached, ok := d.epochs[problemID]; ok && cached != t.Epoch {
			d.evictProblem(problemID)
		}
	}
	key := problemID + "\x00" + name
	if alg, ok := d.algs[key]; ok {
		return alg, nil
	}
	alg, err := newAlgorithm(name)
	if err != nil {
		return nil, err
	}
	if d.opts.WrapAlgorithm != nil {
		alg = d.opts.WrapAlgorithm(name, alg)
	}
	shared, err := d.sharedBlob(ctx, t)
	if err != nil {
		return nil, &sharedFetchError{fmt.Errorf("fetching shared data: %w", err)}
	}
	if _, tracked := d.epochs[problemID]; !tracked {
		if len(d.problemOrder) >= d.opts.problemCacheCap() {
			d.evictProblem(d.problemOrder[0])
		}
		d.epochs[problemID] = t.Epoch
		d.problemOrder = append(d.problemOrder, problemID)
	}
	if err := alg.Init(shared); err != nil {
		return nil, fmt.Errorf("initialising %s: %w", name, err)
	}
	d.algs[key] = alg
	return alg, nil
}

// sharedBlob returns the task's shared data through the blob cache.
//
// The cache key is the task's content digest: every problem sharing the
// bytes hits one entry, an epoch-bumped resubmission with different bytes
// carries a different digest (so stale bytes are unreachable by
// construction), and the fetched blob is verified against the digest before
// use whichever path delivered it — a mismatch is a transport-level failure
// (wire.ErrDigestMismatch) that requeues the unit without feeding the
// poisoned-unit caps. A task without a digest — only a foreign Coordinator
// issues one — has nothing to key or verify by and is fetched uncached.
func (d *Donor) sharedBlob(ctx context.Context, t *Task) ([]byte, error) {
	digest := t.SharedDigest
	if digest == "" {
		return d.coord.SharedData(ctx, t.ProblemID)
	}
	return d.opts.BlobCache.Get(ctx, digest, func(ctx context.Context) ([]byte, error) {
		var data []byte
		var err error
		if cf, ok := d.coord.(ContentFetcher); ok {
			data, err = cf.FetchContent(ctx, t.ProblemID, digest)
		} else {
			data, err = d.coord.SharedData(ctx, t.ProblemID)
		}
		if err != nil {
			return nil, err
		}
		if got := wire.Digest(data); got != digest {
			return nil, fmt.Errorf("%w: shared blob of %s: fetched %d bytes hashing to %s, task says %s",
				wire.ErrDigestMismatch, t.ProblemID, len(data), got, digest)
		}
		return data, nil
	})
}

// evictProblem drops one problem's resident state: its algorithm
// instances and its incarnation tag. The shared blob is left to the
// cache's own LRU: it may be serving other problems that share the bytes.
func (d *Donor) evictProblem(problemID string) {
	delete(d.epochs, problemID)
	for i, id := range d.problemOrder {
		if id == problemID {
			d.problemOrder = append(d.problemOrder[:i], d.problemOrder[i+1:]...)
			break
		}
	}
	prefix := problemID + "\x00"
	for key := range d.algs {
		if strings.HasPrefix(key, prefix) {
			delete(d.algs, key)
		}
	}
}

// sleep waits for at most wait, returning false if ctx was cancelled or
// Stop fired first.
func (d *Donor) sleep(ctx context.Context, wait time.Duration) bool {
	if wait <= 0 {
		wait = time.Millisecond
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-d.stop:
		return false
	case <-done:
		return false
	case <-t.C:
		return true
	}
}

func (d *Donor) stopped() bool {
	select {
	case <-d.stop:
		return true
	default:
		return false
	}
}

func (d *Donor) logf(format string, args ...any) {
	if d.opts.Logf != nil {
		d.opts.Logf(format, args...)
	}
}

// transientError wraps coordinator errors a donor should retry rather than
// exit on (e.g. a bulk payload fetch that failed after the unit was already
// reported lost to the server).
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

func isTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// sharedFetchError marks a failure to obtain a problem's shared blob.
type sharedFetchError struct{ err error }

func (e *sharedFetchError) Error() string { return e.err.Error() }
func (e *sharedFetchError) Unwrap() error { return e.err }

// taggedFailureReporter is implemented by coordinators that accept the
// full failure context Coordinator.ReportFailure cannot carry: transport
// marks payload-fetch failures (requeued without feeding the
// poisoned-unit caps), and epoch is the failed task's incarnation tag (a
// mismatched straggler report from a forgotten problem ID is dropped
// instead of revoking the successor's lease). *Server and *RPCClient both
// implement it; foreign Coordinators fall back to plain ReportFailure.
type taggedFailureReporter interface {
	reportTaggedFailure(ctx context.Context, donor, problemID string, unitID int64, reason string, transport bool, epoch int64) error
}
