package dist

import (
	"net"
	"time"

	"repro/internal/sched"
)

// Functional options: NewServer, ListenAndServe and NewDonor take variadic
// option lists so future knobs never break existing call sites. The
// ServerOptions/DonorOptions structs remain the documented bags the options
// mutate; WithServerOptions/WithDonorOptions adopt a whole bag at once.

// ServerOption tunes one ServerOptions knob.
type ServerOption func(*ServerOptions)

// WithServerOptions replaces the whole option bag — handy when an options
// struct is built programmatically (config files, tests).
func WithServerOptions(o ServerOptions) ServerOption {
	return func(dst *ServerOptions) { *dst = o }
}

// WithPolicy sets the scheduling policy sizing work units per donor.
func WithPolicy(p sched.Policy) ServerOption {
	return func(o *ServerOptions) { o.Policy = p }
}

// WithLeaseTTL sets how long a dispatched unit may stay out before it is
// presumed lost and reissued to another donor.
func WithLeaseTTL(d time.Duration) ServerOption {
	return func(o *ServerOptions) { o.Lease = d }
}

// WithExpiryScan sets the interval between lease sweeps.
func WithExpiryScan(d time.Duration) ServerOption {
	return func(o *ServerOptions) { o.ExpiryScan = d }
}

// WithBulkThreshold sets the payload size above which a network server
// ships unit payloads over the bulk channel (negative disables offloading).
func WithBulkThreshold(n int) ServerOption {
	return func(o *ServerOptions) { o.BulkThreshold = n }
}

// WithAutoForget retires each problem automatically once a Wait call has
// delivered its final result.
func WithAutoForget(on bool) ServerOption {
	return func(o *ServerOptions) { o.AutoForget = on }
}

// WithWatchBuffer sets the per-subscriber event buffer of Server.Watch; a
// subscriber that falls more than this many events behind loses the oldest
// ones (terminal events are always delivered).
func WithWatchBuffer(n int) ServerOption {
	return func(o *ServerOptions) { o.WatchBuffer = n }
}

// WithLongPoll caps how long one WaitTask call may stay parked server-side
// before replying "no task" (the donor immediately re-parks). Zero or
// negative keeps the 45s default.
func WithLongPoll(d time.Duration) ServerOption {
	return func(o *ServerOptions) { o.LongPoll = d }
}

// WithDispatchBatch caps how many units one batched WaitTask reply may
// carry (zero keeps the default of 8; negative or 1 disables batching —
// the pre-batch single-unit replies, kept for ablation).
func WithDispatchBatch(n int) ServerOption {
	return func(o *ServerOptions) { o.DispatchBatch = n }
}

// WithDataDir makes the coordinator durable: mutations are journaled to a
// write-ahead log under dir, compacted into periodic snapshots, and
// replayed on the next start so registered durable problems survive a
// crash. Empty keeps today's in-memory coordinator.
func WithDataDir(dir string) ServerOption {
	return func(o *ServerOptions) { o.DataDir = dir }
}

// WithJournalFsync makes every journal append fsync before returning
// instead of riding the batched group commit — the durability ablation
// knob (see BenchmarkJournalOverhead). Meaningless without WithDataDir.
func WithJournalFsync(everyRecord bool) ServerOption {
	return func(o *ServerOptions) { o.JournalFsyncEveryRecord = everyRecord }
}

// WithSnapshotBudget sets when the background snapshotter compacts the
// write-ahead log: whenever the live segment exceeds bytes or records
// (zero keeps a default; negative disables that trigger). Meaningless
// without WithDataDir.
func WithSnapshotBudget(bytes int64, records int) ServerOption {
	return func(o *ServerOptions) { o.SnapshotBytes, o.SnapshotRecords = bytes, records }
}

// WithSpeculation enables speculative re-dispatch of straggler units once
// a problem is at least frac complete (see ServerOptions.SpeculateAfter).
// Zero — the default — disables speculation.
func WithSpeculation(frac float64) ServerOption {
	return func(o *ServerOptions) { o.SpeculateAfter = frac }
}

// WithVerify enables quorum spot-checking of results from untrusted
// donors: fraction of freshly dispatched units (plus every unit handed to
// a donor below the trust bar) is replicated to quorum distinct donors, and
// the unit folds only once quorum results agree (see
// ServerOptions.VerifyFraction/VerifyQuorum). Fraction zero — the
// default — disables verification entirely.
func WithVerify(fraction float64, quorum int) ServerOption {
	return func(o *ServerOptions) { o.VerifyFraction, o.VerifyQuorum = fraction, quorum }
}

// WithQuarantineBelow sets the trust floor under which a donor is
// quarantined: it stops receiving work and its pending results are
// rejected (see ServerOptions.QuarantineBelow). Zero keeps the default;
// negative disables quarantine while keeping trust tracking. Meaningless
// without WithVerify.
func WithQuarantineBelow(trust float64) ServerOption {
	return func(o *ServerOptions) { o.QuarantineBelow = trust }
}

// WithProbation sets the trust bar to the trust that many consecutive
// quorum agreements earn a new donor; while a donor is below the bar every
// unit it receives is spot-checked (see ServerOptions.ProbationUnits).
// Zero keeps the default; negative disables probation. Meaningless without
// WithVerify.
func WithProbation(units int) ServerOption {
	return func(o *ServerOptions) { o.ProbationUnits = units }
}

// WithReadmitAfter lets a quarantined donor back in after d on re-entry
// probation: its trust resets to neutral as if it had just joined.
// Zero — the default — quarantines forever. Meaningless without
// WithVerify.
func WithReadmitAfter(d time.Duration) ServerOption {
	return func(o *ServerOptions) { o.ReadmitAfter = d }
}

// DonorOption tunes one DonorOptions knob.
type DonorOption func(*DonorOptions)

// WithDonorOptions replaces the whole option bag.
func WithDonorOptions(o DonorOptions) DonorOption {
	return func(dst *DonorOptions) { *dst = o }
}

// WithName sets the donor's name in server statistics and logs.
func WithName(name string) DonorOption {
	return func(o *DonorOptions) { o.Name = name }
}

// WithThrottle sets the pause between units (a polite background service).
func WithThrottle(d time.Duration) DonorOption {
	return func(o *DonorOptions) { o.Throttle = d }
}

// WithLogf routes the donor's progress and failure messages.
func WithLogf(f func(format string, args ...any)) DonorOption {
	return func(o *DonorOptions) { o.Logf = f }
}

// WithRedial makes the donor a resilient background service that
// re-establishes its coordinator connection when the server vanishes.
func WithRedial(f func() (Coordinator, error)) DonorOption {
	return func(o *DonorOptions) { o.Redial = f }
}

// WithRedialBackoff bounds the exponential backoff between redial attempts.
func WithRedialBackoff(min, max time.Duration) DonorOption {
	return func(o *DonorOptions) { o.RedialMin, o.RedialMax = min, max }
}

// WithCancelPoll sets how often a donor's one cancel poller asks the
// coordinator for cancel notices, which it does only while a unit computes
// (negative disables the poll, so a doomed unit runs to the end).
func WithCancelPoll(d time.Duration) DonorOption {
	return func(o *DonorOptions) { o.CancelPoll = d }
}

// WithLongPollWait sets the park duration the donor requests per WaitTask
// long-poll (zero or negative keeps the 45s default).
func WithLongPollWait(d time.Duration) DonorOption {
	return func(o *DonorOptions) { o.LongPollWait = d }
}

// WithBlobCacheBytes budgets the donor's shared-blob cache (zero keeps the
// 256 MiB default, negative caches only the most recent blob). The budget
// also derives how many problems' algorithm state stays resident.
func WithBlobCacheBytes(n int64) DonorOption {
	return func(o *DonorOptions) { o.BlobCacheBytes = n }
}

// WithBlobCache attaches a specific (typically shared) blob cache to the
// donor; several in-process donors given the same cache fetch a shared
// blob once per process instead of once per donor.
func WithBlobCache(c *BlobCache) DonorOption {
	return func(o *DonorOptions) { o.BlobCache = c }
}

// WithTaskBatch sets how many units the donor asks for per WaitTask
// long-poll against a batch-capable coordinator (zero keeps the default of
// 8; negative or 1 keeps single-unit dispatch).
func WithTaskBatch(n int) DonorOption {
	return func(o *DonorOptions) { o.DispatchBatch = n }
}

// WithAlgorithmWrapper interposes on every algorithm instance the donor
// creates: wrap receives the registered algorithm name and the fresh
// instance and returns the Algorithm the donor actually runs. The swarm
// harness uses it to throttle per-donor throughput (simulated slow
// machines); it also suits metering and fault injection in tests.
func WithAlgorithmWrapper(wrap func(name string, a Algorithm) Algorithm) DonorOption {
	return func(o *DonorOptions) { o.WrapAlgorithm = wrap }
}

// DialOption tunes one Dial.
type DialOption func(*dialOptions)

// dialOptions is the bag DialOption mutates.
type dialOptions struct {
	// wrapConn, when non-nil, wraps the control connection the dial opens
	// before any protocol bytes flow — the seam the swarm harness shapes
	// latency and bandwidth through.
	wrapConn func(net.Conn) net.Conn
}

// WithConnWrapper wraps the control connection a Dial opens before any
// protocol bytes flow, so tests and the swarm harness can inject latency, bandwidth
// shaping or abrupt drops at the socket seam. Bulk-channel fetches open
// their own short-lived sockets and are not wrapped. The wrapper must
// return a usable net.Conn; returning its argument unchanged is allowed.
func WithConnWrapper(wrap func(net.Conn) net.Conn) DialOption {
	return func(o *dialOptions) { o.wrapConn = wrap }
}
