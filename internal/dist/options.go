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

// WithLeaseTTL sets the longest a dispatched unit may stay out before it
// is presumed lost and reissued to another donor: the ceiling of the
// overdue rule, and the bound for a donor not measured yet (see
// ServerOptions.Lease).
func WithLeaseTTL(d time.Duration) ServerOption {
	return func(o *ServerOptions) { o.Lease = d }
}

// WithDataDir makes the coordinator durable: mutations are journaled to a
// write-ahead log under dir, compacted into periodic snapshots, and
// replayed on the next start so registered durable problems survive a
// crash. Empty keeps today's in-memory coordinator.
func WithDataDir(dir string) ServerOption {
	return func(o *ServerOptions) { o.DataDir = dir }
}

// WithSnapshotBudget sets when the coordinator checkpoints and compacts the
// write-ahead log: as soon as the bytes or records appended since the last
// checkpoint exceed bytes or records (zero keeps a default; negative
// disables that trigger). Meaningless without WithDataDir.
func WithSnapshotBudget(bytes int64, records int) ServerOption {
	return func(o *ServerOptions) { o.SnapshotBytes, o.SnapshotRecords = bytes, records }
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

// WithRedialBackoff caps the exponential backoff between redial attempts
// (zero keeps the 30s default; see DonorOptions.RedialMax).
func WithRedialBackoff(max time.Duration) DonorOption {
	return func(o *DonorOptions) { o.RedialMax = max }
}

// WithCancelPoll sets how often a donor's one cancel poller asks the
// coordinator for cancel notices, which it does only while a unit computes
// (negative disables the poll, so a doomed unit runs to the end).
func WithCancelPoll(d time.Duration) DonorOption {
	return func(o *DonorOptions) { o.CancelPoll = d }
}

// WithBlobCache attaches a specific (typically shared) blob cache to the
// donor; several in-process donors given the same cache fetch a shared
// blob once per process instead of once per donor. The cache's budget also
// derives how many problems' algorithm state the donor keeps resident.
func WithBlobCache(c *BlobCache) DonorOption {
	return func(o *DonorOptions) { o.BlobCache = c }
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
