package core // package documentation lives in doc.go

import (
	"context"
	"time"

	"repro/internal/dist"
	"repro/internal/sched"
)

// Core programming-model types (see package dist for full documentation).
type (
	// Problem bundles a DataManager, optional shared data and an ID.
	Problem = dist.Problem
	// DataManager is the byte-level server-side extension point; prefer
	// TypedDM.
	DataManager = dist.DataManager
	// TypedDM is the typed server-side extension point.
	TypedDM[U, R any] = dist.TypedDM[U, R]
	// UnitOf is a typed work unit as handed out by a TypedDM.
	UnitOf[U any] = dist.UnitOf[U]
	// Algorithm is the byte-level donor-side extension point (context-
	// aware); prefer TypedAlgorithm.
	Algorithm = dist.Algorithm
	// TypedAlgorithm is the typed donor-side extension point.
	TypedAlgorithm[S, U, R any] = dist.TypedAlgorithm[S, U, R]
	// NoShared marks a problem without shared data (see NewTypedProblem).
	NoShared = dist.NoShared
	// Unit is one dispatched piece of work.
	Unit = dist.Unit
	// Result is a completed unit's output.
	Result = dist.Result
	// Policy sizes work units per donor.
	Policy = sched.Policy
	// DonorStats is the server's measured view of one donor.
	DonorStats = sched.DonorStats
	// ServerOptions tunes scheduling and fault tolerance.
	ServerOptions = dist.ServerOptions
	// ServerOption is a functional server option (WithPolicy, ...).
	ServerOption = dist.ServerOption
	// DonorOptions tunes a donor worker.
	DonorOptions = dist.DonorOptions
	// DonorOption is a functional donor option (WithName, ...).
	DonorOption = dist.DonorOption
	// Server is the coordinating node.
	Server = dist.Server
	// NetworkServer is a Server with RPC + bulk listeners attached.
	NetworkServer = dist.NetworkServer
	// Donor is one worker's compute loop.
	Donor = dist.Donor
	// Coordinator is the donor's view of a server.
	Coordinator = dist.Coordinator
	// TaskWaiter is a Coordinator with long-poll dispatch (WaitTask).
	TaskWaiter = dist.TaskWaiter
	// ContentFetcher is a Coordinator that fetches shared blobs by content
	// digest (content-addressed bulk channel).
	ContentFetcher = dist.ContentFetcher
	// BlobCache is the donor-side digest-keyed shared-blob cache; share one
	// across in-process donors with WithBlobCache.
	BlobCache = dist.BlobCache
	// Event is one entry of a Server.Watch stream.
	Event = dist.Event
	// EventKind classifies a Watch event.
	EventKind = dist.EventKind
	// CancelNotice is the server's epoch-tagged "abort that unit" message.
	CancelNotice = dist.CancelNotice
	// ProblemStats are a problem's lifetime unit counters plus recovery
	// provenance (see Server.Stats).
	ProblemStats = dist.ProblemStats
	// DurableDM marks a DataManager whose state survives coordinator
	// restarts (see dist.DurableDM and WithDataDir).
	DurableDM = dist.DurableDM
	// Recovery summarises what a durable server restored at startup.
	Recovery = dist.Recovery
	// RecoveredProblem describes one problem restored from the journal.
	RecoveredProblem = dist.RecoveredProblem
)

// Watch event kinds (see dist.EventKind).
const (
	EventSubmitted      = dist.EventSubmitted
	EventUnitDispatched = dist.EventUnitDispatched
	EventUnitDone       = dist.EventUnitDone
	EventProgress       = dist.EventProgress
	EventFailed         = dist.EventFailed
	EventFinished       = dist.EventFinished
	EventForgotten      = dist.EventForgotten
	EventRecovered      = dist.EventRecovered
	EventUnitSpeculated = dist.EventUnitSpeculated

	EventUnitReplicaDispatched = dist.EventUnitReplicaDispatched
	EventQuorumAgreed          = dist.EventQuorumAgreed
	EventQuorumConflict        = dist.EventQuorumConflict
	EventDonorQuarantined      = dist.EventDonorQuarantined
)

// Lifecycle and transport sentinels (see package dist). Status, Stats and
// Wait return ErrForgotten for a problem retired with Forget — distinct
// from ErrUnknownProblem for an ID never submitted. RPC-backed donors see
// ErrServerGone when the server's connection drops without an explicit
// Close, and reconnect when the WithRedial option is set. Dial fails with
// ErrProtocolMismatch against a server built for a different control
// protocol version.
var (
	ErrClosed           = dist.ErrClosed
	ErrUnknownProblem   = dist.ErrUnknownProblem
	ErrForgotten        = dist.ErrForgotten
	ErrServerGone       = dist.ErrServerGone
	ErrProtocolMismatch = dist.ErrProtocolMismatch
)

// Functional options for servers and donors, re-exported so callers need
// only this package.
var (
	WithPolicy          = dist.WithPolicy
	WithLeaseTTL        = dist.WithLeaseTTL
	WithExpiryScan      = dist.WithExpiryScan
	WithBulkThreshold   = dist.WithBulkThreshold
	WithAutoForget      = dist.WithAutoForget
	WithWatchBuffer     = dist.WithWatchBuffer
	WithLongPoll        = dist.WithLongPoll
	WithDataDir         = dist.WithDataDir
	WithJournalFsync    = dist.WithJournalFsync
	WithSpeculation     = dist.WithSpeculation
	WithVerify          = dist.WithVerify
	WithProbation       = dist.WithProbation
	WithQuarantineBelow = dist.WithQuarantineBelow
	WithReadmitAfter    = dist.WithReadmitAfter
	WithServerOptions   = dist.WithServerOptions

	WithName             = dist.WithName
	WithThrottle         = dist.WithThrottle
	WithLogf             = dist.WithLogf
	WithRedial           = dist.WithRedial
	WithRedialBackoff    = dist.WithRedialBackoff
	WithCancelPoll       = dist.WithCancelPoll
	WithLongPollWait     = dist.WithLongPollWait
	WithBlobCacheBytes   = dist.WithBlobCacheBytes
	WithBlobCache        = dist.WithBlobCache
	WithAlgorithmWrapper = dist.WithAlgorithmWrapper
	WithDonorOptions     = dist.WithDonorOptions
)

// NewBlobCache creates a byte-budgeted shared-blob cache to share across
// in-process donors (see dist.NewBlobCache).
func NewBlobCache(budget int64) *BlobCache { return dist.NewBlobCache(budget) }

// RegisterAlgorithm adds a named context-aware Algorithm factory to the
// donor-side registry (the Go substitute for Java's runtime class
// shipping). Prefer RegisterTypedAlgorithm.
func RegisterAlgorithm(name string, f func() Algorithm) {
	dist.RegisterAlgorithm(name, func() dist.Algorithm { return f() })
}

// RegisterTypedAlgorithm registers a typed algorithm factory; the adapter
// owns the gob codec for shared data, unit payloads and results.
func RegisterTypedAlgorithm[S, U, R any](name string, f func() TypedAlgorithm[S, U, R]) {
	dist.RegisterTypedAlgorithm(name, f)
}

// NewTypedProblem assembles a Problem from a typed DataManager and typed
// shared data (pass NoShared{} for none):
//
//	p, err := core.NewTypedProblem[unit, result](id, dm, shared{...})
func NewTypedProblem[U, R, S any](id string, dm TypedDM[U, R], shared S) (*Problem, error) {
	return dist.NewTypedProblem[U, R](id, dm, shared)
}

// AdaptDM wraps a typed DataManager as a byte-level one.
func AdaptDM[U, R any](dm TypedDM[U, R]) DataManager { return dist.AdaptDM(dm) }

// Encode gob-encodes a typed value (final results, custom blobs).
func Encode[T any](v T) ([]byte, error) { return dist.Encode(v) }

// Decode gob-decodes data produced by Encode into a T — typically a
// problem's final result.
func Decode[T any](data []byte) (T, error) { return dist.Decode[T](data) }

// Marshal gob-encodes a value for the byte-level v1 interfaces. Prefer the
// typed adapters and Encode.
//
//nolint:distlint/gobcheck public facade re-exports the boundary's own codec; no new gob surface
func Marshal(v any) ([]byte, error) { return dist.Marshal(v) }

// Unmarshal gob-decodes data produced by Marshal. Prefer Decode.
//
//nolint:distlint/gobcheck public facade re-exports the boundary's own codec; no new gob surface
func Unmarshal(data []byte, v any) error { return dist.Unmarshal(data, v) }

// RunLocal executes one problem to completion with n in-process workers.
// Cancelling ctx abandons the run and aborts the workers' in-flight units.
func RunLocal(ctx context.Context, p *Problem, n int, policy Policy) ([]byte, error) {
	return dist.RunLocal(ctx, p, n, policy)
}

// ListenAndServe starts a network-facing server (rpcAddr for control,
// bulkAddr for data; ":0" picks free ports).
func ListenAndServe(rpcAddr, bulkAddr string, opts ...ServerOption) (*NetworkServer, error) {
	return dist.ListenAndServe(rpcAddr, bulkAddr, opts...)
}

// NewServer creates an in-process coordinator.
func NewServer(opts ...ServerOption) *Server { return dist.NewServer(opts...) }

// OpenServer creates an in-process coordinator, surfacing journal-recovery
// errors instead of panicking — required when WithDataDir is set.
func OpenServer(opts ...ServerOption) (*Server, error) { return dist.OpenServer(opts...) }

// RegisterDurableDM adds a named DataManager restore factory to the
// server-side registry so journaled problems can be rebuilt after a crash
// (see dist.RegisterDurableDM).
func RegisterDurableDM(kind string, f func(state []byte) (DataManager, error)) {
	dist.RegisterDurableDM(kind, f)
}

// Dial connects a donor-side coordinator to a server's control channel.
func Dial(rpcAddr string, timeout time.Duration) (*dist.RPCClient, error) {
	return dist.Dial(rpcAddr, timeout)
}

// NewDonor creates a donor bound to a coordinator (a *Server for in-process
// use or an *RPCClient from Dial).
func NewDonor(coord Coordinator, opts ...DonorOption) *Donor {
	return dist.NewDonor(coord, opts...)
}

// Adaptive returns the paper's scheduling policy: unit sized so the donor
// reports back roughly every target duration.
func Adaptive(target time.Duration) Policy {
	return sched.Adaptive{Target: target, Bootstrap: 1000, Min: 1}
}

// Fixed returns the non-adaptive baseline policy with constant unit size.
func Fixed(size int64) Policy { return sched.Fixed{Size: size} }

// PolicyByName resolves a policy from a config string such as
// "adaptive:5s", "fixed:1000", "gss:2" or "factoring".
func PolicyByName(spec string) (Policy, error) { return sched.ByName(spec) }
