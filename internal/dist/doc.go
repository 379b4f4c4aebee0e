// Package dist implements the paper's server/donor distributed-computing
// platform (Page, Keane, Naughton): a coordinating server partitions a
// problem into work units whose size is chosen per donor by an adaptive
// scheduling policy (package sched), and donor machines fetch units,
// compute them with a registered Algorithm, and return results. Control
// traffic travels over package wire's request/response mux (standing where
// the paper used Java RMI) and bulk data over raw TCP sockets, both in
// length-prefixed, CRC-32C-checksummed frames, matching the paper's
// two-channel design. Failed
// or expired units are requeued to other donors, which is how the system
// tolerates lab machines being switched off mid-run. Every outstanding
// unit is one attempt set walking one lifecycle — granted, dropped,
// offered a result, folded exactly once (units.go) — and straggler
// speculation and quorum verification are two settings of that set, not
// separate mechanisms. One overdue rule, from the throughput each unit was
// sized by, decides when a lease is due a speculative copy and when it
// expires. See
// docs/ARCHITECTURE.md at the repository root for the layer map, the wire
// protocol specification and the problem lifecycle.
//
// # Programming model
//
// The model is the paper's: a Problem bundles a DataManager (server side —
// partitions work, folds results) with optional shared data every donor
// fetches once; the donor side is an Algorithm registered under the name
// the DataManager stamps on each Unit. Two deployment shapes run the same
// Problem unchanged: RunLocal (in-process workers) and ListenAndServe +
// Dial/NewDonor (the paper's networked shape). Package simnet drives this
// same Server in virtual time through ServerOptions.Clock, with modelled
// donors, to regenerate the paper's figures.
//
// # The v2 surface
//
// The API is context-first and typed:
//
//   - Lifecycle calls (Submit, Wait, Status, donor Run, every Coordinator
//     method) take a context.Context. A server-side Forget — or a cancelled
//     RunLocal context — propagates an epoch-tagged cancel notice to the
//     donors holding the problem's in-flight units, whose ProcessCtx
//     contexts are cancelled so they abort instead of computing straggler
//     results that would only be dropped.
//   - TypedDM[U, R] and TypedAlgorithm[S, U, R] (see typed.go) adapt typed
//     implementations to the byte-level DataManager/Algorithm interfaces,
//     owning the gob codec at the boundary so applications never marshal by
//     hand.
//   - Server.Watch(ctx, id) streams lifecycle events (submitted,
//     unit-dispatched, unit-done, progress, failed, finished, forgotten)
//     over a bounded non-blocking fan-out, replacing Status polling.
//
// # Dispatch: long-poll push
//
// Donors obtain work through WaitTasks (see TaskBatchWaiter): the server
// parks the call until a unit is dispatchable for that donor — a Submit, a
// failure or lease-expiry requeue, or a fold that can release
// stage-barrier units all wake parked donors — so idle dispatch latency is
// a channel wake, not a poll interval, and an idle fleet costs almost no
// control traffic. The server owns both halves of a round trip: it sizes
// each reply's batch from the donor's measured unit time — several units
// only when round trips would dominate, at most dispatchBatch — and
// longPoll is the one park time; donors re-park on expiry and ask for
// neither. Coordinator is the whole donor↔server
// contract — park, fetch shared blobs by digest, poll cancel notices,
// report — and *Server (in process) and *RPCClient (over the wire) each
// implement all of it, so in-process and networked donors run one path.
//
// # One control protocol
//
// The control channel is five verbs (net.go) over wire's mux in the flat
// codec (flat.go) on a single TCP connection per Dial. Both ends open by
// exchanging wire.FlatPreamble, the protocol's one version token; a peer
// presenting anything else is disconnected, and Dial reports
// ErrProtocolMismatch. Server-side, every verb runs under a context that
// ends with its connection: a donor that dies while parked in WaitTask
// unparks its handler at once and is leased nothing.
// Long-poll dispatch, batched replies and content-addressed shared blobs
// are part of that protocol, not negotiated extras. gob appears only as
// the payload codec behind the typed adapters (typed.go).
//
// # Options
//
// Servers and donors are constructed with functional options, each one a
// knob some command flag, RunLocal, the swarm harness or the benchmark
// turns. Scheduling: WithPolicy, WithLeaseTTL (the ceiling of the overdue
// rule that speculates and expires leases from each donor's measured
// throughput, units.go); durability: WithDataDir and WithSnapshotBudget;
// verification: WithVerify, WithProbation and WithQuarantineBelow. Donors
// take WithName, WithThrottle, WithLogf, WithRedial, WithRedialBackoff,
// WithCancelPoll, WithBlobCache and WithAlgorithmWrapper; Dial takes
// WithConnWrapper. WithServerOptions and WithDonorOptions adopt a whole
// ServerOptions/DonorOptions bag at once; ServerOptions.Clock, the
// server's source of time, is set only that way.
//
// # Error sentinels
//
// Four sentinels partition "the thing you addressed is not there":
//
//   - ErrClosed: the server was shut down explicitly — Close ran, and for
//     networked donors the sentinel travelled back as a reply status (or
//     as the goodbye frame a cleanly closed connection ends with). A
//     donor loop treats it as "finish cleanly"; it is never retried.
//   - ErrServerGone: the control connection died without a goodbye (EOF,
//     reset, a crashed or restarted server). The server may come back:
//     donors configured with DonorOptions.Redial reconnect with capped
//     exponential backoff, all others exit cleanly.
//   - ErrProtocolMismatch: Dial reached something that does not speak
//     this build's control protocol version. Not retried by Dial; a donor's
//     Redial loop keeps trying, which is right for a rolling upgrade.
//   - ErrForgotten: the problem existed but was retired with Forget.
//     Distinct from ErrUnknownProblem, which marks an ID that was never
//     submitted; the tombstone set behind the distinction is bounded, so
//     very old retired IDs eventually degrade to ErrUnknownProblem.
package dist
