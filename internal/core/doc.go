// Package core is the library's front door: it re-exports the handful of
// types and functions a user needs to run a computation on the paper's
// distributed system, without having to know how the subsystem packages
// (dist, sched, wire) divide the work. docs/ARCHITECTURE.md at the
// repository root maps the layers.
//
// # Programming model
//
// The model is the paper's, in its v2 typed/context form: a Problem is a
// TypedDM (server side — partitions typed work units, folds typed results)
// plus a TypedAlgorithm (donor side — computes one typed unit under a
// cancellable context), plus optional typed shared data. The adapters own
// the gob codec at the boundary, so application code never marshals
// payloads by hand:
//
//	type dm struct{ ... }            // implements core.TypedDM[unit, result]
//	type alg struct{ ... }           // implements core.TypedAlgorithm[shared, unit, result]
//
//	core.RegisterTypedAlgorithm("app/v1", func() core.TypedAlgorithm[shared, unit, result] {
//		return &alg{}
//	})
//	p, _ := core.NewTypedProblem[unit, result]("job", &dm{...}, shared{...})
//	out, _ := core.RunLocal(ctx, p, 8, core.Adaptive(time.Second))
//	res, _ := core.Decode[finalResult](out)
//
// Lifecycle calls are context-first: Submit, Wait, Status and donor Run
// take a context, a server-side Forget (or a cancelled RunLocal context)
// propagates epoch-tagged cancel notices that abort in-flight ProcessCtx
// calls on donors, and Server.Watch(ctx, id) streams lifecycle events
// instead of Status polling.
//
// # Deployment shapes
//
// Three are offered:
//
//   - RunLocal: in-process workers; zero configuration (tests, small jobs).
//   - ListenAndServe + Dial/NewDonor: the paper's real shape — one server,
//     many donor processes on other machines, control over the wire
//     package's mux (the paper's "RMI") and bulk data over raw TCP
//     sockets. Donors park in the WaitTask
//     long-poll dispatch verb between units (see dist.TaskWaiter); the
//     control channel speaks one versioned protocol with no fallbacks.
//   - package simnet: a discrete-event simulation of hundreds of donors,
//     used to regenerate the paper's figures.
//
// # Options and sentinels
//
// Servers and donors take functional options (WithPolicy, WithLeaseTTL,
// WithAutoForget, WithLongPoll, ... for servers; WithName, WithThrottle,
// WithRedial, WithCancelPoll, WithLongPollWait, ... for donors), all
// re-exported here. The error sentinels callers branch on are re-exported
// too: ErrClosed (explicit server shutdown — donors finish cleanly),
// ErrServerGone (connection lost without a goodbye — donors with
// WithRedial reconnect), ErrForgotten (problem retired with Forget),
// ErrUnknownProblem (ID never submitted) and ErrProtocolMismatch (Dial
// reached a server of a different protocol version). See package dist's
// documentation for the full semantics.
package core
