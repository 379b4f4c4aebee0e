// Package wire implements the two communication channels of the paper's
// system: typed control traffic (a request/response mux over flat-encoded
// frames, standing where the paper used Java RMI) and bulk data transfer
// over plain TCP sockets, both with length-prefixed, checksummed framing
// (the paper sends large data files over ordinary sockets because that is
// more efficient than RMI). docs/ARCHITECTURE.md at the repository
// root holds the full protocol specification; this comment is the summary.
//
// # Frame format
//
// Every message on either channel is one frame:
//
//	+--------------+---------------+-----------------+
//	| length (4B)  | CRC-32C (4B)  | body (length B) |
//	+--------------+---------------+-----------------+
//
// The length is big-endian and capped at MaxFrameSize (64 MiB) so a
// corrupt or malicious prefix cannot exhaust memory; the checksum is
// CRC-32C (Castagnoli — hardware-accelerated on amd64/arm64) over the
// body, verified on receive. A mismatch surfaces as ErrCorruptFrame and is
// treated like any other transport failure: retried or requeued, never
// consumed as silently wrong data. The frame format itself is not
// versioned — server and donors must run compatible builds for the bulk
// channel, since a peer predating the checksum word would consume it as
// body bytes.
//
// # Bulk blob protocol
//
// BulkServer serves named blobs: a client connects, sends one frame
// containing the blob key, and receives one frame whose body is a status
// byte (statusOK / statusNotFound) followed by the blob. FetchBlob is the
// client side.
//
// A BulkServer holds one map of plainly named blobs (Put/Delete) and, on a
// miss, asks the fallback it was built with (NewBulkServerWithFallback) —
// called with no BulkServer lock held. The dist layer's coordinator serves
// everything that way, straight from its own state and for exactly as long
// as that state lives: "content/sha256:<hex>" (ContentKey(Digest(blob))) is
// the shared blob of any live problem carrying those bytes,
// "shared/<problemID>" the same bytes under the per-problem name behind
// Coordinator.SharedData, and "unit/<problemID>/<epoch>.<unitID>" the
// payload of a unit that can still fold. Fetchers of a content key verify
// the bytes hash back to the digest; a mismatch is ErrDigestMismatch,
// handled like any transport failure.
//
// # Control channel
//
// The control channel is the mux in mux.go over the flat codec in flat.go
// and nothing else: MuxClient numbers calls and matches replies by
// sequence number, MuxServer runs one handler function per request under a
// context that ends with the connection, and a reply carries a status byte
// (ok, closed, error) instead of free text to be parsed. It is versioned
// by one token, FlatPreamble, which both halves send first on every
// connection themselves; a mismatch ends the connection before any frame
// is read. There is no capability negotiation: long-poll
// dispatch, batched replies and content-addressed shared blobs are part of
// the one protocol.
package wire
