package dist

// The bulk channel's key space: how keys are written (sharedKey, unitKey,
// wire.ContentKey), which payloads travel by key (offloads), and how a
// fetched key is read back against the coordinator's live state (bulkBlob).

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/wire"
)

// sharedKey is the bulk-channel key of a problem's shared blob.
func sharedKey(problemID string) string { return "shared/" + problemID }

// unitKey is the bulk-channel key of one offloaded unit payload. The
// problem's incarnation epoch is part of the key: unit numbering restarts
// when a forgotten ID is resubmitted, and a fetch racing the Forget must
// never be answered with the successor's payload for a colliding unit ID.
func unitKey(problemID string, epoch, unitID int64) string {
	return fmt.Sprintf("unit/%s/%d.%d", problemID, epoch, unitID)
}

// offloads reports whether a network dispatch ships this payload by bulk
// key instead of inline: it is over ServerOptions.BulkThreshold and still
// fits one bulk frame (beside its status byte). The reply encoder and the
// batch byte budget both ask here, so they cannot disagree.
func (s *Server) offloads(payload []byte) bool {
	return s.opts.BulkThreshold >= 0 && len(payload) > s.opts.BulkThreshold && len(payload) < wire.MaxFrameSize
}

// bulkBlob is the bulk channel's view of the coordinator: it answers a
// fetch key from live state, so a blob is fetchable exactly as long as its
// owner is — a shared blob while its problem is registered and not done, a
// unit payload while the unit can still fold (its attempt set is in the
// table with the unit attached) — and there is no second copy whose
// lifetime could drift from it. The key comes off the network: anything
// malformed or unknown is a miss. Runs on a bulk-connection goroutine
// holding no lock (see the Server lock order). The bytes go out on the
// socket after the problem lock is dropped, which is safe because shared
// data and unit payloads are never mutated once a problem is submitted or a
// unit generated.
func (s *Server) bulkBlob(key string) ([]byte, bool) {
	space, rest, _ := strings.Cut(key, "/")
	switch space {
	case "shared":
		if ps, err := s.lookup(rest); err == nil {
			return ps.liveShared()
		}
	case "content":
		// Any live problem carrying these bytes will do. sharedDigest is
		// immutable, so only a matching problem's lock is taken; at one
		// fetch per donor per distinct blob a registry scan needs no index.
		for _, ps := range s.allProblems() {
			if ps.sharedDigest == rest {
				if blob, ok := ps.liveShared(); ok {
					return blob, true
				}
			}
		}
	case "unit":
		// "<problemID>/<epoch>.<unitID>", parsed from the right: problem IDs
		// may themselves contain '/' and '.'.
		dot := strings.LastIndexByte(rest, '.')
		slash := strings.LastIndexByte(rest[:max(dot, 0)], '/')
		if slash < 0 {
			return nil, false
		}
		epoch, eerr := strconv.ParseInt(rest[slash+1:dot], 10, 64)
		uid, uerr := strconv.ParseInt(rest[dot+1:], 10, 64)
		ps, lerr := s.lookup(rest[:slash])
		if eerr != nil || uerr != nil || lerr != nil || ps.epoch != epoch {
			return nil, false // never another incarnation's bytes
		}
		ps.mu.Lock()
		defer ps.mu.Unlock()
		return ps.table.payload(uid)
	}
	return nil, false
}

// liveShared returns the problem's shared blob — empty for a problem
// submitted without one — unless the problem is done.
func (ps *problemState) liveShared() ([]byte, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.shared, !ps.done
}
