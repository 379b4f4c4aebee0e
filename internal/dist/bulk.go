package dist

// The bulk channel's key space: how keys are written (sharedKey,
// wire.ContentKey) and how a fetched key is read back against the
// coordinator's live state (bulkBlob). Only shared blobs travel by key;
// unit payloads ride the dispatch reply.

import "strings"

// sharedKey is the bulk-channel key of a problem's shared blob.
func sharedKey(problemID string) string { return "shared/" + problemID }

// bulkBlob is the bulk channel's view of the coordinator: it answers a
// fetch key from live state, so a shared blob is fetchable exactly as long
// as its problem is registered and not done, and there is no second copy
// whose lifetime could drift from it. The key comes off the network:
// anything malformed or unknown is a miss. Runs on a bulk-connection
// goroutine holding no lock (see the Server lock order). The bytes go out
// on the socket after the problem lock is dropped, which is safe because
// shared data is never mutated once a problem is submitted.
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
