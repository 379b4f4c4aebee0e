package dist

// Hooks for the external tests (package dist_test), which drive an
// application's DataManager through a coordinator crash.
var (
	CrashServer  = crashServer
	NewAlgorithm = newAlgorithm
)

// SnapshotNow writes a checkpoint on demand.
func (s *Server) SnapshotNow() error { return s.snapshotNow() }
