// The benchmark is a module of its own so that it builds with its own build
// file; the replace lets it import repro/internal/... (Go's internal rule is
// checked on the import path, and repro/bench is below repro).
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
