// Quickstart: implement the system's two extension points — a typed
// DataManager (server side) and a typed Algorithm (client side) — for a
// trivially parallelisable problem, and run it on in-process workers.
//
// The problem here is Monte-Carlo estimation of pi: the DataManager
// partitions a total sample count into work units, donors count the darts
// that land inside the unit circle, and the DataManager folds the counts
// back together. This mirrors the paper's §2.1: "The user is required to
// extend two classes to create a Problem to run on the system." — with the
// v2 twist that the payloads are typed structs and the gob codec lives in
// the dist adapters, not in application code.
//
// Run:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/dist"
	"repro/internal/sched"
)

// piUnit is one work unit's payload: how many darts to throw, and the seed
// that makes the run reproducible.
type piUnit struct {
	Samples int64
	Seed    int64
}

// piResult is a unit's output.
type piResult struct {
	Inside int64
}

// piManager is the server-side half: it partitions TotalSamples into units
// whose size follows the scheduler's per-donor budget, and accumulates the
// inside-circle counts. It implements dist.TypedDM[piUnit, piResult].
type piManager struct {
	TotalSamples int64

	dispatched int64
	completed  int64
	inside     int64
	seq        int64
	inflight   map[int64]int64 // unitID -> samples
}

func newPiManager(total int64) *piManager {
	return &piManager{TotalSamples: total, inflight: make(map[int64]int64)}
}

// NextUnit implements dist.TypedDM. The budget is in cost units; we
// declare 1 cost unit = 1000 samples so the adaptive policy's throughput
// accounting has reasonable magnitudes.
func (m *piManager) NextUnit(budget int64) (*dist.UnitOf[piUnit], bool, error) {
	left := m.TotalSamples - m.dispatched
	if left <= 0 {
		return nil, false, nil
	}
	samples := budget * 1000
	if samples < 1000 {
		samples = 1000
	}
	if samples > left {
		samples = left
	}
	m.seq++
	m.dispatched += samples
	m.inflight[m.seq] = samples
	return &dist.UnitOf[piUnit]{
		ID:        m.seq,
		Algorithm: "quickstart/pi",
		Payload:   piUnit{Samples: samples, Seed: m.seq},
		Cost:      samples / 1000,
	}, true, nil
}

// Consume implements dist.TypedDM.
func (m *piManager) Consume(unitID int64, res piResult) error {
	samples, ok := m.inflight[unitID]
	if !ok {
		return fmt.Errorf("pi: result for unknown unit %d", unitID)
	}
	delete(m.inflight, unitID)
	m.inside += res.Inside
	m.completed += samples
	return nil
}

// Done implements dist.TypedDM.
func (m *piManager) Done() bool { return m.completed >= m.TotalSamples }

// FinalResult implements dist.TypedDM.
func (m *piManager) FinalResult() (any, error) {
	return 4 * float64(m.inside) / float64(m.completed), nil
}

// RemainingCost lets remaining-aware policies (GSS, factoring) size units.
func (m *piManager) RemainingCost() int64 { return (m.TotalSamples - m.completed) / 1000 }

// piAlgorithm is the client-side half: throw darts. It implements
// dist.TypedAlgorithm[dist.NoShared, piUnit, piResult] — this problem has
// no shared data.
type piAlgorithm struct{}

// Init implements dist.TypedAlgorithm.
func (piAlgorithm) Init(dist.NoShared) error { return nil }

// ProcessCtx implements dist.TypedAlgorithm; the context check between
// dart batches lets a cancelled run stop the workers mid-unit.
func (piAlgorithm) ProcessCtx(ctx context.Context, u piUnit) (piResult, error) {
	rng := rand.New(rand.NewSource(u.Seed))
	var inside int64
	for i := int64(0); i < u.Samples; i++ {
		if i%100_000 == 0 {
			if err := ctx.Err(); err != nil {
				return piResult{}, err
			}
		}
		x, y := rng.Float64(), rng.Float64()
		if x*x+y*y <= 1 {
			inside++
		}
	}
	return piResult{Inside: inside}, nil
}

func main() {
	// Donor binaries know algorithms by name (the Go substitute for Java's
	// runtime class shipping — see docs/ARCHITECTURE.md).
	dist.RegisterTypedAlgorithm("quickstart/pi", func() dist.TypedAlgorithm[dist.NoShared, piUnit, piResult] {
		return piAlgorithm{}
	})

	const totalSamples = 50_000_000
	problem, err := dist.NewTypedProblem[piUnit, piResult]("pi", newPiManager(totalSamples), dist.NoShared{})
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	policy := sched.Adaptive{Target: 100 * time.Millisecond, Bootstrap: 1000, Min: 1}
	out, err := dist.RunLocal(context.Background(), problem, 8, policy)
	if err != nil {
		log.Fatal(err)
	}
	pi, err := dist.Decode[float64](out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pi ≈ %.6f  (%d samples, 8 workers, %s)\n",
		pi, int64(totalSamples), time.Since(start).Round(time.Millisecond))
}
