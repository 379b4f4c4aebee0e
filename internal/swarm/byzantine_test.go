package swarm

// Adversarial swarm suite: a real coordinator with quorum verification on,
// a fleet of real donors where a tenth are Byzantine (wrong-result, lazy,
// colluding, flaky), and the acceptance bar of the defense — the problem
// completes with every fold byte-correct, every malicious donor ends up
// quarantined, and no honest donor does.
//
// The run is two-phase to make the cold-start window deterministic: an
// honest-only fleet first boots trust on a throwaway problem (before any
// donor is trusted, unproven donors must be allowed to validate each
// other — that window is where colluders could win). Only after the boot
// problem completes, with dozens of donors past probation, does the
// malicious fleet join and the checked planted problem get submitted: from
// then on no group of unproven donors can fold anything without a trusted
// donor recomputing it.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/sched"
	"repro/internal/simnet"
)

// plantedAlg is the checked computation: a deterministic function of the
// payload, so the test can recompute every expected result.
type plantedAlg struct{ d time.Duration }

func (plantedAlg) Init([]byte) error { return nil }

func plantedAnswer(payload []byte) []byte {
	out := make([]byte, len(payload))
	for i, b := range payload {
		out[i] = b ^ 0x5A
	}
	return out
}

func (a plantedAlg) ProcessCtx(ctx context.Context, payload []byte) ([]byte, error) {
	t := time.NewTimer(a.d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-t.C:
	}
	return plantedAnswer(payload), nil
}

var registerPlantedOnce sync.Once

func registerPlanted() {
	registerPlantedOnce.Do(func() {
		dist.RegisterAlgorithm("swarm/planted", func() dist.Algorithm {
			return plantedAlg{d: 2 * time.Millisecond}
		})
	})
}

// plantedDM hands out units with distinct payloads and records every
// folded payload, so the test can assert each unit folded exactly once
// with the honest answer — the zero-wrong-folds bar.
type plantedDM struct {
	mu       sync.Mutex
	units    int64
	seq      int64
	payloads map[int64][]byte
	folds    map[int64][][]byte
}

func newPlantedDM(units int64) *plantedDM {
	return &plantedDM{units: units, payloads: make(map[int64][]byte), folds: make(map[int64][][]byte)}
}

func (d *plantedDM) NextUnit(int64) (*dist.Unit, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.seq >= d.units {
		return nil, false, nil
	}
	d.seq++
	payload := []byte{byte(d.seq), byte(d.seq >> 8), byte(d.seq >> 16), 0x77}
	d.payloads[d.seq] = payload
	return &dist.Unit{ID: d.seq, Algorithm: "swarm/planted", Cost: 1, Payload: payload}, true, nil
}

func (d *plantedDM) Consume(unitID int64, payload []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.folds[unitID] = append(d.folds[unitID], append([]byte(nil), payload...))
	return nil
}

func (d *plantedDM) Done() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.folds)) >= d.units
}

func (d *plantedDM) FinalResult() ([]byte, error) { return nil, nil }

// audit returns the unit IDs that folded more than once and those whose
// folded payload is not the honest answer.
func (d *plantedDM) audit() (double, wrong []int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for id, folds := range d.folds {
		if len(folds) > 1 {
			double = append(double, id)
		}
		want := plantedAnswer(d.payloads[id])
		for _, got := range folds {
			if string(got) != string(want) {
				wrong = append(wrong, id)
				break
			}
		}
	}
	return double, wrong
}

// byzantineFleet builds the malicious cohort: every Malice mode the
// harness knows, at ≥10% of the full fleet.
func byzantineFleet() (specs []simnet.DonorSpec, names map[string]string) {
	names = make(map[string]string)
	add := func(mode string, n int) {
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("evil-%s-%02d", mode, i)
			specs = append(specs, simnet.DonorSpec{
				Name: name, Speed: 1.0, Latency: 200 * time.Microsecond, Malice: mode,
			})
			names[name] = mode
		}
	}
	add(MaliceWrongResult, 10)
	add(MaliceLazy, 6)
	add(MaliceCollude, 4)
	add(MaliceFlaky, 6)
	return specs, names
}

// TestSwarmByzantine is the adversarial acceptance run: 256 donors, 26 of
// them malicious across all four modes, quorum verification at fraction
// 0.1 / quorum 2. Rides `make check` (with -race) like TestSwarmSmoke.
func TestSwarmByzantine(t *testing.T) {
	if testing.Short() {
		t.Skip("adversarial swarm needs wall-clock seconds; skipped under -short")
	}
	registerPlanted()
	const honest = 230
	srv, err := dist.ListenAndServe("127.0.0.1:0", "127.0.0.1:0",
		dist.WithPolicy(sched.Fixed{Size: 1}),
		dist.WithLeaseTTL(2*time.Second),
		dist.WithVerify(0.1, 2),
		dist.WithProbation(2),
		dist.WithQuarantineBelow(0.3),
	)
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Phase 1: honest-only fleet boots trust on a throwaway problem.
	boot := newPlantedDM(800)
	if err := srv.Submit(ctx, &dist.Problem{ID: "boot", DM: boot}); err != nil {
		t.Fatalf("Submit boot: %v", err)
	}
	honestSwarm, err := New(Config{
		RPCAddr: srv.RPCAddr(),
		Specs:   simnet.Uniform(honest, 1.0, 0, 200*time.Microsecond, 0),
		Seed:    7,
	})
	if err != nil {
		t.Fatalf("New honest swarm: %v", err)
	}
	if err := honestSwarm.Start(ctx); err != nil {
		t.Fatalf("Start honest swarm: %v", err)
	}
	defer honestSwarm.Stop()
	if _, err := srv.Wait(ctx, "boot"); err != nil {
		t.Fatalf("Wait boot: %v (swarm stats %+v)", err, honestSwarm.Stats())
	}
	ft := srv.FleetTrust()
	if ft.Trusted < 50 {
		t.Fatalf("boot phase left only %d trusted donors (want >= 50): %+v", ft.Trusted, ft)
	}
	if ft.Quarantined != 0 {
		t.Fatalf("boot phase quarantined %d honest donors: %v", ft.Quarantined, srv.QuarantinedDonors())
	}

	// Phase 2: the malicious cohort joins, and the checked problem runs.
	evilSpecs, evil := byzantineFleet()
	evilSwarm, err := New(Config{
		RPCAddr: srv.RPCAddr(),
		Specs:   evilSpecs,
		Seed:    13,
	})
	if err != nil {
		t.Fatalf("New byzantine swarm: %v", err)
	}
	if err := evilSwarm.Start(ctx); err != nil {
		t.Fatalf("Start byzantine swarm: %v", err)
	}
	defer evilSwarm.Stop()

	dm := newPlantedDM(2500)
	start := time.Now()
	if err := srv.Submit(ctx, &dist.Problem{ID: "planted", DM: dm}); err != nil {
		t.Fatalf("Submit planted: %v", err)
	}
	if _, err := srv.Wait(ctx, "planted"); err != nil {
		t.Fatalf("Wait planted: %v (quarantined %v)", err, srv.QuarantinedDonors())
	}
	elapsed := time.Since(start)
	evilSwarm.Stop()
	honestSwarm.Stop()

	// Zero wrong folds, each unit folded exactly once.
	if double, wrong := dm.audit(); len(double) > 0 || len(wrong) > 0 {
		t.Errorf("planted problem corrupted: %d double folds %v, %d wrong folds %v",
			len(double), double, len(wrong), wrong)
	}

	// Every malicious donor that got work was caught; no honest donor was.
	quarantined := make(map[string]bool)
	for _, name := range srv.QuarantinedDonors() {
		quarantined[name] = true
		if _, isEvil := evil[name]; !isEvil {
			t.Errorf("honest donor %s quarantined", name)
		}
	}
	for name, mode := range evil {
		if quarantined[name] {
			continue
		}
		// A malicious donor the dispatch never reached cannot be caught;
		// only one that computed a unit must be.
		if info, ok := srv.DonorTrust(name); ok && info.Trust != sched.TrustNeutral {
			t.Errorf("malicious donor %s (%s) touched quorums but escaped quarantine: %+v", name, mode, info)
		}
	}
	if len(quarantined) < 20 {
		t.Errorf("only %d of %d malicious donors quarantined — the fleet barely met them", len(quarantined), len(evil))
	}

	stats, err := srv.Stats(ctx, "planted")
	if err != nil {
		t.Fatalf("Stats planted: %v", err)
	}
	if stats.Verified == 0 {
		t.Error("planted problem folded no verified units")
	}
	if stats.Conflicts == 0 {
		t.Error("no quorum conflicts recorded despite 26 malicious donors")
	}
	// Honest throughput within tolerance: 2500 × 2ms units across ~230
	// honest donors is seconds of work even with every malicious unit
	// replicated; a defense that stalls the fleet fails here.
	if elapsed > 60*time.Second {
		t.Errorf("planted problem took %v — verification overhead out of tolerance", elapsed)
	}
	t.Logf("byzantine run: %v elapsed, verified %d, conflicts %d, quarantined %d/%d, fleet %+v",
		elapsed, stats.Verified, stats.Conflicts, len(quarantined), len(evil), srv.FleetTrust())
}
