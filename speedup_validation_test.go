package repro

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

// This file retires a ROADMAP open item: regenerate the paper's speedup
// curves from the *real* runtime — dist.ListenAndServe, real loopback
// sockets, real donor loops — and check them against the internal/figures
// (simnet) prediction for the same parameters. The figure benchmarks only
// exercise the simulator; this test pins the simulator to reality.

// spinAlg sleeps for the unit's declared cost so compute time is exactly
// cost * spinMsPerCost, the same analytic model (cost units / donor speed)
// the simulator uses — which is what makes real and simulated makespans
// comparable. Sleeping (not burning CPU) keeps N in-process donors
// "computing" concurrently on any machine, like N real lab PCs would.
type spinAlg struct{}

const spinMsPerCost = 2 * time.Millisecond

func (spinAlg) Init([]byte) error { return nil }

func (spinAlg) ProcessCtx(ctx context.Context, payload []byte) ([]byte, error) {
	cost := int64(payload[0])
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(time.Duration(cost) * spinMsPerCost):
	}
	return []byte{1}, nil
}

var registerSpinOnce sync.Once

// spinDM hands out `units` work units of identical cost.
type spinDM struct {
	units    int64
	unitCost int64
	seq      int64
	done     int64
}

func (d *spinDM) NextUnit(int64) (*dist.Unit, bool, error) {
	if d.seq >= d.units {
		return nil, false, nil
	}
	d.seq++
	return &dist.Unit{
		ID:        d.seq,
		Algorithm: "it/spin",
		Payload:   []byte{byte(d.unitCost)},
		Cost:      d.unitCost,
	}, true, nil
}

func (d *spinDM) Consume(int64, []byte) error  { d.done++; return nil }
func (d *spinDM) Done() bool                   { return d.done >= d.units }
func (d *spinDM) FinalResult() ([]byte, error) { return nil, nil }

// measureRealMakespan runs the synthetic workload on a real network server
// with n in-process donors attached over loopback Dial and returns the
// Submit-to-result wall time.
func measureRealMakespan(t *testing.T, n int, units, unitCost int64) time.Duration {
	t.Helper()
	srv, err := dist.ListenAndServe("127.0.0.1:0", "127.0.0.1:0",
		dist.WithPolicy(sched.Fixed{Size: unitCost}),
		dist.WithLeaseTTL(time.Hour),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	pool := make([]*dist.Donor, n)
	for i := range pool {
		cl, err := dist.Dial(srv.RPCAddr(), 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		pool[i] = dist.NewDonor(cl, dist.WithName(fmt.Sprintf("spin-%d-%d", n, i)))
		wg.Add(1)
		go func(d *dist.Donor) { defer wg.Done(); _ = d.Run(context.Background()) }(pool[i])
	}
	defer func() {
		for _, d := range pool {
			d.Stop()
		}
		wg.Wait()
	}()

	start := time.Now()
	if err := srv.Submit(context.Background(), &dist.Problem{
		ID: fmt.Sprintf("spin-%d", n),
		DM: &spinDM{units: units, unitCost: unitCost},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Wait(context.Background(), fmt.Sprintf("spin-%d", n)); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// TestRealRuntimeSpeedupMatchesFigures drives 1/2/4/8-donor pools through
// the full network stack on a synthetic equal-cost workload and demands
// the measured speedup curve stay within tolerance of the simnet curve
// internal/figures would predict for the same parameters (equal-speed
// donors, no owner load, same unit sizing). Guarded by -short: the n=1
// baseline alone is units*unitCost*spinMsPerCost of real wall time.
func TestRealRuntimeSpeedupMatchesFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("real-runtime speedup curve skipped in -short mode")
	}
	registerSpinOnce.Do(func() {
		dist.RegisterAlgorithm("it/spin", func() dist.Algorithm { return spinAlg{} })
	})

	counts := []int{1, 2, 4, 8}
	const (
		units    = 48
		unitCost = 25 // per-unit compute: 25 * 2ms = 50ms
	)

	// The prediction: the same workload shape through the discrete-event
	// simulator the figure series is generated from. One simulated cost
	// unit is one simulated second; speedup ratios are scale-free, so the
	// differing time base does not matter — only the workload's shape and
	// the donor pool's uniformity do.
	predicted, err := simnet.SpeedupCurve(counts,
		func(n int) []simnet.DonorSpec {
			return simnet.Uniform(n, 1.0, 0, time.Millisecond, 0)
		},
		func() []simnet.Workload {
			return []simnet.Workload{simnet.NewDivisibleWorkload(units*unitCost, 1, 64)}
		},
		simnet.Config{
			Policy:         sched.Fixed{Size: unitCost},
			ServerOverhead: time.Millisecond,
			Lease:          time.Hour,
			Seed:           7,
		})
	if err != nil {
		t.Fatal(err)
	}
	predBySize := make(map[int]float64, len(predicted))
	for _, p := range predicted {
		predBySize[p.Donors] = p.Speedup
	}

	base := measureRealMakespan(t, 1, units, unitCost)
	t.Logf("real runtime: 1 donor makespan %s (ideal %s)", base.Round(time.Millisecond),
		time.Duration(units*unitCost)*spinMsPerCost)
	for _, n := range counts[1:] {
		m := measureRealMakespan(t, n, units, unitCost)
		real := base.Seconds() / m.Seconds()
		pred := predBySize[n]
		t.Logf("real runtime: %d donors makespan %s, speedup %.2f (simnet predicts %.2f)",
			n, m.Round(time.Millisecond), real, pred)
		if pred == 0 {
			t.Fatalf("no simnet prediction for %d donors", n)
		}
		// 25% tolerance absorbs what separates a real deployment from the
		// simulator: RPC round trips, gob codecs, goroutine scheduling.
		// A broken dispatch path (serialized donors, lost wakeups, refused
		// parallelism) misses by far more — e.g. speedup 1.0 vs ~8.
		if ratio := real / pred; ratio < 0.75 || ratio > 1.25 {
			t.Errorf("%d donors: measured speedup %.2f vs predicted %.2f (ratio %.2f outside [0.75, 1.25])",
				n, real, pred, ratio)
		}
	}
}
