// Package figures regenerates the paper's evaluation artifacts: Figure 1
// (DSEARCH speedup on 83 homogeneous semi-idle processors) and Figure 2
// (DPRml speedup on a 50-taxon dataset with 6 problem instances running
// simultaneously). Both use the discrete-event cluster simulator (simnet),
// whose modelled donors drive the production dist.Server — its policies,
// leases, reissue and dispatch — in virtual time, because the paper's
// laboratory of 83 processors cannot be reproduced on one machine; `go run
// ./cmd/speedup -all` prints every series.
package figures

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/sched"
	"repro/internal/simnet"
)

// Figure1Counts are the processor counts sampled for the DSEARCH curve
// (the paper's x-axis runs to 83, the size of the homogeneous laboratory).
var Figure1Counts = []int{1, 2, 4, 8, 16, 24, 32, 48, 64, 83}

// Figure2Counts are the processor counts for the DPRml curve (the paper's
// x-axis runs to 40).
var Figure2Counts = []int{1, 5, 10, 15, 20, 25, 30, 35, 40}

// Figure1Config describes the Fig. 1 experiment: a laboratory of
// homogeneous Pentium III 1 GHz machines, "semi-idle" (light owner load),
// on a 100 Mbit/s network with a single modest server.
type Figure1Config struct {
	// TotalCost is the search's total cost in residue units.
	TotalCost int64
	// OwnerLoad is the mean background load on the semi-idle donors.
	OwnerLoad float64
	// Target is the adaptive scheduler's unit-duration target.
	Target time.Duration
	Seed   int64
}

// DefaultFigure1 mirrors the paper's setup at a simulation-friendly scale.
func DefaultFigure1() Figure1Config {
	return Figure1Config{
		// ~22 donor-hours of search at speed 1: long enough that the curve
		// is near-linear at small counts, short enough that dispatch
		// granularity and the straggler tail pull it visibly below linear
		// by 83 donors — the shape Figure 1 plots.
		TotalCost: 80_000,
		OwnerLoad: 0.15, // "semi-idle machines"
		Target:    30 * time.Second,
		Seed:      1,
	}
}

// Figure1 runs the DSEARCH speedup experiment and returns one point per
// processor count.
func Figure1(cfg Figure1Config, counts []int) ([]simnet.SpeedupPoint, error) {
	if len(counts) == 0 {
		counts = Figure1Counts
	}
	mkDonors := func(n int) []simnet.DonorSpec {
		return simnet.Uniform(n, 1.0, cfg.OwnerLoad, 2*time.Millisecond, 100e6/8)
	}
	mkWorkloads := func() []simnet.Workload {
		// ~40 bytes of database chunk per residue of cost; small result.
		return []simnet.Workload{simnet.NewDivisibleWorkload(cfg.TotalCost, 40, 4096)}
	}
	sim := simnet.Config{
		Policy:         sched.Adaptive{Target: cfg.Target, Bootstrap: 1000, Min: 100},
		ServerOverhead: 3 * time.Millisecond, // P-III 500 dispatch cost
		Lease:          5 * time.Minute,
		Seed:           cfg.Seed,
	}
	return simnet.SpeedupCurve(counts, mkDonors, mkWorkloads, sim)
}

// Figure2Config describes the Fig. 2 experiment: stepwise-insertion ML over
// a 50-taxon alignment, with several independent problem instances sharing
// the donor pool.
type Figure2Config struct {
	Taxa      int
	Instances int
	// CostScale converts one candidate topology evaluation at stage k into
	// k*CostScale cost units (~seconds at donor speed 1).
	CostScale int64
	Seed      int64
}

// DefaultFigure2 mirrors the paper: 50 taxa, 6 simultaneous instances.
func DefaultFigure2() Figure2Config {
	return Figure2Config{Taxa: 50, Instances: 6, CostScale: 1, Seed: 2}
}

// Figure2 runs the DPRml speedup experiment. Instances <= 1 produces the
// single-instance ablation the paper describes in prose ("running a single
// instance ... will result in clients becoming idle").
func Figure2(cfg Figure2Config, counts []int) ([]simnet.SpeedupPoint, error) {
	if len(counts) == 0 {
		counts = Figure2Counts
	}
	if cfg.Instances < 1 {
		cfg.Instances = 1
	}
	mkDonors := func(n int) []simnet.DonorSpec {
		return simnet.Uniform(n, 1.0, 0, 2*time.Millisecond, 100e6/8)
	}
	mkWorkloads := func() []simnet.Workload {
		ws := make([]simnet.Workload, cfg.Instances)
		for i := range ws {
			ws[i] = simnet.DPRmlWorkload(cfg.Taxa, cfg.CostScale, 64<<10, 2048)
		}
		return ws
	}
	sim := simnet.Config{
		// One candidate per unit: the natural DPRml granularity.
		Policy:         sched.Fixed{Size: 1},
		ServerOverhead: 3 * time.Millisecond,
		Lease:          5 * time.Minute,
		Seed:           cfg.Seed,
	}
	return simnet.SpeedupCurve(counts, mkDonors, mkWorkloads, sim)
}

// AdaptiveVsFixed runs the §3.1 ablation: on a heterogeneous donor pool,
// the paper's adaptive granularity against fixed-size units. Returns
// makespans keyed by policy name.
func AdaptiveVsFixed(donors int, totalCost int64, seed int64) (map[string]time.Duration, error) {
	out := make(map[string]time.Duration)
	policies := []sched.Policy{
		sched.Adaptive{Target: 30 * time.Second, Bootstrap: 1000, Min: 100},
		sched.Fixed{Size: 20000},
		sched.GSS{K: 1, Min: 100},
		sched.Factoring{Min: 100},
		sched.TSS{Min: 100},
	}
	for _, p := range policies {
		cfg := simnet.Config{
			Donors:         simnet.HeterogeneousLab(donors, seed),
			Policy:         p,
			ServerOverhead: 3 * time.Millisecond,
			Lease:          5 * time.Minute,
			Seed:           seed,
		}
		m, err := simnet.Run(cfg, simnet.NewDivisibleWorkload(totalCost, 40, 4096))
		if err != nil {
			return nil, fmt.Errorf("figures: policy %s: %w", p.Name(), err)
		}
		out[p.Name()] = m.Makespan
	}
	return out, nil
}

// WriteTable renders speedup points as the text analogue of the paper's
// figures.
func WriteTable(w io.Writer, title string, pts []simnet.SpeedupPoint) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%10s %12s %10s %10s\n", "Donors", "Makespan", "Speedup", "Effcy")
	for _, p := range pts {
		fmt.Fprintf(w, "%10d %12s %10.2f %10.3f\n",
			p.Donors, p.Makespan.Round(time.Second), p.Speedup, p.Efficiency)
	}
}

// WriteCSV emits speedup points as CSV rows tagged with a series name, for
// replotting the figures with external tools. The header is written when
// header is true (first series of a file).
func WriteCSV(w io.Writer, series string, pts []simnet.SpeedupPoint, header bool) error {
	cw := csv.NewWriter(w)
	if header {
		if err := cw.Write([]string{"series", "donors", "makespan_s", "speedup", "efficiency"}); err != nil {
			return err
		}
	}
	for _, p := range pts {
		rec := []string{
			series,
			strconv.Itoa(p.Donors),
			strconv.FormatFloat(p.Makespan.Seconds(), 'f', 3, 64),
			strconv.FormatFloat(p.Speedup, 'f', 4, 64),
			strconv.FormatFloat(p.Efficiency, 'f', 4, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
