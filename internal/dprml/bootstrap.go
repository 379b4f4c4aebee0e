package dprml

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/phylo"
	"repro/internal/sched"
	"repro/internal/seq"
)

// Nonparametric bootstrap analysis (Felsenstein 1985) on the distributed
// system: B column-resampled replicates of the alignment are submitted as
// B concurrent DPRml instances — the same shape as Figure 2's "6 problems
// simultaneously", which is exactly why the multi-instance pattern matters
// in practice — and the replicate trees are summarised as a majority-rule
// consensus whose branch "lengths" are bootstrap support fractions.

// BootstrapResult is the outcome of a bootstrap analysis.
type BootstrapResult struct {
	// Consensus is the majority-rule consensus of the replicate trees;
	// internal branch lengths are support fractions in [0.5, 1].
	Consensus *phylo.Tree
	// Replicates holds each replicate's final tree.
	Replicates []*TreeResult
	// Support maps each consensus bipartition to its replicate fraction.
	Support map[phylo.Bipartition]float64
}

// Bootstrap runs B bootstrap replicates of a DPRml build concurrently on
// nWorkers in-process workers and returns the consensus. Seeds the column
// resampling with seed, seed+1, ... so runs are reproducible. Cancelling
// ctx abandons the analysis.
func Bootstrap(ctx context.Context, aln *seq.Alignment, opts Options, b, nWorkers int, policy sched.Policy, seed int64) (*BootstrapResult, error) {
	if b < 2 {
		return nil, fmt.Errorf("dprml: bootstrap needs >= 2 replicates, got %d", b)
	}
	if nWorkers < 1 {
		nWorkers = 1
	}
	srv := dist.NewServer(
		dist.WithPolicy(policy),
		dist.WithLeaseTTL(time.Hour),
		dist.WithExpiryScan(time.Hour),
	)
	defer srv.Close()

	ids := make([]string, b)
	for i := 0; i < b; i++ {
		rep, err := seq.BootstrapAlignment(aln, seed+int64(i))
		if err != nil {
			return nil, err
		}
		p, err := NewProblem(fmt.Sprintf("bootstrap-%03d", i), rep, opts)
		if err != nil {
			return nil, fmt.Errorf("dprml: replicate %d: %w", i, err)
		}
		if err := srv.Submit(ctx, p); err != nil {
			return nil, err
		}
		ids[i] = p.ID
	}

	var wg sync.WaitGroup
	donors := make([]*dist.Donor, nWorkers)
	for i := range donors {
		donors[i] = dist.NewDonor(srv, dist.WithName(fmt.Sprintf("bs-w%d", i)))
		wg.Add(1)
		go func(d *dist.Donor) { defer wg.Done(); _ = d.Run(ctx) }(donors[i])
	}
	defer func() {
		for _, d := range donors {
			d.Stop()
		}
		wg.Wait()
	}()

	res := &BootstrapResult{Replicates: make([]*TreeResult, b)}
	trees := make([]*phylo.Tree, b)
	for i, id := range ids {
		out, err := srv.Wait(ctx, id)
		if err != nil {
			return nil, fmt.Errorf("dprml: replicate %d failed: %w", i, err)
		}
		tr, err := DecodeResult(out)
		if err != nil {
			return nil, err
		}
		res.Replicates[i] = tr
		trees[i], err = phylo.ParseNewick(tr.Newick)
		if err != nil {
			return nil, err
		}
	}

	support, err := phylo.SplitSupport(trees)
	if err != nil {
		return nil, err
	}
	cons, err := phylo.MajorityRuleConsensus(trees)
	if err != nil {
		return nil, err
	}
	res.Consensus = cons
	res.Support = make(map[phylo.Bipartition]float64)
	for s := range cons.Bipartitions() {
		res.Support[s] = support[s]
	}
	return res, nil
}
