package dprml

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/phylo"
	"repro/internal/sched"
)

// TestMultiInstanceConcurrent runs three DPRml instances (distinct addition
// orders) concurrently on one server — the Figure 2 usage pattern on the
// real (non-simulated) framework — and checks each matches its own
// sequential reference bit-for-bit.
func TestMultiInstanceConcurrent(t *testing.T) {
	aln, _ := simAlignment(t, 6, 250, 77)
	opts := testOpts()
	taxa := aln.Taxa()
	orders := [][]string{
		nil,
		{taxa[5], taxa[4], taxa[3], taxa[2], taxa[1], taxa[0]},
		{taxa[2], taxa[0], taxa[4], taxa[1], taxa[5], taxa[3]},
	}

	// Sequential references.
	refs := make([]*TreeResult, len(orders))
	for i, ord := range orders {
		o := opts
		o.AdditionOrder = ord
		ref, err := BuildTreeLocal(aln, o)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}

	ctx := context.Background()
	srv := dist.NewServer(
		dist.WithPolicy(sched.Adaptive{Target: 50 * time.Millisecond, Bootstrap: 2000, Min: 1}),
		dist.WithLeaseTTL(time.Hour),
		dist.WithExpiryScan(time.Hour),
	)
	defer srv.Close()
	for i, ord := range orders {
		o := opts
		o.AdditionOrder = ord
		p, err := NewProblem(fmt.Sprintf("multi-%d", i), aln, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Submit(ctx, p); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	var donors []*dist.Donor
	for i := 0; i < 4; i++ {
		d := dist.NewDonor(srv, dist.WithName(fmt.Sprintf("w%d", i)))
		donors = append(donors, d)
		wg.Add(1)
		go func() { defer wg.Done(); _ = d.Run(ctx) }()
	}

	for i := range orders {
		out, err := srv.Wait(ctx, fmt.Sprintf("multi-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResult(out)
		if err != nil {
			t.Fatal(err)
		}
		gt, err := phylo.ParseNewick(got.Newick)
		if err != nil {
			t.Fatal(err)
		}
		rt, _ := phylo.ParseNewick(refs[i].Newick)
		if !phylo.SameTopology(gt, rt) {
			t.Errorf("instance %d: topology differs from its sequential reference", i)
		}
		if diff := got.LogL - refs[i].LogL; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("instance %d: logL %g vs reference %g", i, got.LogL, refs[i].LogL)
		}
	}

	// All donors contributed (round-robin spreads the stage work).
	for _, d := range donors {
		d.Stop()
	}
	wg.Wait()
	working := 0
	for _, d := range donors {
		if d.Units() > 0 {
			working++
		}
	}
	if working < 2 {
		t.Errorf("only %d of 4 donors did any work in the multi-instance run", working)
	}
}
