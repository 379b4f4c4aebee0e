// DPRml example: distributed phylogeny reconstruction by maximum
// likelihood. An alignment is simulated on a known random tree, then
// reconstructed by distributed stepwise insertion — including the paper's
// headline usage pattern of running several independent instances
// concurrently on one server so donors stay busy across stage barriers
// (Figure 2's "6 problems simultaneously").
//
// Run:
//
//	go run ./examples/dprml
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/dprml"
	"repro/internal/likelihood"
	"repro/internal/phylo"
	"repro/internal/sched"
)

func main() {
	// Simulate a 12-taxon, 600-site DNA alignment under HKY85 on a random
	// tree — the "truth" the reconstruction should recover.
	taxa := make([]string, 12)
	for i := range taxa {
		taxa[i] = fmt.Sprintf("taxon%02d", i)
	}
	truth, err := likelihood.RandomTree(taxa, 0.05, 0.30, 7)
	if err != nil {
		log.Fatal(err)
	}
	model, err := likelihood.NewHKY85(2, [4]float64{0.3, 0.2, 0.2, 0.3})
	if err != nil {
		log.Fatal(err)
	}
	aln, err := likelihood.Simulate(truth, model, likelihood.UniformRates(), 600, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d taxa x %d sites under HKY85\n", aln.NTaxa(), aln.NSites())

	opts := dprml.Options{Model: "HKY85:kappa=2", LocalRounds: 1, FinalRounds: 2}

	// The paper's usage pattern: biologists run the stochastic search
	// several times with different (randomised) taxon addition orders and
	// keep the best tree. Submit three instances to one server; its
	// round-robin dispatch keeps workers busy across each instance's stage
	// barriers.
	orders := [][]string{
		nil, // alignment order
		rotate(aln.Taxa(), 4),
		reverse(aln.Taxa()),
	}
	ctx := context.Background()
	srv := dist.NewServer(
		dist.WithPolicy(sched.Adaptive{Target: 200 * time.Millisecond, Bootstrap: 5000, Min: 1}),
		dist.WithLeaseTTL(time.Hour),
	)
	defer srv.Close()

	ids := make([]string, len(orders))
	for i, ord := range orders {
		o := opts
		o.AdditionOrder = ord
		p, err := dprml.NewProblem(fmt.Sprintf("dprml-%d", i), aln, o)
		if err != nil {
			log.Fatal(err)
		}
		if err := srv.Submit(ctx, p); err != nil {
			log.Fatal(err)
		}
		ids[i] = p.ID
	}

	const workers = 6
	var wg sync.WaitGroup
	donors := make([]*dist.Donor, workers)
	for i := range donors {
		donors[i] = dist.NewDonor(srv, dist.WithName(fmt.Sprintf("w%d", i)))
		wg.Add(1)
		go func(d *dist.Donor) { defer wg.Done(); _ = d.Run(ctx) }(donors[i])
	}

	start := time.Now()
	best := (*dprml.TreeResult)(nil)
	for _, id := range ids {
		out, err := srv.Wait(ctx, id)
		if err != nil {
			log.Fatal(err)
		}
		// Evict each instance once its result is delivered: the
		// Submit → Wait → Forget lifecycle a long-lived multi-problem
		// server uses to stay bounded.
		if err := srv.Forget(id); err != nil {
			log.Fatal(err)
		}
		res, err := dprml.DecodeResult(out)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s: logL %.2f\n", id, res.LogL)
		if best == nil || res.LogL > best.LogL {
			best = res
		}
	}
	for _, d := range donors {
		d.Stop()
	}
	wg.Wait()
	fmt.Printf("3 instances on %d workers in %s\n", workers, time.Since(start).Round(time.Millisecond))

	got, err := phylo.ParseNewick(best.Newick)
	if err != nil {
		log.Fatal(err)
	}
	rf, err := phylo.RobinsonFoulds(got, truth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("best tree: logL %.2f, Robinson-Foulds distance to truth %d\n%s\n", best.LogL, rf, best.Newick)
}

func rotate(xs []string, k int) []string {
	out := make([]string, len(xs))
	for i := range xs {
		out[i] = xs[(i+k)%len(xs)]
	}
	return out
}

func reverse(xs []string) []string {
	out := make([]string, len(xs))
	for i := range xs {
		out[len(xs)-1-i] = xs[i]
	}
	return out
}
