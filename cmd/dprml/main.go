// Command dprml builds a maximum-likelihood phylogenetic tree by stepwise
// insertion on the local machine, parallelised over in-process workers —
// the single-box form of DPRml. For multi-machine runs use
// cmd/server -app dprml plus cmd/donor.
//
// Usage:
//
//	dprml -alignment aln.fasta [-model HKY85:kappa=2] [-gamma 4 -alpha 0.5] [-workers 8]
//
// Flags reproducing the paper's usage patterns:
//
//	-runs N      run N instances concurrently with rotated taxon addition
//	             orders (the stochastic multi-instance pattern of Fig. 2),
//	             report the best tree and the majority-rule consensus
//	-estimate    estimate kappa (and alpha if -gamma > 1) on a neighbor-
//	             joining starting tree before the ML build
//	-demo        simulate an alignment on a random tree and reconstruct it,
//	             reporting Robinson-Foulds distance to the truth
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/dprml"
	"repro/internal/likelihood"
	"repro/internal/phylo"
	"repro/internal/sched"
	"repro/internal/seq"
)

func main() {
	var (
		alnPath   = flag.String("alignment", "", "FASTA alignment of DNA sequences")
		model     = flag.String("model", "HKY85:kappa=2", "substitution model spec (JC69 | K80:kappa=K | F81 | F84:kappa=K | HKY85:kappa=K | TN93:... | GTR:...)")
		gamma     = flag.Int("gamma", 1, "discrete-gamma rate categories (1 = uniform rates)")
		alpha     = flag.Float64("alpha", 0.5, "gamma shape parameter")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "in-process workers")
		policy    = flag.String("policy", "adaptive:1s", "scheduling policy")
		order     = flag.String("order", "", "comma-separated taxon addition order (default: alignment order)")
		runs      = flag.Int("runs", 1, "concurrent instances with rotated addition orders")
		estimate  = flag.Bool("estimate", false, "estimate kappa (and alpha) on an NJ tree first")
		selModel  = flag.Bool("select", false, "choose the model family by AIC on an NJ tree first")
		criterion = flag.String("criterion", "aic", "model-selection criterion (aic | bic)")
		midpoint  = flag.Bool("midpoint", false, "midpoint-root the reported tree")
		ancestral = flag.Bool("ancestral", false, "reconstruct the marginal ancestral root sequence")
		bootstrap = flag.Int("bootstrap", 0, "run N bootstrap replicates concurrently and report consensus support")
		demo      = flag.Bool("demo", false, "simulate a 20-taxon alignment and reconstruct it")
		demoN     = flag.Int("demo-taxa", 20, "demo: number of taxa")
		demoL     = flag.Int("demo-sites", 500, "demo: alignment length")
		seed      = flag.Int64("seed", 1, "demo simulation seed")
	)
	flag.Parse()

	pol, err := sched.ByName(*policy)
	if err != nil {
		log.Fatal(err)
	}
	opts := dprml.Options{Model: *model, GammaCategories: *gamma, GammaAlpha: *alpha}
	if *order != "" {
		opts.AdditionOrder = strings.Split(*order, ",")
	}

	var aln *seq.Alignment
	var truth *phylo.Tree
	switch {
	case *demo:
		aln, truth = demoAlignment(*demoN, *demoL, *seed)
		fmt.Printf("simulated %d taxa x %d sites (HKY85, seed %d)\n", *demoN, *demoL, *seed)
	case *alnPath != "":
		f, err := os.Open(*alnPath)
		if err != nil {
			log.Fatal(err)
		}
		aln, err = seq.ReadAlignmentFASTA(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	if st, err := seq.ComputeSiteStats(aln); err == nil {
		fmt.Println(st.String())
	}

	if *selModel {
		opts.Model = selectModel(aln, *criterion)
	} else if *estimate {
		opts.Model = estimateModel(aln, *gamma, &opts)
	}

	if *bootstrap > 0 {
		start := time.Now()
		res, err := dprml.Bootstrap(context.Background(), aln, opts, *bootstrap, *workers, pol, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d bootstrap replicates on %d workers in %s\n",
			*bootstrap, *workers, time.Since(start).Round(time.Millisecond))
		fmt.Printf("majority-rule consensus (branch lengths = bootstrap support):\n%s\n",
			res.Consensus.String())
		for s, frac := range res.Support {
			fmt.Printf("  %5.1f%%  %s\n", 100*frac, s)
		}
		return
	}

	start := time.Now()
	results := runInstances(aln, opts, *runs, *workers, pol)
	best := results[0]
	for _, r := range results[1:] {
		if r.LogL > best.LogL {
			best = r
		}
	}
	fmt.Printf("%d taxa, %d sites, model %s, %d run(s), %d workers, %s\n",
		aln.NTaxa(), aln.NSites(), opts.Model, *runs, *workers, time.Since(start).Round(time.Millisecond))
	for i, r := range results {
		fmt.Printf("  run %d: logL %.4f\n", i, r.LogL)
	}
	fmt.Printf("best tree:\n%s", best.String())

	if len(results) > 1 {
		var trees []*phylo.Tree
		for _, r := range results {
			tr, err := phylo.ParseNewick(r.Newick)
			if err != nil {
				log.Fatal(err)
			}
			trees = append(trees, tr)
		}
		cons, err := phylo.MajorityRuleConsensus(trees)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("majority-rule consensus of %d runs (branch lengths = split support):\n%s\n",
			len(results), cons.String())
		khCompare(aln, opts, results, best)
	}

	if *midpoint {
		tr, err := phylo.ParseNewick(best.Newick)
		if err != nil {
			log.Fatal(err)
		}
		rooted, err := tr.MidpointRoot()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("midpoint-rooted:\n%s\n", rooted.String())
	}

	if *ancestral {
		printAncestral(aln, best, opts)
	}

	if truth != nil {
		got, err := phylo.ParseNewick(best.Newick)
		if err != nil {
			log.Fatal(err)
		}
		d, err := phylo.RobinsonFoulds(got, truth)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Robinson-Foulds distance to simulation truth: %d\n", d)
	}
}

// khCompare runs the Kishino-Hasegawa test between the best run and the
// runner-up (skipping runs with the identical topology).
func khCompare(aln *seq.Alignment, opts dprml.Options, results []*dprml.TreeResult, best *dprml.TreeResult) {
	bestTree, err := phylo.ParseNewick(best.Newick)
	if err != nil {
		return
	}
	var rival *dprml.TreeResult
	for _, r := range results {
		if r == best {
			continue
		}
		tr, err := phylo.ParseNewick(r.Newick)
		if err != nil || phylo.SameTopology(tr, bestTree) {
			continue
		}
		if rival == nil || r.LogL > rival.LogL {
			rival = r
		}
	}
	if rival == nil {
		fmt.Println("all runs found the same topology — no KH comparison needed")
		return
	}
	model, err := likelihood.ModelByName(opts.Model)
	if err != nil {
		return
	}
	rates := likelihood.UniformRates()
	if opts.GammaCategories > 1 {
		if rates, err = likelihood.DiscreteGamma(opts.GammaAlpha, opts.GammaCategories); err != nil {
			return
		}
	}
	ev, err := likelihood.NewEvaluator(model, rates, likelihood.Compress(aln))
	if err != nil {
		return
	}
	rivalTree, err := phylo.ParseNewick(rival.Newick)
	if err != nil {
		return
	}
	res, err := ev.KHTest(bestTree, rivalTree)
	if err != nil {
		return
	}
	verdict := "NOT significant — treat the topologies as tied"
	if res.PValue < 0.05 {
		verdict = "significant at 5%"
	}
	fmt.Printf("KH test, best vs runner-up topology: delta logL %.2f ± %.2f (p = %.3g, %s)\n",
		res.Delta, res.StdErr, res.PValue, verdict)
}

// printAncestral reconstructs and prints the marginal root sequence of the
// best tree.
func printAncestral(aln *seq.Alignment, best *dprml.TreeResult, opts dprml.Options) {
	tr, err := phylo.ParseNewick(best.Newick)
	if err != nil {
		log.Fatal(err)
	}
	model, err := likelihood.ModelByName(opts.Model)
	if err != nil {
		log.Fatal(err)
	}
	rates := likelihood.UniformRates()
	if opts.GammaCategories > 1 {
		rates, err = likelihood.DiscreteGamma(opts.GammaAlpha, opts.GammaCategories)
		if err != nil {
			log.Fatal(err)
		}
	}
	ev, err := likelihood.NewEvaluator(model, rates, likelihood.Compress(aln))
	if err != nil {
		log.Fatal(err)
	}
	res, err := ev.AncestralRoot(tr)
	if err != nil {
		log.Fatal(err)
	}
	lowConf := 0
	for _, p := range res.Posterior {
		if p < 0.9 {
			lowConf++
		}
	}
	fmt.Printf("ancestral root sequence (%d sites, %d with posterior < 0.9):\n", len(res.Sequence), lowConf)
	for at := 0; at < len(res.Sequence); at += 70 {
		end := at + 70
		if end > len(res.Sequence) {
			end = len(res.Sequence)
		}
		fmt.Printf("  %s\n", res.Sequence[at:end])
	}
}

// runInstances submits n DPRml problems (rotated addition orders) to one
// server and runs them concurrently on the worker pool — Figure 2's usage.
// Each instance's Watch stream drives a taxa-placed progress display (the
// v2 replacement for polling Status in a ticker loop).
func runInstances(aln *seq.Alignment, opts dprml.Options, n, workers int, pol sched.Policy) []*dprml.TreeResult {
	if n < 1 {
		n = 1
	}
	ctx := context.Background()
	srv := dist.NewServer(
		dist.WithPolicy(pol),
		dist.WithLeaseTTL(time.Hour),
	)
	defer srv.Close()

	taxa := aln.Taxa()
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		o := opts
		if n > 1 {
			rot := make([]string, len(taxa))
			for j := range taxa {
				rot[j] = taxa[(j+i*len(taxa)/n)%len(taxa)]
			}
			o.AdditionOrder = rot
		}
		p, err := dprml.NewProblem(fmt.Sprintf("dprml-%d", i), aln, o)
		if err != nil {
			log.Fatal(err)
		}
		if err := srv.Submit(ctx, p); err != nil {
			log.Fatal(err)
		}
		ids[i] = p.ID
		events, err := srv.Watch(ctx, p.ID)
		if err != nil {
			log.Fatal(err)
		}
		go watchStages(p.ID, events)
	}

	var wg sync.WaitGroup
	donors := make([]*dist.Donor, workers)
	for i := range donors {
		donors[i] = dist.NewDonor(srv, dist.WithName(fmt.Sprintf("w%d", i)))
		wg.Add(1)
		go func(d *dist.Donor) { defer wg.Done(); _ = d.Run(ctx) }(donors[i])
	}

	out := make([]*dprml.TreeResult, n)
	for i, id := range ids {
		raw, err := srv.Wait(ctx, id)
		if err != nil {
			log.Fatal(err)
		}
		out[i], err = dprml.DecodeResult(raw)
		if err != nil {
			log.Fatal(err)
		}
	}
	for _, d := range donors {
		d.Stop()
	}
	wg.Wait()
	return out
}

// watchStages prints a line whenever an instance places another taxon
// (AppDone advances). The event channel closes with the instance.
func watchStages(id string, events <-chan dist.Event) {
	placed := -1
	for ev := range events {
		if ev.Kind == dist.EventProgress && ev.AppDone > placed && ev.AppTotal > 0 {
			placed = ev.AppDone
			fmt.Printf("  %s: %d/%d taxa placed\n", id, placed, ev.AppTotal)
		}
	}
}

// selectModel ranks the model ladder by AIC/BIC on a neighbor-joining tree
// and returns the winner's spec.
func selectModel(aln *seq.Alignment, criterion string) string {
	nj, err := phylo.NeighborJoining(phylo.AlignmentDistances(aln))
	if err != nil {
		log.Fatal(err)
	}
	fits, err := likelihood.SelectModel(nj, aln, likelihood.SelectModelOptions{Criterion: criterion})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model selection on NJ tree (%s):\n", strings.ToUpper(criterion))
	for _, f := range fits {
		fmt.Printf("  %-6s logL %12.2f  K=%d  AIC %12.2f  BIC %12.2f\n",
			f.Name, f.LogL, f.K, f.AIC, f.BIC)
	}
	fmt.Printf("selected: %s\n", fits[0].Spec)
	return fits[0].Spec
}

// estimateModel fits kappa (and the gamma shape when gamma > 1) on a
// neighbor-joining starting tree and returns the updated model spec.
func estimateModel(aln *seq.Alignment, gamma int, opts *dprml.Options) string {
	nj, err := phylo.NeighborJoining(phylo.AlignmentDistances(aln))
	if err != nil {
		log.Fatal(err)
	}
	kappa, ll, err := likelihood.EstimateKappa(nj, aln, likelihood.EstimateKappaOptions{})
	if err != nil {
		log.Fatal(err)
	}
	pi := likelihood.EmpiricalFrequencies(aln)
	spec := fmt.Sprintf("HKY85:kappa=%.4f,piA=%.4f,piC=%.4f,piG=%.4f,piT=%.4f",
		kappa, pi[0], pi[1], pi[2], pi[3])
	fmt.Printf("estimated on NJ tree: kappa=%.3f (logL %.2f)\n", kappa, ll)
	if gamma > 1 {
		m, err := likelihood.ModelByName(spec)
		if err != nil {
			log.Fatal(err)
		}
		alphaHat, allL, err := likelihood.EstimateAlpha(nj, aln, m, gamma, 1e-3)
		if err != nil {
			log.Fatal(err)
		}
		opts.GammaAlpha = alphaHat
		fmt.Printf("estimated gamma shape: alpha=%.3f (logL %.2f)\n", alphaHat, allL)
	}
	return spec
}

func demoAlignment(nTaxa, nSites int, seed int64) (*seq.Alignment, *phylo.Tree) {
	taxa := make([]string, nTaxa)
	for i := range taxa {
		taxa[i] = fmt.Sprintf("taxon%02d", i)
	}
	tree, err := likelihood.RandomTree(taxa, 0.05, 0.3, seed)
	if err != nil {
		log.Fatal(err)
	}
	m, err := likelihood.NewHKY85(2, [4]float64{0.3, 0.2, 0.2, 0.3})
	if err != nil {
		log.Fatal(err)
	}
	aln, err := likelihood.Simulate(tree, m, likelihood.UniformRates(), nSites, seed+1)
	if err != nil {
		log.Fatal(err)
	}
	return aln, tree
}
