// Package dprml implements DPRml (Keane et al. 2004): distributed
// phylogeny reconstruction by maximum likelihood on the paper's system.
//
// The algorithm is stepwise insertion (fastDNAml's strategy, which the
// paper describes as "an already proven tree building algorithm"): start
// from the unique 3-taxon tree; to add taxon k, evaluate inserting it on
// every edge of the current (k-1)-leaf tree (2k-5 candidates), keep the
// maximum-likelihood candidate, and repeat. Each stage's candidate
// evaluations are independent, so they form the work units the distributed
// system parallelises; stages are separated by barriers, which is why a
// single DPRml instance leaves donors idle and biologists run several
// instances concurrently (Figure 2).
package dprml

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"repro/internal/dist"
	"repro/internal/likelihood"
	"repro/internal/phylo"
	"repro/internal/seq"
)

// AlgorithmName is the donor-side registry key.
const AlgorithmName = "dprml/v1"

// Options configures a DPRml run; zero values get sensible defaults.
type Options struct {
	// Model is a likelihood.ModelByName spec, e.g. "HKY85:kappa=2". The
	// wide model menu is one of DPRml's advertised strengths.
	Model string
	// GammaCategories > 1 enables discrete-gamma rate heterogeneity with
	// shape GammaAlpha.
	GammaCategories int
	GammaAlpha      float64
	// AdditionOrder lists taxa in insertion order; empty means alignment
	// row order. (Biologists randomise this per run — the stochastic
	// element behind running several instances.)
	AdditionOrder []string
	// LocalRounds is how many Brent passes optimise the three branches a
	// candidate insertion creates.
	LocalRounds int
	// FinalRounds is how many full branch-length smoothing passes run on
	// the completed topology.
	FinalRounds int
	// BranchTolerance is Brent's x tolerance.
	BranchTolerance float64
	// InitialBranchLength seeds new branches.
	InitialBranchLength float64
}

func (o *Options) applyDefaults() {
	if o.Model == "" {
		o.Model = "HKY85:kappa=2"
	}
	if o.GammaCategories <= 0 {
		o.GammaCategories = 1
	}
	if o.GammaAlpha <= 0 {
		o.GammaAlpha = 0.5
	}
	if o.LocalRounds <= 0 {
		o.LocalRounds = 1
	}
	if o.FinalRounds <= 0 {
		o.FinalRounds = 2
	}
	if o.BranchTolerance <= 0 {
		o.BranchTolerance = 1e-4
	}
	if o.InitialBranchLength <= 0 {
		o.InitialBranchLength = 0.1
	}
}

// sharedData is the per-problem blob donors fetch once.
type sharedData struct {
	AlignmentFasta []byte
	Options        Options
}

// taskUnit is one work unit of one of two kinds: an insertion unit
// evaluates inserting Taxon on each of Edges (indices into the
// deterministic pre-order edge enumeration of Tree); a FullOptimize unit
// smooths every branch of Tree (the triplet warm-up and the finished
// topology).
type taskUnit struct {
	Tree         string
	Taxon        string
	Edges        []int
	FullOptimize bool
	// Rounds overrides Options.FinalRounds for FullOptimize units (the
	// triplet warm-up uses a single pass, matching the sequential
	// reference).
	Rounds int
}

// taskResult reports the best candidate of a unit: for an insertion unit
// the winning edge, its log-likelihood and the optimised tree; for a
// FullOptimize unit BestEdge is -1 and BestTree is the smoothed Tree.
type taskResult struct {
	BestEdge int
	BestLogL float64
	BestTree string
}

// TreeResult is the decoded final answer.
type TreeResult struct {
	Newick string
	LogL   float64
}

// evalContext is the donor-side ML machinery shared by the distributed
// algorithm and the sequential reference implementation.
type evalContext struct {
	eval *likelihood.Evaluator
	opts Options
	aln  *seq.Alignment
	data *likelihood.CompressedAlignment
}

func newEvalContext(aln *seq.Alignment, opts Options) (*evalContext, error) {
	opts.applyDefaults()
	model, err := likelihood.ModelByName(opts.Model)
	if err != nil {
		return nil, err
	}
	rates := likelihood.UniformRates()
	if opts.GammaCategories > 1 {
		rates, err = likelihood.DiscreteGamma(opts.GammaAlpha, opts.GammaCategories)
		if err != nil {
			return nil, err
		}
	}
	data := likelihood.Compress(aln)
	eval, err := likelihood.NewEvaluator(model, rates, data)
	if err != nil {
		return nil, err
	}
	return &evalContext{eval: eval, opts: opts, aln: aln, data: data}, nil
}

// bestInsertion scores inserting taxon on the given edges of host (indices into
// its pre-order edge enumeration) and returns the winner: the best edge,
// its log-likelihood and the host with the taxon inserted there. The host's
// partials are computed once and each candidate is scored on a three-branch
// star (likelihood.InsertionScorer); only the winner's tree is built. ctx
// is checked before each candidate.
func (c *evalContext) bestInsertion(ctx context.Context, host *phylo.Tree, taxon string, edges []int) (int, float64, *phylo.Tree, error) {
	s, err := c.eval.NewInsertionScorer(host, taxon)
	if err != nil {
		return 0, 0, nil, err
	}
	all := host.Edges()
	bestEdge := -1
	var best likelihood.Insertion
	for _, idx := range edges {
		if err := ctx.Err(); err != nil {
			return 0, 0, nil, err
		}
		if idx < 0 || idx >= len(all) {
			return 0, 0, nil, fmt.Errorf("dprml: edge index %d out of range (%d edges)", idx, len(all))
		}
		ins, err := s.Score(all[idx].Child, c.opts.InitialBranchLength, c.opts.LocalRounds, c.opts.BranchTolerance)
		if err != nil {
			return 0, 0, nil, err
		}
		if bestEdge < 0 || better(ins.LogL, idx, best.LogL, bestEdge) {
			bestEdge, best = idx, ins
		}
	}
	if bestEdge < 0 {
		return 0, 0, nil, fmt.Errorf("dprml: unit had no edges")
	}
	tree := host.Clone()
	leaf, err := tree.InsertLeafOnEdge(tree.Edges()[bestEdge], taxon, best.Leaf)
	if err != nil {
		return 0, 0, nil, err
	}
	mid := leaf.Parent
	mid.Length, mid.Children[0].Length = best.Mid, best.Child
	return bestEdge, best.LogL, tree, nil
}

// better reports whether candidate (ll, edge) beats the incumbent —
// higher likelihood wins, ties break to the lower edge index so results
// are independent of unit batching and arrival order.
func better(ll float64, edge int, bestLL float64, bestEdge int) bool {
	if ll != bestLL {
		return ll > bestLL
	}
	return edge < bestEdge
}

// Algorithm is the donor-side computation. It implements the typed
// dist.TypedAlgorithm[sharedData, taskUnit, taskResult]; the adapter owns
// the gob codec.
type Algorithm struct {
	ctx *evalContext
}

var _ dist.TypedAlgorithm[sharedData, taskUnit, taskResult] = (*Algorithm)(nil)

// Init implements dist.TypedAlgorithm.
func (a *Algorithm) Init(sd sharedData) error {
	aln, err := seq.ReadAlignmentFASTA(bytes.NewReader(sd.AlignmentFasta))
	if err != nil {
		return err
	}
	ctx, err := newEvalContext(aln, sd.Options)
	if err != nil {
		return err
	}
	a.ctx = ctx
	return nil
}

// ProcessCtx implements dist.TypedAlgorithm. Cancellation is checked
// before each candidate edge (and before a FullOptimize pass), so a
// server-side Forget aborts the unit within one likelihood optimisation.
func (a *Algorithm) ProcessCtx(ctx context.Context, u taskUnit) (taskResult, error) {
	base, err := phylo.ParseNewick(u.Tree)
	if err != nil {
		return taskResult{}, fmt.Errorf("dprml: unit tree: %w", err)
	}
	if u.FullOptimize {
		if err := ctx.Err(); err != nil {
			return taskResult{}, err
		}
		rounds := u.Rounds
		if rounds <= 0 {
			rounds = a.ctx.opts.FinalRounds
		}
		ll, err := a.ctx.eval.OptimizeBranchLengths(base, rounds, a.ctx.opts.BranchTolerance)
		if err != nil {
			return taskResult{}, err
		}
		return taskResult{BestEdge: -1, BestLogL: ll, BestTree: base.String()}, nil
	}
	idx, ll, tree, err := a.ctx.bestInsertion(ctx, base, u.Taxon, u.Edges)
	if err != nil {
		return taskResult{}, err
	}
	return taskResult{BestEdge: idx, BestLogL: ll, BestTree: tree.String()}, nil
}

func init() {
	dist.RegisterTypedAlgorithm(AlgorithmName, func() dist.TypedAlgorithm[sharedData, taskUnit, taskResult] {
		return &Algorithm{}
	})
}

// BuildTreeLocal is the sequential reference implementation of the full
// stepwise-insertion algorithm — the single-machine program DPRml
// distributes. Used for validation and as the baseline in benchmarks.
func BuildTreeLocal(aln *seq.Alignment, opts Options) (*TreeResult, error) {
	order, err := additionOrder(aln, opts)
	if err != nil {
		return nil, err
	}
	ctx, err := newEvalContext(aln, opts)
	if err != nil {
		return nil, err
	}
	tree := phylo.Triplet(order[0], order[1], order[2], ctx.opts.InitialBranchLength)
	if _, err := ctx.eval.OptimizeBranchLengths(tree, 1, ctx.opts.BranchTolerance); err != nil {
		return nil, err
	}
	bg := context.Background() //dist:allow-background BuildTreeLocal takes no ctx: the sequential reference runs to the end
	for _, taxon := range order[3:] {
		edges := make([]int, len(tree.Edges()))
		for i := range edges {
			edges[i] = i
		}
		if _, _, tree, err = ctx.bestInsertion(bg, tree, taxon, edges); err != nil {
			return nil, err
		}
	}
	ll, err := ctx.eval.OptimizeBranchLengths(tree, ctx.opts.FinalRounds, ctx.opts.BranchTolerance)
	if err != nil {
		return nil, err
	}
	return &TreeResult{Newick: tree.String(), LogL: ll}, nil
}

func additionOrder(aln *seq.Alignment, opts Options) ([]string, error) {
	order := opts.AdditionOrder
	if len(order) == 0 {
		order = aln.Taxa()
	}
	if len(order) < 3 {
		return nil, fmt.Errorf("dprml: need at least 3 taxa, got %d", len(order))
	}
	seen := make(map[string]bool, len(order))
	for _, t := range order {
		if aln.Row(t) == nil {
			return nil, fmt.Errorf("dprml: taxon %q not in alignment", t)
		}
		if seen[t] {
			return nil, fmt.Errorf("dprml: duplicate taxon %q in addition order", t)
		}
		seen[t] = true
	}
	if len(order) != aln.NTaxa() {
		return nil, fmt.Errorf("dprml: addition order lists %d of %d taxa", len(order), aln.NTaxa())
	}
	return order, nil
}

// DecodeResult unpacks a completed problem's final payload.
func DecodeResult(payload []byte) (*TreeResult, error) {
	r, err := dist.Decode[TreeResult](payload)
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// FormatTree pretty-prints a result for reports.
func (r *TreeResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "logL = %.4f\n%s\n", r.LogL, r.Newick)
	return b.String()
}
