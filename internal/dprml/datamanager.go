package dprml

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/phylo"
	"repro/internal/seq"
)

// phases of the staged computation
const (
	phaseTriplet = iota // optimise the 3-taxon starting tree
	phaseInsert         // insertion stages, one per remaining taxon
	phaseFinal          // full branch-length smoothing of the finished tree
	phaseDone
)

// DataManager drives distributed stepwise insertion. All ML computation
// happens on donors; the server only does tree bookkeeping, which is how
// the paper's modest Pentium III server coordinates 200 machines. It
// implements the typed dist.TypedDM[taskUnit, taskResult] plus the
// CostReporter, Progresser and Requeuer extensions.
type DataManager struct {
	opts  Options
	order []string

	phase    int
	taxonIdx int // index into order of the taxon being inserted
	tree     *phylo.Tree
	unitSeq  int64
	sites    int64 // the cost scale: every likelihood pass is linear in it

	// current stage bookkeeping
	stageEdges    int
	nextEdge      int
	edgesConsumed int
	pending       map[int64]*taskUnit
	// lost are the current stage's units handed back through Requeue,
	// re-issued whole before any fresh edge.
	lost     []*taskUnit
	bestEdge int
	bestLL   float64
	bestTree string

	final TreeResult
}

var (
	_ dist.TypedDM[taskUnit, taskResult] = (*DataManager)(nil)
	_ dist.CostReporter                  = (*DataManager)(nil)
	_ dist.Requeuer                      = (*DataManager)(nil)
	_ dist.Progresser                    = (*DataManager)(nil)
)

// NewDataManager builds the server-side half of a DPRml problem.
func NewDataManager(aln *seq.Alignment, opts Options) (*DataManager, error) {
	opts.applyDefaults()
	order, err := additionOrder(aln, opts)
	if err != nil {
		return nil, err
	}
	// Validate the model spec early (server side) so a typo fails at
	// submission, not on the first donor.
	if _, err := newEvalContext(aln, opts); err != nil {
		return nil, err
	}
	d := &DataManager{
		opts:    opts,
		order:   order,
		phase:   phaseTriplet,
		tree:    phylo.Triplet(order[0], order[1], order[2], opts.InitialBranchLength),
		pending: make(map[int64]*taskUnit),
		sites:   int64(aln.NSites()),
	}
	return d, nil
}

// NewProblem assembles a complete dist.Problem for a DPRml run; the typed
// adapter owns all payload marshalling.
func NewProblem(id string, aln *seq.Alignment, opts Options) (*dist.Problem, error) {
	dm, err := NewDataManager(aln, opts)
	if err != nil {
		return nil, err
	}
	var fasta []byte
	{
		var buf writerBuf
		if err := seq.WriteFASTA(&buf, &seq.Database{Seqs: aln.Rows}, 70); err != nil {
			return nil, err
		}
		fasta = buf.b
	}
	opts.applyDefaults()
	return dist.NewTypedProblem[taskUnit, taskResult](id, dm, sharedData{AlignmentFasta: fasta, Options: opts})
}

type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// A unit's cost is its sites times the weights below, fitted to ProcessCtx
// timings of units on trees of 3 to 16 leaves, with 1 to 8 candidates (one
// cost unit is about 45 ns of a 2-vCPU Xeon core at dprml.staged's
// HKY85+Γ4). A unit computes its tree's partials once, a host term that
// grows with the leaves, and then scores each candidate on a three-branch
// star, or optimises each branch of a FullOptimize tree, at a cost that
// barely grows with the tree.
const (
	leafCost      = 1  // the host's down pass and views, its parse and print
	candidateCost = 25 // one insertion's three Brent optimisations
	branchCost    = 12 // one branch's Brent optimisation and path pass
)

// insertCost is the cost of a unit scoring n candidates on a host tree of
// the given number of leaves.
func (d *DataManager) insertCost(leaves, n int) int64 {
	return d.sites * int64(leaves*leafCost+n*candidateCost)
}

// smoothCost is the cost of a FullOptimize unit on a tree of the given
// number of leaves, whose 2·leaves−3 branches are each optimised once.
func (d *DataManager) smoothCost(leaves int) int64 {
	return d.sites * int64(leaves*leafCost+(2*leaves-3)*branchCost)
}

// NextUnit implements dist.TypedDM.
func (d *DataManager) NextUnit(budget int64) (*dist.UnitOf[taskUnit], bool, error) {
	switch d.phase {
	case phaseTriplet:
		if len(d.pending) > 0 {
			return nil, false, nil // triplet unit already out
		}
		u := &taskUnit{Tree: d.tree.String(), FullOptimize: true, Rounds: 1}
		return d.issue(u, d.smoothCost(3))

	case phaseInsert:
		if len(d.lost) > 0 {
			u := d.lost[0]
			d.lost = d.lost[1:]
			return d.issue(u, d.insertCost(d.tree.NLeaves(), len(u.Edges)))
		}
		remaining := d.stageEdges - d.nextEdge
		if remaining <= 0 {
			return nil, false, nil // stage barrier: waiting on results
		}
		// A unit takes at most half of the stage's undispatched edges. The
		// stage ends in a barrier, so a unit holding the whole remainder
		// would idle every other donor until it returns. Halving tapers
		// each stage down to single edges, and once the budget covers a
		// stage the cut no longer depends on the measured throughput.
		leaves := d.tree.NLeaves()
		host, candidate := d.insertCost(leaves, 0), d.insertCost(0, 1)
		n := max(1, min(int((budget-host)/candidate), (remaining+1)/2))
		edges := make([]int, n)
		for i := range edges {
			edges[i] = d.nextEdge + i
		}
		d.nextEdge += n
		u := &taskUnit{
			Tree:  d.tree.String(),
			Taxon: d.order[d.taxonIdx],
			Edges: edges,
		}
		return d.issue(u, d.insertCost(leaves, n))

	case phaseFinal:
		if len(d.pending) > 0 {
			return nil, false, nil
		}
		u := &taskUnit{Tree: d.tree.String(), FullOptimize: true, Rounds: d.opts.FinalRounds}
		return d.issue(u, d.smoothCost(d.tree.NLeaves()))

	default:
		return nil, false, nil
	}
}

func (d *DataManager) issue(u *taskUnit, cost int64) (*dist.UnitOf[taskUnit], bool, error) {
	d.unitSeq++
	d.pending[d.unitSeq] = u
	return &dist.UnitOf[taskUnit]{
		ID:        d.unitSeq,
		Algorithm: AlgorithmName,
		Payload:   *u,
		Cost:      cost,
	}, true, nil
}

// Requeue implements dist.Requeuer: a lost unit of the current stage goes
// back to the dispatch pool as it was — its own edges, not the stage's
// undispatched tail, so edges other pending units hold are never issued
// twice and the stage closes only once every edge is scored exactly once.
func (d *DataManager) Requeue(unitID int64) {
	u, ok := d.pending[unitID]
	if !ok {
		return
	}
	delete(d.pending, unitID)
	if d.phase == phaseInsert && u.Taxon == d.order[d.taxonIdx] {
		d.lost = append(d.lost, u)
	}
}

// Consume implements dist.TypedDM.
func (d *DataManager) Consume(unitID int64, res taskResult) error {
	u, ok := d.pending[unitID]
	if !ok {
		return fmt.Errorf("dprml: result for unknown unit %d", unitID)
	}
	delete(d.pending, unitID)
	switch d.phase {
	case phaseTriplet:
		t, err := phylo.ParseNewick(res.BestTree)
		if err != nil {
			return fmt.Errorf("dprml: triplet result: %w", err)
		}
		d.tree = t
		d.taxonIdx = 3
		d.phase = phaseInsert
		d.startStage()

	case phaseInsert:
		if d.bestEdge < 0 || better(res.BestLogL, res.BestEdge, d.bestLL, d.bestEdge) {
			d.bestEdge, d.bestLL, d.bestTree = res.BestEdge, res.BestLogL, res.BestTree
		}
		d.edgesConsumed += len(u.Edges)
		if d.edgesConsumed >= d.stageEdges {
			t, err := phylo.ParseNewick(d.bestTree)
			if err != nil {
				return fmt.Errorf("dprml: stage winner: %w", err)
			}
			d.tree = t
			d.taxonIdx++
			if d.taxonIdx < len(d.order) {
				d.startStage()
			} else {
				d.phase = phaseFinal
			}
		}

	case phaseFinal:
		t, err := phylo.ParseNewick(res.BestTree)
		if err != nil {
			return fmt.Errorf("dprml: final result: %w", err)
		}
		d.tree = t
		d.final = TreeResult{Newick: res.BestTree, LogL: res.BestLogL}
		d.phase = phaseDone
	}
	return nil
}

func (d *DataManager) startStage() {
	d.stageEdges = len(d.tree.Edges())
	d.nextEdge = 0
	d.edgesConsumed = 0
	d.lost = nil
	d.bestEdge = -1
	d.bestLL = math.Inf(-1)
	d.bestTree = ""
}

// Done implements dist.TypedDM.
func (d *DataManager) Done() bool { return d.phase == phaseDone }

// FinalResult implements dist.TypedDM; decode with DecodeResult.
func (d *DataManager) FinalResult() (any, error) {
	if d.phase != phaseDone {
		return nil, fmt.Errorf("dprml: FinalResult before completion")
	}
	return d.final, nil
}

// RemainingCost implements dist.CostReporter: the cost of the work still
// to do, counting one host term per stage — the current stage's
// unconsumed candidates, every future stage and the final smoothing.
func (d *DataManager) RemainingCost() int64 {
	n := len(d.order)
	var sum int64
	k := 4 // the next stage to cost inserts the k-th taxon into k-1 leaves
	switch d.phase {
	case phaseDone:
		return 0
	case phaseTriplet:
		sum += d.smoothCost(3)
	case phaseInsert:
		sum += d.insertCost(d.tree.NLeaves(), d.stageEdges-d.edgesConsumed)
		k = d.tree.NLeaves() + 2
	case phaseFinal:
		k = n + 1
	}
	for ; k <= n; k++ {
		sum += d.insertCost(k-1, 2*k-5)
	}
	return sum + d.smoothCost(n)
}

// Progress reports (taxa placed, total taxa) for status displays.
func (d *DataManager) Progress() (placed, total int) {
	switch d.phase {
	case phaseTriplet:
		return 3, len(d.order)
	case phaseDone, phaseFinal:
		return len(d.order), len(d.order)
	default:
		return d.taxonIdx, len(d.order)
	}
}
