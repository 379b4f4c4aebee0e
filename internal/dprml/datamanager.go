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

	phase     int
	taxonIdx  int // index into order of the taxon being inserted
	tree      *phylo.Tree
	unitSeq   int64
	costScale int64 // cost of one candidate evaluation ~ tree size

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
		// One candidate evaluation costs roughly tree-size likelihood
		// work; sites scale it so throughput is comparable across
		// problems.
		costScale: int64(aln.NSites()),
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

// taskCost estimates one candidate evaluation's cost at the current stage.
func (d *DataManager) taskCost() int64 {
	leaves := int64(d.tree.NLeaves() + 1)
	c := leaves * d.costScale
	if c < 1 {
		c = 1
	}
	return c
}

// NextUnit implements dist.TypedDM.
func (d *DataManager) NextUnit(budget int64) (*dist.UnitOf[taskUnit], bool, error) {
	switch d.phase {
	case phaseTriplet:
		if len(d.pending) > 0 {
			return nil, false, nil // triplet unit already out
		}
		u := &taskUnit{Tree: d.tree.String(), FullOptimize: true, Rounds: 1}
		return d.issue(u, 3*d.costScale)

	case phaseInsert:
		if len(d.lost) > 0 {
			u := d.lost[0]
			d.lost = d.lost[1:]
			return d.issue(u, int64(len(u.Edges))*d.taskCost())
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
		tc := d.taskCost()
		n := min(int(budget/tc), (remaining+1)/2)
		if n < 1 {
			n = 1
		}
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
		return d.issue(u, int64(n)*tc)

	case phaseFinal:
		if len(d.pending) > 0 {
			return nil, false, nil
		}
		u := &taskUnit{Tree: d.tree.String(), FullOptimize: true, Rounds: d.opts.FinalRounds}
		return d.issue(u, int64(d.tree.NLeaves())*d.costScale)

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

// RemainingCost implements dist.CostReporter: a rough estimate of the
// outstanding candidate evaluations across all future stages.
func (d *DataManager) RemainingCost() int64 {
	if d.phase == phaseDone {
		return 0
	}
	var sum int64
	k := d.tree.NLeaves() + 1
	// Current stage's undispatched tasks plus all future stages.
	if d.phase == phaseInsert {
		sum += int64(d.stageEdges-d.edgesConsumed) * d.taskCost()
		k = d.tree.NLeaves() + 2
	}
	for ; k <= len(d.order); k++ {
		sum += int64(2*k-5) * int64(k) * d.costScale
	}
	return sum
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
