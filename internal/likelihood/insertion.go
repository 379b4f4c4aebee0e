package likelihood

import (
	"fmt"

	"repro/internal/phylo"
)

// InsertionScorer scores inserting one new leaf on each edge of a host
// tree, the step every candidate of a stepwise-insertion stage repeats.
// Inserting on the edge above c splits it with a node mid and hangs the
// leaf from mid:
//
//	p ──> c        becomes   p ──> mid ──> c
//	                                └────> leaf
//
// Only the three branches the insertion creates are optimised, so every
// partial the optimisation reads is either the host's (c's down partial,
// or the view of the tree from c's edge) or built from those two and the
// leaf's tip over the three new lengths. The scorer computes the host's
// down partials once and each view once, on first use (upView), and scores
// a candidate on that three-branch star: each Brent step costs one absorb
// and one reduce, whatever the host's size. The view from c's edge in the
// host is the view from mid's edge in the inserted tree, because
// phylo.Tree.InsertLeafOnEdge keeps p's other children in order, so a score
// is bit-identical to optimising the inserted tree's three branches with
// OptimizeBranch.
//
// A scorer reads e's buffers: it is valid until e's next use, and the
// host must not change while it is in use.
type InsertionScorer struct{ e *Evaluator }

// Insertion is a scored candidate: the log-likelihood after optimising the
// three new branches, and their lengths — the new leaf's, mid's (the upper
// half of the split edge) and c's (the lower half).
type Insertion struct {
	LogL             float64
	Leaf, Mid, Child float64
}

// NewInsertionScorer runs the down pass over host and fills the tip partial
// of taxon, the leaf to be inserted. host's node IDs are (re)assigned.
func (e *Evaluator) NewInsertionScorer(host *phylo.Tree, taxon string) (*InsertionScorer, error) {
	if err := e.down(host); err != nil {
		return nil, err
	}
	size, npat := len(e.clv[host.Root.ID]), e.Data.NPatterns()
	e.tip, e.tipScale = resize(e.tip, size), resize(e.tipScale, npat)
	clear(e.tipScale)
	if err := e.fillLeaf(taxon, e.tip); err != nil {
		return nil, err
	}
	e.star, e.starScale = resize(e.star, size), resize(e.starScale, npat)
	return &InsertionScorer{e}, nil
}

// Score optimises the three branches created by inserting the leaf on the
// edge above c, in the order leaf, mid, c, for rounds passes, starting
// from leafLength for the new leaf and half of c's length for each half of
// the split edge. The returned log-likelihood is the last Brent step's.
func (s *InsertionScorer) Score(c *phylo.Node, leafLength float64, rounds int, tol float64) (Insertion, error) {
	if c.Parent == nil {
		return Insertion{}, fmt.Errorf("likelihood: cannot insert on the root's parent edge")
	}
	if rounds < 1 {
		return Insertion{}, fmt.Errorf("likelihood: insertion scoring needs at least one round, got %d", rounds)
	}
	e := s.e
	up, upScale := e.upView(c)
	down, downScale := e.clv[c.ID], e.scale[c.ID]
	tip, tipScale := e.tip, e.tipScale
	star, starScale := e.star, e.starScale
	ins := Insertion{Leaf: leafLength, Mid: c.Length / 2, Child: c.Length / 2}
	var err error
	for r := 0; r < rounds; r++ {
		// The leaf's branch: mid sees the view from p over its own branch
		// and c's subtree below.
		e.absorb(star, starScale, nil, nil, up, upScale, ins.Mid)
		e.absorb(star, starScale, star, starScale, down, downScale, ins.Child)
		rescale(star, starScale)
		if ins.Leaf, ins.LogL, err = maximiseBranch(e.edgeFunc(star, starScale, tip, tipScale), tol); err != nil {
			return Insertion{}, err
		}
		// mid's branch: the view from p against mid's subtree, c then leaf.
		e.absorb(star, starScale, nil, nil, down, downScale, ins.Child)
		e.absorb(star, starScale, star, starScale, tip, tipScale, ins.Leaf)
		rescale(star, starScale)
		if ins.Mid, ins.LogL, err = maximiseBranch(e.edgeFunc(up, upScale, star, starScale), tol); err != nil {
			return Insertion{}, err
		}
		// c's branch: mid sees the view from p and the leaf.
		e.absorb(star, starScale, nil, nil, up, upScale, ins.Mid)
		e.absorb(star, starScale, star, starScale, tip, tipScale, ins.Leaf)
		rescale(star, starScale)
		if ins.Child, ins.LogL, err = maximiseBranch(e.edgeFunc(star, starScale, down, downScale), tol); err != nil {
			return Insertion{}, err
		}
	}
	return ins, nil
}
