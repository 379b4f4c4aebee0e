package likelihood

import (
	"fmt"
	"testing"

	"repro/internal/phylo"
)

// scoreInsertionReference is the candidate scoring InsertionScorer
// replaced: clone the host, insert the leaf on edge idx, and optimise the
// leaf's, mid's and c's branches in turn with OptimizeBranch, each of which
// re-runs the whole down pass. It returns the candidate and the inserted
// tree.
func scoreInsertionReference(e *Evaluator, host *phylo.Tree, taxon string, idx int, leafLength float64, rounds int, tol float64) (Insertion, *phylo.Tree, error) {
	work := host.Clone()
	leaf, err := work.InsertLeafOnEdge(work.Edges()[idx], taxon, leafLength)
	if err != nil {
		return Insertion{}, nil, err
	}
	mid := leaf.Parent
	c := mid.Children[0]
	var ll float64
	for r := 0; r < rounds; r++ {
		for _, n := range []*phylo.Node{leaf, mid, c} {
			if ll, err = e.OptimizeBranch(work, n, tol); err != nil {
				return Insertion{}, nil, err
			}
		}
	}
	return Insertion{LogL: ll, Leaf: leaf.Length, Mid: mid.Length, Child: c.Length}, work, nil
}

// insertionHost removes the last of nTaxa taxa from an edgeFixture tree:
// the host tree of the stage that inserts it.
func insertionHost(tb testing.TB, m *Model, rates *SiteRates, nTaxa, nSites int, seed int64) (*phylo.Tree, string, *Evaluator, *Evaluator) {
	tb.Helper()
	tree, e, ref := edgeFixture(tb, m, rates, nTaxa, nSites, 0.02, 0.4, seed)
	taxon := fmt.Sprintf("t%03d", nTaxa-1)
	if err := tree.RemoveLeaf(taxon); err != nil {
		tb.Fatal(err)
	}
	return tree, taxon, e, ref
}

// checkInsertions scores taxon on every edge of host with one scorer and
// with the reference, and requires the same bits.
func checkInsertions(tb testing.TB, e, ref *Evaluator, host *phylo.Tree, taxon string, rounds int) {
	tb.Helper()
	const leafLength, tol = 0.1, 1e-4
	s, err := e.NewInsertionScorer(host, taxon)
	if err != nil {
		tb.Fatal(err)
	}
	for i, edge := range host.Edges() {
		got, err := s.Score(edge.Child, leafLength, rounds, tol)
		if err != nil {
			tb.Fatal(err)
		}
		want, _, err := scoreInsertionReference(ref, host, taxon, i, leafLength, rounds, tol)
		if err != nil {
			tb.Fatal(err)
		}
		if got != want {
			tb.Errorf("edge %d, %d rounds: star %+v, reference %+v", i, rounds, got, want)
		}
	}
}

// TestInsertionScorerMatchesReference scores every edge of random hosts
// under each model and rate setting, for one and two rounds, and of two
// hand-made hosts whose roots have two children and one.
func TestInsertionScorerMatchesReference(t *testing.T) {
	for _, m := range edgeModels(t) {
		for rname, rates := range rateSettings(t) {
			t.Run(m.Name+"/"+rname, func(t *testing.T) {
				host, taxon, e, ref := insertionHost(t, m, rates, 10, 200, 17)
				for _, rounds := range []int{1, 2} {
					checkInsertions(t, e, ref, host, taxon, rounds)
				}
				for _, nw := range []string{
					"((t000:0.1,(t001:0.2,t002:0.05):0.3):0.2,((t003:0.1,t004:0.4):0.1,t005:0.2):0.15);",
					"((t000:0.1,t001:0.2,(t002:0.3,t003:0.05):0.1):0.2);",
				} {
					tree, err := phylo.ParseNewick(nw)
					if err != nil {
						t.Fatal(err)
					}
					checkInsertions(t, e, ref, tree, "t009", 1)
				}
			})
		}
	}
}

// TestInsertionScoreNeverWorse: optimising the three new branches never
// scores below the inserted tree at its starting lengths.
func TestInsertionScoreNeverWorse(t *testing.T) {
	host, taxon, e, ref := insertionHost(t, NewJC69(), UniformRates(), 6, 500, 3)
	s, err := e.NewInsertionScorer(host, taxon)
	if err != nil {
		t.Fatal(err)
	}
	for i, edge := range host.Edges() {
		got, err := s.Score(edge.Child, 0.1, 2, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		start := host.Clone()
		if _, err := start.InsertLeafOnEdge(start.Edges()[i], taxon, 0.1); err != nil {
			t.Fatal(err)
		}
		ll0, err := ref.LogLikelihood(start)
		if err != nil {
			t.Fatal(err)
		}
		if got.LogL < ll0-1e-9 {
			t.Errorf("edge %d: optimisation decreased LL: %g -> %g", i, ll0, got.LogL)
		}
	}
}

// TestInsertionScorerErrors: a taxon or host leaf with no alignment row,
// the root's edge and zero rounds are refused.
func TestInsertionScorerErrors(t *testing.T) {
	host, taxon, e, _ := insertionHost(t, NewJC69(), UniformRates(), 5, 100, 1)
	if _, err := e.NewInsertionScorer(host, "nope"); err == nil {
		t.Error("scorer for a taxon with no alignment row")
	}
	bad, err := phylo.ParseNewick("(t000:0.1,t001:0.2,zz:0.3);")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.NewInsertionScorer(bad, taxon); err == nil {
		t.Error("scorer over a host leaf with no alignment row")
	}
	s, err := e.NewInsertionScorer(host, taxon)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Score(host.Root, 0.1, 1, 1e-4); err == nil {
		t.Error("scored an insertion above the root")
	}
	if _, err := s.Score(host.Edges()[0].Child, 0.1, 0, 1e-4); err == nil {
		t.Error("scored an insertion in zero rounds")
	}
}
