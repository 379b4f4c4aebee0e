package dprml

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/likelihood"
	"repro/internal/phylo"
)

// scoreInsertionReference is the candidate scoring the stage's star
// replaced: clone the tree, insert taxon on edge idx, and optimise the three
// branches the insertion created (the new leaf's, the mid node's and the
// original child's), each with OptimizeBranch, which re-runs the whole down
// pass. It returns (logL, resulting tree).
func scoreInsertionReference(c *evalContext, base *phylo.Tree, taxon string, idx int) (float64, *phylo.Tree, error) {
	work := base.Clone()
	edges := work.Edges()
	if idx < 0 || idx >= len(edges) {
		return 0, nil, fmt.Errorf("dprml: edge index %d out of range (%d edges)", idx, len(edges))
	}
	leaf, err := work.InsertLeafOnEdge(edges[idx], taxon, c.opts.InitialBranchLength)
	if err != nil {
		return 0, nil, err
	}
	mid := leaf.Parent
	var ll float64
	for r := 0; r < c.opts.LocalRounds; r++ {
		for _, n := range []*phylo.Node{leaf, mid, mid.Children[0]} {
			if ll, err = c.eval.OptimizeBranch(work, n, c.opts.BranchTolerance); err != nil {
				return 0, nil, err
			}
		}
	}
	return ll, work, nil
}

// bestInsertionReference scores every edge in edges with
// scoreInsertionReference and returns the winner, as a unit did before the
// star.
func bestInsertionReference(c *evalContext, base *phylo.Tree, taxon string, edges []int) (int, float64, *phylo.Tree, error) {
	bestEdge, bestLL := -1, math.Inf(-1)
	var bestTree *phylo.Tree
	for _, idx := range edges {
		ll, tree, err := scoreInsertionReference(c, base, taxon, idx)
		if err != nil {
			return 0, 0, nil, err
		}
		if bestEdge < 0 || better(ll, idx, bestLL, bestEdge) {
			bestEdge, bestLL, bestTree = idx, ll, tree
		}
	}
	return bestEdge, bestLL, bestTree, nil
}

// insertionStage simulates an alignment of nTaxa taxa down a random tree
// and returns two evaluation contexts over it, the tree without its last
// taxon (the stage's host) and that taxon.
func insertionStage(tb testing.TB, nTaxa, nSites int, seed int64, opts Options) (*evalContext, *evalContext, *phylo.Tree, string) {
	tb.Helper()
	taxa := make([]string, nTaxa)
	for i := range taxa {
		taxa[i] = fmt.Sprintf("t%02d", i)
	}
	truth, err := likelihood.RandomTree(taxa, 0.05, 0.3, seed)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := likelihood.NewHKY85(2, [4]float64{0.25, 0.25, 0.25, 0.25})
	if err != nil {
		tb.Fatal(err)
	}
	rates, err := likelihood.DiscreteGamma(0.5, 4)
	if err != nil {
		tb.Fatal(err)
	}
	aln, err := likelihood.Simulate(truth, m, rates, nSites, seed)
	if err != nil {
		tb.Fatal(err)
	}
	star, err := newEvalContext(aln, opts)
	if err != nil {
		tb.Fatal(err)
	}
	ref, err := newEvalContext(aln, opts)
	if err != nil {
		tb.Fatal(err)
	}
	last := taxa[nTaxa-1]
	if err := truth.RemoveLeaf(last); err != nil {
		tb.Fatal(err)
	}
	return star, ref, truth, last
}

// FuzzInsertionScore checks a stage scored on the star against the
// reference, on a fuzzed tree size, model, rate setting, edge and number of
// local rounds: one candidate and the whole stage's winner must have the
// same log-likelihood bits and Newick.
func FuzzInsertionScore(f *testing.F) {
	f.Add(int64(1), uint8(14), uint8(1), uint8(3), uint8(0))
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add(int64(3), uint8(7), uint8(3), uint8(11), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, taxa, model, edge, rounds uint8) {
		opts := Options{Model: "JC69", LocalRounds: 1 + int(rounds%2), BranchTolerance: 1e-4}
		if model%2 == 1 {
			opts.Model = "HKY85:kappa=2"
		}
		if model/2%2 == 1 {
			opts.GammaCategories, opts.GammaAlpha = 4, 0.5
		}
		star, ref, host, taxon := insertionStage(t, 3+int(taxa)%15, 60, seed, opts)
		all := make([]int, len(host.Edges()))
		for i := range all {
			all[i] = i
		}
		for _, edges := range [][]int{{int(edge) % len(all)}, all} {
			gotEdge, gotLL, gotTree, err := star.bestInsertion(context.Background(), host, taxon, edges)
			if err != nil {
				t.Fatal(err)
			}
			wantEdge, wantLL, wantTree, err := bestInsertionReference(ref, host, taxon, edges)
			if err != nil {
				t.Fatal(err)
			}
			if gotEdge != wantEdge || math.Float64bits(gotLL) != math.Float64bits(wantLL) || gotTree.String() != wantTree.String() {
				t.Fatalf("edges %v: star picks %d, logL %v, %s; reference %d, %v, %s",
					edges, gotEdge, gotLL, gotTree, wantEdge, wantLL, wantTree)
			}
		}
	})
}

// TestBestInsertionChecksContextPerCandidate: a cancelled context stops a
// unit before its first candidate, and a unit with an edge index out of
// range or no edges is refused.
func TestBestInsertionChecksContextPerCandidate(t *testing.T) {
	star, _, host, taxon := insertionStage(t, 6, 60, 1, testOpts())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := star.bestInsertion(ctx, host, taxon, []int{0, 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled unit returned %v", err)
	}
	if _, _, _, err := star.bestInsertion(context.Background(), host, taxon, []int{len(host.Edges())}); err == nil {
		t.Fatal("unit scored an edge index past the last edge")
	}
	if _, _, _, err := star.bestInsertion(context.Background(), host, taxon, nil); err == nil {
		t.Fatal("unit with no edges returned a winner")
	}
}
