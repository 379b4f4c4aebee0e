package dprml

import (
	"fmt"
	"testing"

	"repro/internal/likelihood"
)

// BenchmarkScoreInsertion times one candidate insertion, the step a
// dprml.staged donor repeats, at the shape of that workload's last stage:
// the 17th taxon tried on an edge of a 16-leaf tree over 540 sites,
// HKY85+Γ4. Successive iterations cycle through the tree's edges.
func BenchmarkScoreInsertion(b *testing.B) {
	taxa := make([]string, 17)
	for i := range taxa {
		taxa[i] = fmt.Sprintf("t%02d", i)
	}
	truth, err := likelihood.RandomTree(taxa, 0.05, 0.3, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := likelihood.NewHKY85(2, [4]float64{0.25, 0.25, 0.25, 0.25})
	if err != nil {
		b.Fatal(err)
	}
	rates, err := likelihood.DiscreteGamma(0.5, 4)
	if err != nil {
		b.Fatal(err)
	}
	aln, err := likelihood.Simulate(truth, m, rates, 540, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := newEvalContext(aln, Options{Model: "HKY85:kappa=2", GammaCategories: 4, GammaAlpha: 0.5, LocalRounds: 1})
	if err != nil {
		b.Fatal(err)
	}
	last := taxa[len(taxa)-1]
	base := truth.Clone()
	if err := base.RemoveLeaf(last); err != nil {
		b.Fatal(err)
	}
	nEdges := len(base.Edges())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ctx.scoreInsertion(base, last, i%nEdges); err != nil {
			b.Fatal(err)
		}
	}
}
