package dprml

import (
	"context"
	"testing"
)

// BenchmarkScoreInsertion times the insertion units a dprml.staged donor
// runs, at the shape of that workload's last stage: the 17th taxon tried
// on the edges of a 16-leaf tree over 540 sites, HKY85+Γ4. "stage" scores
// every edge of the stage in one unit, "unit4" four edges (dprml.staged
// averages 3.6 a unit); successive
// unit4 iterations cycle through the stage's edges. The star arm is what a
// unit runs (host partials once, a three-branch star per candidate); the
// reference arm clones the host and optimises each candidate with
// whole-tree passes.
func BenchmarkScoreInsertion(b *testing.B) {
	star, ref, host, taxon := insertionStage(b, 17, 540, 1, Options{Model: "HKY85:kappa=2", GammaCategories: 4, GammaAlpha: 0.5, LocalRounds: 1})
	nEdges := len(host.Edges())
	all := make([]int, nEdges)
	for i := range all {
		all[i] = i
	}
	unit4 := func(i int) []int {
		edges := make([]int, 4)
		for k := range edges {
			edges[k] = (4*i + k) % nEdges
		}
		return edges
	}
	arms := []struct {
		name string
		run  func(edges []int) error
	}{
		{"star", func(edges []int) error {
			_, _, _, err := star.bestInsertion(context.Background(), host, taxon, edges)
			return err
		}},
		{"reference", func(edges []int) error {
			_, _, _, err := bestInsertionReference(ref, host, taxon, edges)
			return err
		}},
	}
	for _, arm := range arms {
		b.Run("stage/"+arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := arm.run(all); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("unit4/"+arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := arm.run(unit4(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
