package align

import (
	"testing"

	"repro/internal/seq"
)

func benchPair(b *testing.B, n int) ([]byte, []byte) {
	b.Helper()
	g := seq.NewGenerator(seq.Protein, 7)
	a := g.Random("a", n)
	mut := g.Mutate(a, "b", 0.15, 0.02)
	return a.Residues, mut.Residues
}

func benchParams(b *testing.B) Params {
	b.Helper()
	m, err := seq.MatrixByName("BLOSUM62")
	if err != nil {
		b.Fatal(err)
	}
	return Params{Matrix: m, Gap: Gap{Open: 10, Extend: 1}}
}

func benchScore(b *testing.B, name string, band int) {
	x, y := benchPair(b, 300)
	al, err := New(name, benchParams(b), band)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(x)) * int64(len(y)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.Score(x, y)
	}
}

func BenchmarkNWScore300(b *testing.B)         { benchScore(b, AlgNeedlemanWunsch, 0) }
func BenchmarkSWScore300(b *testing.B)         { benchScore(b, AlgSmithWaterman, 0) }
func BenchmarkBandedScore300(b *testing.B)     { benchScore(b, AlgBanded, 48) }
func BenchmarkHirschbergScore300(b *testing.B) { benchScore(b, AlgHirschberg, 0) }

func BenchmarkSWAlign300(b *testing.B) {
	x, y := benchPair(b, 300)
	al, err := New(AlgSmithWaterman, benchParams(b), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.Align(x, y)
	}
}

// BenchmarkSWScan is dsearch's inner loop: one 300-residue query, prepared
// once, scored against 400 subjects of database-like length, through the
// kernel Prepare selects (the striped one on an AVX2 host).
func BenchmarkSWScan(b *testing.B) { benchScan(b, useAVX2) }

// BenchmarkSWScanScalar is BenchmarkSWScan through the scalar kernel, so
// the ratio of the two is the striped kernel's gain in one binary.
func BenchmarkSWScanScalar(b *testing.B) { benchScan(b, false) }

func benchScan(b *testing.B, striped bool) {
	g := seq.NewGenerator(seq.Protein, 7)
	query := g.Random("q", 300).Residues
	db := g.RandomDatabase("s", 400, seq.LengthModel{Mean: 300, StdDev: 80, Min: 100, Max: 600})
	al, err := New(AlgSmithWaterman, benchParams(b), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(query)) * db.TotalResidues())
	withKernel(striped, func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			score := Prepare(al, query)
			for _, s := range db.Seqs {
				score(s.Residues)
			}
		}
	})
}
