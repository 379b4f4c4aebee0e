// Package align implements the rigorous pairwise sequence alignment
// algorithms DSEARCH offers as built-ins: Needleman–Wunsch global alignment
// (Needleman & Wunsch 1970), Smith–Waterman local alignment (Smith &
// Waterman 1981), both with affine gap penalties (Gotoh 1982), plus a banded
// global aligner and a linear-space Hirschberg aligner standing in for the
// paper's third built-in (the Crochemore et al. 2003 subquadratic method,
// whose log-factor gain rests on LZ78-parsing both sequences — machinery
// out of proportion to its benefit at protein lengths, so an exact
// memory-frugal aligner fills the slot instead).
//
// Score-only variants keep O(n) rows instead of the full matrix and are the
// hot path for database search; traceback variants additionally reconstruct
// the aligned strings. Smith–Waterman's score path scores through a query
// profile, which Prepare builds once per query: on amd64 with AVX2 a
// striped int16 profile for Farrar's 16-lane kernel in assembly
// (sw_amd64.s), elsewhere — and for gap penalties or scores that overflow
// 16 bits — an int32 profile for the scalar Go kernel. Both score the same
// recurrence, so the choice never changes a score.
package align

import (
	"fmt"

	"repro/internal/seq"
)

// Gap holds affine gap penalties. A gap of length L costs Open + L*Extend;
// both values must be >= 0 (they are subtracted). Set Open = 0 for linear
// gap costs.
type Gap struct {
	Open   int
	Extend int
}

// Params bundles a scoring matrix with gap penalties.
type Params struct {
	Matrix *seq.Matrix
	Gap    Gap
}

// Validate checks the parameters are usable.
func (p Params) Validate() error {
	if p.Matrix == nil {
		return fmt.Errorf("align: nil scoring matrix")
	}
	if p.Gap.Open < 0 || p.Gap.Extend < 0 {
		return fmt.Errorf("align: gap penalties must be non-negative, got open=%d extend=%d", p.Gap.Open, p.Gap.Extend)
	}
	return nil
}

// Result is a scored pairwise alignment. For global alignments the Start/End
// ranges cover the whole sequences; for local alignments they delimit the
// optimal local segment (half-open, 0-based).
type Result struct {
	Score int
	// AlignedA and AlignedB are the gapped aligned strings ('-' for gaps);
	// empty for score-only calls.
	AlignedA, AlignedB []byte
	StartA, EndA       int
	StartB, EndB       int
}

// Identity returns the fraction of aligned columns that are exact matches.
// It returns 0 for score-only results.
func (r *Result) Identity() float64 {
	if len(r.AlignedA) == 0 {
		return 0
	}
	match := 0
	for i := range r.AlignedA {
		if r.AlignedA[i] == r.AlignedB[i] && r.AlignedA[i] != '-' {
			match++
		}
	}
	return float64(match) / float64(len(r.AlignedA))
}

const negInf = int(-1) << 40 // effectively -infinity without overflow risk

// Algorithm names accepted by New.
const (
	AlgNeedlemanWunsch = "needleman-wunsch"
	AlgSmithWaterman   = "smith-waterman"
	AlgBanded          = "banded"
	AlgHirschberg      = "hirschberg"
	AlgOverlap         = "overlap"
)

// Aligner is a pairwise alignment algorithm: Score is the cheap score-only
// form used in database search; Align also reconstructs the alignment.
type Aligner interface {
	// Name returns the algorithm's registry name.
	Name() string
	// Score computes only the optimal alignment score.
	Score(a, b []byte) int
	// Align computes the optimal alignment with traceback.
	Align(a, b []byte) *Result
}

// Prepare readies query for scoring against many subjects: the returned
// function equals al.Score(query, subject) for every subject. For
// Smith–Waterman it builds the query profile once (see sw.go); every other
// algorithm is scored pair by pair. The function is safe for concurrent use.
func Prepare(al Aligner, query []byte) func(subject []byte) int {
	if sw, ok := al.(*swAligner); ok {
		return sw.prepare(query)
	}
	return func(b []byte) int { return al.Score(query, b) }
}

// New resolves an algorithm by name. The banded algorithm takes its
// bandwidth from extra (0 means auto: max(32, |len diff| + 16)).
func New(name string, p Params, bandwidth int) (Aligner, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch name {
	case AlgNeedlemanWunsch, "nw", "global":
		return &nwAligner{p: p}, nil
	case AlgSmithWaterman, "sw", "local":
		return newSWAligner(p), nil
	case AlgBanded:
		return &bandedAligner{p: p, band: bandwidth}, nil
	case AlgHirschberg:
		return &hirschbergAligner{p: p}, nil
	case AlgOverlap, "semi-global", "glocal":
		return &overlapAligner{p: p}, nil
	default:
		return nil, fmt.Errorf("align: unknown algorithm %q (have %s, %s, %s, %s, %s)",
			name, AlgNeedlemanWunsch, AlgSmithWaterman, AlgBanded, AlgHirschberg, AlgOverlap)
	}
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func max3(a, b, c int) int { return max2(max2(a, b), c) }
