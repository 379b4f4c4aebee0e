package align

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/seq"
)

var dnaParams = Params{Matrix: seq.DNAUnit, Gap: Gap{Open: 0, Extend: 1}}
var dnaAffine = Params{Matrix: seq.DNASimple, Gap: Gap{Open: 8, Extend: 2}}
var protParams = Params{Matrix: seq.BLOSUM62, Gap: Gap{Open: 10, Extend: 1}}

func mustNew(t *testing.T, name string, p Params, band int) Aligner {
	t.Helper()
	a, err := New(name, p, band)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewValidation(t *testing.T) {
	if _, err := New("nw", Params{}, 0); err == nil {
		t.Error("nil matrix accepted")
	}
	if _, err := New("nw", Params{Matrix: seq.DNAUnit, Gap: Gap{Open: -1}}, 0); err == nil {
		t.Error("negative gap accepted")
	}
	if _, err := New("bogus", dnaParams, 0); err == nil {
		t.Error("unknown algorithm accepted")
	}
	for _, n := range []string{"nw", "global", "needleman-wunsch", "sw", "local", "smith-waterman", "banded", "hirschberg"} {
		if _, err := New(n, dnaParams, 0); err != nil {
			t.Errorf("New(%q): %v", n, err)
		}
	}
}

func TestNWKnownValues(t *testing.T) {
	// Identity: score = len * match.
	nw := mustNew(t, "nw", dnaParams, 0)
	if got := nw.Score([]byte("ACGT"), []byte("ACGT")); got != 4 {
		t.Errorf("identical score = %d, want 4", got)
	}
	// One mismatch.
	if got := nw.Score([]byte("ACGT"), []byte("ACTT")); got != 2 {
		t.Errorf("one-mismatch score = %d, want 2", got)
	}
	// One gap (linear cost 1): 3 matches - 1 gap = 2.
	if got := nw.Score([]byte("ACGT"), []byte("ACT")); got != 2 {
		t.Errorf("one-gap score = %d, want 2", got)
	}
	// Empty vs non-empty: pure gap cost.
	if got := nw.Score([]byte(""), []byte("ACGT")); got != -4 {
		t.Errorf("empty-vs-ACGT = %d, want -4", got)
	}
	if got := nw.Score([]byte(""), []byte("")); got != 0 {
		t.Errorf("empty-vs-empty = %d, want 0", got)
	}
}

func TestNWAffineGapPreference(t *testing.T) {
	// With affine gaps one long gap must beat two short ones of equal total
	// length: compare AAATTTCCC vs AAACCC — deleting TTT contiguously costs
	// open+3*extend; any split costs 2*open + 3*extend.
	nw := mustNew(t, "nw", dnaAffine, 0)
	res := nw.Align([]byte("AAATTTCCC"), []byte("AAACCC"))
	want := 6*5 - (8 + 3*2) // 6 matches, one gap of 3
	if res.Score != want {
		t.Errorf("affine score = %d, want %d", res.Score, want)
	}
	// The gap must be contiguous in the traceback.
	gapRuns := 0
	in := false
	for i := range res.AlignedB {
		if res.AlignedB[i] == '-' {
			if !in {
				gapRuns++
				in = true
			}
		} else {
			in = false
		}
	}
	if gapRuns != 1 {
		t.Errorf("expected 1 contiguous gap run, got %d (%s / %s)", gapRuns, res.AlignedA, res.AlignedB)
	}
}

func TestNWAlignScoreMatchesScoreOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := seq.NewGenerator(seq.DNA, 11)
	nw := mustNew(t, "nw", dnaAffine, 0)
	for k := 0; k < 30; k++ {
		a := g.Random("a", 1+rng.Intn(80)).Residues
		b := g.Random("b", 1+rng.Intn(80)).Residues
		s1 := nw.Score(a, b)
		res := nw.Align(a, b)
		if s1 != res.Score {
			t.Fatalf("case %d: Score=%d Align.Score=%d (a=%s b=%s)", k, s1, res.Score, a, b)
		}
		if err := checkAlignmentConsistent(res, a, b, true); err != nil {
			t.Fatalf("case %d: %v", k, err)
		}
		if got := recomputeScore(res, dnaAffine); got != res.Score {
			t.Fatalf("case %d: traceback rescoring gives %d, reported %d\n%s\n%s",
				k, got, res.Score, res.AlignedA, res.AlignedB)
		}
	}
}

// checkAlignmentConsistent verifies the gapped strings reproduce the inputs.
func checkAlignmentConsistent(r *Result, a, b []byte, global bool) error {
	degapA := bytes.ReplaceAll(r.AlignedA, []byte("-"), nil)
	degapB := bytes.ReplaceAll(r.AlignedB, []byte("-"), nil)
	wantA := a
	wantB := b
	if !global {
		wantA = a[r.StartA:r.EndA]
		wantB = b[r.StartB:r.EndB]
	}
	if !bytes.Equal(degapA, wantA) {
		return fmt.Errorf("degapped A %q != input segment %q", degapA, wantA)
	}
	if !bytes.Equal(degapB, wantB) {
		return fmt.Errorf("degapped B %q != input segment %q", degapB, wantB)
	}
	if len(r.AlignedA) != len(r.AlignedB) {
		return fmt.Errorf("aligned lengths differ: %d vs %d", len(r.AlignedA), len(r.AlignedB))
	}
	for i := range r.AlignedA {
		if r.AlignedA[i] == '-' && r.AlignedB[i] == '-' {
			return fmt.Errorf("double gap at column %d", i)
		}
	}
	return nil
}

// recomputeScore rescans the aligned strings under the affine model.
func recomputeScore(r *Result, p Params) int {
	score := 0
	inGapA, inGapB := false, false
	for i := range r.AlignedA {
		ca, cb := r.AlignedA[i], r.AlignedB[i]
		switch {
		case ca == '-':
			if !inGapA {
				score -= p.Gap.Open
			}
			score -= p.Gap.Extend
			inGapA, inGapB = true, false
		case cb == '-':
			if !inGapB {
				score -= p.Gap.Open
			}
			score -= p.Gap.Extend
			inGapB, inGapA = true, false
		default:
			score += p.Matrix.Score(ca, cb)
			inGapA, inGapB = false, false
		}
	}
	return score
}

func TestSWKnownValues(t *testing.T) {
	sw := mustNew(t, "sw", dnaParams, 0)
	// Local alignment of a planted exact substring.
	if got := sw.Score([]byte("TTTTACGTTTTT"), []byte("CCACGTCC")); got != 4 {
		t.Errorf("planted ACGT score = %d, want 4", got)
	}
	// No positive-scoring pair at all -> 0.
	swProt := mustNew(t, "sw", Params{Matrix: seq.MatchMismatch("m", seq.DNA, -1, -2), Gap: Gap{Open: 1, Extend: 1}}, 0)
	if got := swProt.Score([]byte("ACGT"), []byte("ACGT")); got != 0 {
		t.Errorf("all-negative matrix score = %d, want 0", got)
	}
}

func TestSWNeverNegativeAndGEGlobal(t *testing.T) {
	g := seq.NewGenerator(seq.Protein, 21)
	rng := rand.New(rand.NewSource(21))
	sw := mustNew(t, "sw", protParams, 0)
	nw := mustNew(t, "nw", protParams, 0)
	for k := 0; k < 25; k++ {
		a := g.Random("a", 1+rng.Intn(60)).Residues
		b := g.Random("b", 1+rng.Intn(60)).Residues
		s := sw.Score(a, b)
		if s < 0 {
			t.Fatalf("SW score %d < 0", s)
		}
		if gl := nw.Score(a, b); s < gl {
			t.Fatalf("SW score %d < NW score %d — local must dominate global", s, gl)
		}
	}
}

func TestSWAlignConsistent(t *testing.T) {
	g := seq.NewGenerator(seq.Protein, 31)
	rng := rand.New(rand.NewSource(31))
	sw := mustNew(t, "sw", protParams, 0)
	for k := 0; k < 25; k++ {
		a := g.Random("a", 5+rng.Intn(60)).Residues
		b := g.Random("b", 5+rng.Intn(60)).Residues
		res := sw.Align(a, b)
		if res.Score != sw.Score(a, b) {
			t.Fatalf("case %d: Align score %d != Score %d", k, res.Score, sw.Score(a, b))
		}
		if res.Score == 0 {
			continue
		}
		if err := checkAlignmentConsistent(res, a, b, false); err != nil {
			t.Fatalf("case %d: %v", k, err)
		}
		if got := recomputeScore(res, protParams); got != res.Score {
			t.Fatalf("case %d: rescoring gives %d, reported %d\n%s\n%s", k, got, res.Score, res.AlignedA, res.AlignedB)
		}
	}
}

// swScoreReference is the original Smith–Waterman score loop: Gotoh's
// three matrices M/X/Y, previous-row copies, -infinity-absorbing
// arithmetic, and a matrix lookup per cell. The production Score folds
// M/X/Y into the H/E/F query-profile recurrence that both kernels score
// (sw.go explains why the two agree); this reference pins that
// equivalence across matrices, gap regimes, and sequence shapes.
func swScoreReference(p Params, a, b []byte) int {
	gapO, gapE := p.Gap.Open, p.Gap.Extend
	mat := p.Matrix
	la, lb := len(a), len(b)
	M := make([]int, lb+1)
	X := make([]int, lb+1)
	Y := make([]int, lb+1)
	prevM := make([]int, lb+1)
	prevX := make([]int, lb+1)
	prevY := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		X[j], Y[j] = negInf, negInf
	}
	best := 0
	for i := 1; i <= la; i++ {
		copy(prevM, M)
		copy(prevX, X)
		copy(prevY, Y)
		M[0], X[0], Y[0] = 0, negInf, negInf
		ai := a[i-1]
		for j := 1; j <= lb; j++ {
			sub := mat.Score(ai, b[j-1])
			newM := max2(0, safeAdd(max3(prevM[j-1], prevX[j-1], prevY[j-1]), sub))
			newX := max3(
				safeSub(prevM[j], gapO+gapE),
				safeSub(prevX[j], gapE),
				safeSub(prevY[j], gapO+gapE),
			)
			newY := max3(
				safeSub(M[j-1], gapO+gapE),
				safeSub(Y[j-1], gapE),
				safeSub(X[j-1], gapO+gapE),
			)
			M[j], X[j], Y[j] = newM, newX, newY
			if newM > best {
				best = newM
			}
		}
	}
	return best
}

// withKernel runs fn with the striped kernel selected, or the scalar one.
func withKernel(striped bool, fn func()) {
	defer func(old bool) { useAVX2 = old }(useAVX2)
	useAVX2 = striped
	fn()
}

// forEachKernel runs fn once per Smith–Waterman kernel, as the subtests
// "striped" (skipped without AVX2) and "scalar".
func forEachKernel(t *testing.T, fn func(t *testing.T)) {
	for _, k := range []struct {
		name    string
		striped bool
	}{{"striped", true}, {"scalar", false}} {
		t.Run(k.name, func(t *testing.T) {
			if k.striped && !haveAVX2() {
				t.Skip("no AVX2 on this host")
			}
			withKernel(k.striped, func() { fn(t) })
		})
	}
}

func TestSWScoreMatchesReference(t *testing.T) {
	cases := []struct {
		name   string
		params Params
		alpha  *seq.Alphabet
		// noise, if set, overwrites about a fifth of the residues with its
		// bytes: masked, ambiguous, gap and lowercase residues.
		noise string
	}{
		{"protein-affine", protParams, seq.Protein, ""},
		{"dna-linear", dnaParams, seq.DNA, ""},
		{"dna-affine", dnaAffine, seq.DNA, ""},
		{"zero-extend", Params{Matrix: seq.BLOSUM62, Gap: Gap{Open: 12, Extend: 0}}, seq.Protein, ""},
		{"pam250", Params{Matrix: seq.PAM250, Gap: Gap{Open: 10, Extend: 2}}, seq.Protein, ""},
		{"protein-linear", Params{Matrix: seq.BLOSUM62, Gap: Gap{Open: 0, Extend: 4}}, seq.Protein, ""},
		{"masked-ambiguous", protParams, seq.Protein, "XxBZ*-.acwy"},
		// Gap penalties beyond 16-bit lanes take the scalar kernel.
		{"wide-gaps", Params{Matrix: seq.BLOSUM62, Gap: Gap{Open: 1 << 20, Extend: 3}}, seq.Protein, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			forEachKernel(t, func(t *testing.T) {
				sw := mustNew(t, "sw", c.params, 0)
				g := seq.NewGenerator(c.alpha, 77)
				rng := rand.New(rand.NewSource(77))
				noisy := func(r []byte) []byte {
					for i := range r {
						if c.noise != "" && rng.Intn(5) == 0 {
							r[i] = c.noise[rng.Intn(len(c.noise))]
						}
					}
					return r
				}
				for k := 0; k < 40; k++ {
					a := noisy(g.Random("a", rng.Intn(80)).Residues)
					b := noisy(g.Random("b", rng.Intn(80)).Residues)
					switch k { // an empty query, then an empty subject
					case 0:
						a = nil
					case 1:
						b = nil
					}
					want := swScoreReference(c.params, a, b)
					if got := sw.Score(a, b); got != want {
						t.Fatalf("case %d (la=%d lb=%d): Score %d != reference %d", k, len(a), len(b), got, want)
					}
				}
			})
		})
	}
}

// TestSWStripedSaturationFallsBack scores a subject whose best local score,
// 3000 x W-W = 33000 under BLOSUM62, overflows the striped kernel's 16-bit
// lanes; the scorer must notice and return the scalar kernel's score.
func TestSWStripedSaturationFallsBack(t *testing.T) {
	w := bytes.Repeat([]byte("W"), 3000)
	sw := mustNew(t, "sw", protParams, 0)
	var scalar int
	withKernel(false, func() { scalar = sw.Score(w, w) })
	if want := 3000 * seq.BLOSUM62.Score('W', 'W'); scalar != want {
		t.Fatalf("scalar kernel scores %d, want %d", scalar, want)
	}
	forEachKernel(t, func(t *testing.T) {
		if got := Prepare(sw, w)(w); got != scalar {
			t.Fatalf("prepared score %d != scalar kernel's %d", got, scalar)
		}
	})
}

// TestPreparedScorerReuse scores one prepared query against subjects of
// shrinking and growing length, so a scorer that kept rows from an earlier
// call would show up against the reference.
func TestPreparedScorerReuse(t *testing.T) {
	sw := mustNew(t, "sw", protParams, 0)
	g := seq.NewGenerator(seq.Protein, 91)
	query := g.Random("q", 120).Residues
	long := g.Mutate(&seq.Sequence{ID: "l", Residues: append(g.Random("pad", 60).Residues, query...)}, "long", 0.1, 0.02).Residues
	short := query[30:50]
	forEachKernel(t, func(t *testing.T) {
		score := Prepare(sw, query)
		for k, b := range [][]byte{long, short, nil, long} {
			if got, want := score(b), swScoreReference(protParams, query, b); got != want {
				t.Fatalf("call %d (len %d): prepared score %d != reference %d", k, len(b), got, want)
			}
		}
	})
}

// TestPreparedScorerConcurrent shares one prepared query between
// goroutines; run it under -race.
func TestPreparedScorerConcurrent(t *testing.T) {
	sw := mustNew(t, "sw", protParams, 0)
	g := seq.NewGenerator(seq.Protein, 93)
	query := g.Random("q", 100).Residues
	subjects := g.RandomDatabase("s", 16, seq.LengthModel{Mean: 100, StdDev: 40, Min: 1, Max: 200}).Seqs
	want := make([]int, len(subjects))
	for i, s := range subjects {
		want[i] = swScoreReference(protParams, query, s.Residues)
	}
	forEachKernel(t, func(t *testing.T) {
		score := Prepare(sw, query)
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := range subjects {
					i := (k + w) % len(subjects)
					if got := score(subjects[i].Residues); got != want[i] {
						errs <- fmt.Errorf("goroutine %d subject %d: %d != reference %d", w, i, got, want[i])
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

// TestPrepareOtherAlgorithmsScorePairwise checks that Prepare falls back to
// Score for every algorithm without a query profile.
func TestPrepareOtherAlgorithmsScorePairwise(t *testing.T) {
	g := seq.NewGenerator(seq.DNA, 95)
	a, b := g.Random("a", 40).Residues, g.Random("b", 50).Residues
	for _, name := range []string{AlgNeedlemanWunsch, AlgBanded, AlgHirschberg, AlgOverlap} {
		al := mustNew(t, name, dnaAffine, 0)
		if got, want := Prepare(al, a)(b), al.Score(a, b); got != want {
			t.Errorf("%s: prepared %d != Score %d", name, got, want)
		}
	}
}

// FuzzSWScore requires the prepared scorer and Score, through the striped
// kernel (on an AVX2 host) and the scalar one, and the reference loop to
// agree on raw bytes — lowercase, ambiguity codes, gaps and bytes outside
// every alphabet included — under every built-in matrix and gap penalties
// from linear to steep.
func FuzzSWScore(f *testing.F) {
	f.Add([]byte("HEAGAWGHEE"), []byte("PAWHEAE"), uint8(0), uint8(10), uint8(1))
	f.Add([]byte("ACGTTGCA"), []byte("acgNNtgca"), uint8(2), uint8(0), uint8(2))
	f.Add([]byte("MKX*-LVb"), []byte{0, 255, 'M', 'K', 'L'}, uint8(1), uint8(15), uint8(0))
	f.Add([]byte(""), []byte("ACGT"), uint8(3), uint8(3), uint8(4))
	matrices := []*seq.Matrix{seq.BLOSUM62, seq.PAM250, seq.DNASimple, seq.DNAUnit}
	f.Fuzz(func(t *testing.T, a, b []byte, mat, open, extend uint8) {
		if len(a) > 256 || len(b) > 256 {
			t.Skip("long inputs only slow the quadratic reference")
		}
		p := Params{Matrix: matrices[int(mat)%len(matrices)], Gap: Gap{Open: int(open) % 16, Extend: int(extend) % 5}}
		sw := mustNew(t, "sw", p, 0)
		want := swScoreReference(p, a, b)
		for _, striped := range []bool{haveAVX2(), false} {
			var prepared, score int
			withKernel(striped, func() { prepared, score = Prepare(sw, a)(b), sw.Score(a, b) })
			if prepared != want || score != want {
				t.Fatalf("%s gaps %+v, striped %v: Prepare %d, Score %d, reference %d (a=%q b=%q)",
					p.Matrix.Name, p.Gap, striped, prepared, score, want, a, b)
			}
		}
	})
}

func TestSWFindsPlantedHomology(t *testing.T) {
	g := seq.NewGenerator(seq.Protein, 41)
	core := g.Random("core", 50)
	// Embed the core in two different random contexts with light mutation.
	mut := g.Mutate(core, "mut", 0.05, 0)
	hostA := append(append(g.Random("l", 40).Residues, core.Residues...), g.Random("r", 40).Residues...)
	hostB := append(append(g.Random("l2", 30).Residues, mut.Residues...), g.Random("r2", 30).Residues...)
	sw := mustNew(t, "sw", protParams, 0)
	res := sw.Align(hostA, hostB)
	// The local hit should roughly cover the planted 50-residue core.
	if res.EndA-res.StartA < 35 {
		t.Errorf("local hit too short: [%d,%d)", res.StartA, res.EndA)
	}
	if res.Identity() < 0.7 {
		t.Errorf("planted homology identity %.2f < 0.7", res.Identity())
	}
}

func TestBandedEqualsNWWhenBandCovers(t *testing.T) {
	g := seq.NewGenerator(seq.DNA, 51)
	rng := rand.New(rand.NewSource(51))
	nw := mustNew(t, "nw", dnaAffine, 0)
	for k := 0; k < 25; k++ {
		la := 1 + rng.Intn(70)
		lb := 1 + rng.Intn(70)
		a := g.Random("a", la).Residues
		b := g.Random("b", lb).Residues
		banded := mustNew(t, "banded", dnaAffine, la+lb+2)
		if bs, ns := banded.Score(a, b), nw.Score(a, b); bs != ns {
			t.Fatalf("case %d: banded(full band)=%d nw=%d (a=%s b=%s)", k, bs, ns, a, b)
		}
		br := banded.Align(a, b)
		if br.Score != nw.Score(a, b) {
			t.Fatalf("case %d: banded Align score %d != nw %d", k, br.Score, nw.Score(a, b))
		}
		if err := checkAlignmentConsistent(br, a, b, true); err != nil {
			t.Fatalf("case %d: %v", k, err)
		}
	}
}

func TestBandedScoreMatchesAlign(t *testing.T) {
	g := seq.NewGenerator(seq.DNA, 61)
	rng := rand.New(rand.NewSource(61))
	for k := 0; k < 20; k++ {
		a := g.Random("a", 10+rng.Intn(60)).Residues
		b := g.Random("b", 10+rng.Intn(60)).Residues
		banded := mustNew(t, "banded", dnaAffine, 8)
		s := banded.Score(a, b)
		r := banded.Align(a, b)
		if s != r.Score {
			t.Fatalf("case %d: banded Score=%d Align=%d", k, s, r.Score)
		}
	}
}

func TestBandedNarrowIsLowerBound(t *testing.T) {
	// A narrow band can only miss the optimum, never exceed it.
	g := seq.NewGenerator(seq.DNA, 71)
	rng := rand.New(rand.NewSource(71))
	nw := mustNew(t, "nw", dnaAffine, 0)
	for k := 0; k < 20; k++ {
		a := g.Random("a", 30+rng.Intn(40)).Residues
		b := g.Random("b", 30+rng.Intn(40)).Residues
		banded := mustNew(t, "banded", dnaAffine, 3)
		if bs, ns := banded.Score(a, b), nw.Score(a, b); bs > ns {
			t.Fatalf("case %d: banded score %d exceeds optimal %d", k, bs, ns)
		}
	}
}

func TestHirschbergMatchesLinearNW(t *testing.T) {
	// With Open=0 the Hirschberg aligner must reproduce NW exactly.
	p := Params{Matrix: seq.DNAUnit, Gap: Gap{Open: 0, Extend: 1}}
	nw := mustNew(t, "nw", p, 0)
	hb := mustNew(t, "hirschberg", p, 0)
	g := seq.NewGenerator(seq.DNA, 81)
	rng := rand.New(rand.NewSource(81))
	for k := 0; k < 30; k++ {
		a := g.Random("a", rng.Intn(90)).Residues
		b := g.Random("b", rng.Intn(90)).Residues
		hs, ns := hb.Score(a, b), nw.Score(a, b)
		if hs != ns {
			t.Fatalf("case %d: hirschberg=%d nw=%d (|a|=%d |b|=%d)", k, hs, ns, len(a), len(b))
		}
		r := hb.Align(a, b)
		if r.Score != ns {
			t.Fatalf("case %d: hirschberg Align=%d nw=%d", k, r.Score, ns)
		}
		if err := checkAlignmentConsistent(r, a, b, true); err != nil {
			t.Fatalf("case %d: %v", k, err)
		}
	}
}

func TestScoreSymmetry(t *testing.T) {
	// Symmetric matrix + symmetric gap model => score(a,b) == score(b,a).
	f := func(sa, sb uint8, seed int64) bool {
		g := seq.NewGenerator(seq.DNA, seed)
		a := g.Random("a", int(sa%64)).Residues
		b := g.Random("b", int(sb%64)).Residues
		nw, _ := New("nw", dnaAffine, 0)
		sw, _ := New("sw", dnaAffine, 0)
		return nw.Score(a, b) == nw.Score(b, a) && sw.Score(a, b) == sw.Score(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIdentityScoreIsMaximal(t *testing.T) {
	// Aligning a sequence against itself must yield the self-score, and no
	// other sequence of the same length may beat it (for NW with a matrix
	// whose diagonal dominates).
	f := func(n uint8, seed int64) bool {
		if n == 0 {
			return true
		}
		g := seq.NewGenerator(seq.Protein, seed)
		a := g.Random("a", int(n%100)+1).Residues
		nw, _ := New("nw", protParams, 0)
		self := nw.Score(a, a)
		want := 0
		for _, c := range a {
			want += seq.BLOSUM62.Score(c, c)
		}
		return self == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestResultIdentityAndColumns(t *testing.T) {
	r := &Result{AlignedA: []byte("AC-T"), AlignedB: []byte("ACGT")}
	if got := r.Identity(); got != 0.75 {
		t.Errorf("Identity = %v, want 0.75", got)
	}
	empty := &Result{}
	if empty.Identity() != 0 {
		t.Error("empty result should have zero identity")
	}
}
