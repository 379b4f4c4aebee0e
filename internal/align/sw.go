package align

// Smith–Waterman local alignment with affine gap penalties.
//
// The score-only path is dsearch's hot loop: one call per (query, subject)
// pair. Both of its kernels follow the query-profile scheme of Rognes &
// Seeberg (Bioinformatics 16:699, 2000) and score one recurrence:
//
//   - The classes. Subject bytes fall into the alphabet's canonical
//     classes plus one "unknown" class (Alphabet.Index == -1), exactly the
//     classes seq.Matrix builds its lookup table from, so every byte of a
//     class scores alike against any query residue. New builds the
//     byte->class map and one representative byte per class once per
//     matrix; a profile holds Matrix.Score(query[i], rep[c]).
//   - The recurrence. Two rows along the query (H, and E for gaps in the
//     query) plus F for gaps in the subject, the subject being the outer
//     loop:
//     h = max(Hdiag + P[i], E[i], F, 0), best = max(best, h),
//     E[i] = max(E[i] - gapE, h - gapOE), F = max(F - gapE, h - gapOE).
//     This is Gotoh's three-matrix M/X/Y recurrence (which Align keeps for
//     its traceback) folded into one: H = max(M, X, Y) because M >= 0; the
//     X->Y and Y->X transitions cost gapOE >= gapE and are dominated by
//     going through H; and no X or Y cell exceeds the M cell it descends
//     from, so the best H is the best M. Column 0 and row 0 hold H = 0, so
//     the first gap cell off the border is exactly -gapOE: E and F start
//     there instead of at -infinity, and no value ever falls below -gapOE.
//   - The striped kernel (sw_striped.go, sw_amd64.s) is Farrar's
//     (Bioinformatics 23:156, 2007): 16 signed 16-bit lanes per AVX2
//     register, with query position i in lane i/segLen of vector i%segLen,
//     segLen = ceil(|query|/16), so a whole column is segLen vectors. The
//     first pass over a column takes each lane's F as -gapOE at its first
//     vector, a lower bound; the lazy-F loop then carries the F leaving
//     each lane into the next one and raises H where it is larger, and E
//     with it, since E[i] is computed from the final h. The loop stops at
//     the first vector where no lane's F can still exceed h - gapOE at the
//     next position, so the column it leaves equals the scalar one.
//     Additions saturate at 32767; any saturated cell reads 32767, so a
//     subject whose best reaches 32767 minus the matrix's largest score is
//     rescored with the scalar kernel.
//   - The scalar kernel (swColumn) scores the same recurrence in Go ints
//     over an int32 profile, one class after another and contiguous along
//     the query. It runs where the striped one cannot: without AVX2 (on
//     non-amd64 builds and under -tags purego, too), when the gap
//     penalties do not fit 16-bit lanes, and for the subjects that
//     saturate them.

import "math"

type swAligner struct {
	p Params
	// class maps a subject byte to its profile class; rep holds one byte
	// of each class.
	class [256]uint8
	rep   []byte
	// stripedLimit is 32767 minus the largest score a profile can hold: a
	// striped best below it proves that no addition saturated.
	stripedLimit int
}

// useAVX2 selects the striped kernel; tests clear it to run the scalar one
// in the same binary.
var useAVX2 = haveAVX2()

func newSWAligner(p Params) *swAligner {
	s := &swAligner{p: p}
	unknown := p.Matrix.Alphabet.Size()
	s.rep = make([]byte, unknown+1)
	for y := 255; y >= 0; y-- {
		c := p.Matrix.Alphabet.Index(byte(y))
		if c < 0 {
			c = unknown
		}
		s.class[y], s.rep[c] = uint8(c), byte(y)
	}
	s.stripedLimit = math.MaxInt16 - max(p.Matrix.Max(), p.Matrix.Unknown, 0)
	return s
}

func (s *swAligner) Name() string { return AlgSmithWaterman }

// Score computes the optimal local alignment score through a one-off
// query profile (see prepare).
func (s *swAligner) Score(a, b []byte) int { return s.prepare(a)(b) }

// prepare builds query's profile and returns the scorer that runs a kernel
// over it: the striped one where it applies, else the scalar one. The
// profile is read-only once built, so the scorer is safe for concurrent
// use; each call allocates its own rows.
func (s *swAligner) prepare(query []byte) func(subject []byte) int {
	if useAVX2 && len(query) > 0 && s.p.Gap.Open+s.p.Gap.Extend <= math.MaxInt16 {
		return s.prepareStriped(query)
	}
	return s.prepareScalar(query)
}

// prepareScalar returns the scorer that runs swColumn over an int32
// profile.
func (s *swAligner) prepareScalar(query []byte) func(subject []byte) int {
	mat := s.p.Matrix
	gapE := s.p.Gap.Extend
	gapOE := s.p.Gap.Open + gapE
	la := len(query)
	profile := make([]int32, len(s.rep)*la)
	for c, y := range s.rep {
		col := profile[c*la : (c+1)*la]
		for i, x := range query {
			col[i] = int32(mat.Score(x, y))
		}
	}
	return func(subject []byte) int {
		rows := make([]int, 2*la)
		H, E := rows[:la], rows[la:]
		for i := range E {
			E[i] = -gapOE
		}
		best := 0
		for _, y := range subject {
			c := int(s.class[y]) * la
			best = max(best, swColumn(profile[c:c+la], H, E, gapE, gapOE))
		}
		return best
	}
}

// swColumn advances the H and E rows by one subject residue, whose profile
// column is P, and returns the column's best H. It is a plain function, not
// part of prepare's closure, so that the compiler keeps the loop's state in
// registers instead of spilling it.
func swColumn(P []int32, H, E []int, gapE, gapOE int) int {
	H, E = H[:len(P)], E[:len(P)]
	diag, f, best := 0, -gapOE, 0
	for i, p := range P {
		h := diag + int(p)
		diag = H[i]
		e := E[i]
		h = max(h, e, f, 0)
		H[i] = h
		best = max(best, h)
		h -= gapOE
		E[i] = max(e-gapE, h)
		f = max(f-gapE, h)
	}
	return best
}

// Align computes the optimal local alignment with traceback.
func (s *swAligner) Align(a, b []byte) *Result {
	gapO, gapE := s.p.Gap.Open, s.p.Gap.Extend
	mat := s.p.Matrix
	la, lb := len(a), len(b)
	w := lb + 1
	M := make([]int, (la+1)*w)
	X := make([]int, (la+1)*w)
	Y := make([]int, (la+1)*w)
	for k := range X {
		X[k], Y[k] = negInf, negInf
	}
	bestI, bestJ, best := 0, 0, 0
	for i := 1; i <= la; i++ {
		ai := a[i-1]
		for j := 1; j <= lb; j++ {
			sub := mat.Score(ai, b[j-1])
			p := (i-1)*w + (j - 1)
			newM := max2(0, safeAdd(max3(M[p], X[p], Y[p]), sub))
			up := (i-1)*w + j
			newX := max3(
				safeSub(M[up], gapO+gapE),
				safeSub(X[up], gapE),
				safeSub(Y[up], gapO+gapE),
			)
			left := i*w + (j - 1)
			newY := max3(
				safeSub(M[left], gapO+gapE),
				safeSub(Y[left], gapE),
				safeSub(X[left], gapO+gapE),
			)
			M[i*w+j], X[i*w+j], Y[i*w+j] = newM, newX, newY
			if newM > best {
				best, bestI, bestJ = newM, i, j
			}
		}
	}
	if best == 0 {
		return &Result{Score: 0}
	}
	// Traceback from (bestI, bestJ) in state M until a zero M cell (local
	// alignments start and end in substitution columns).
	i, j := bestI, bestJ
	state := byte('M')
	var ops []byte
	for i > 0 && j > 0 {
		switch state {
		case 'M':
			if M[i*w+j] == 0 {
				goto done
			}
			{
				ops = append(ops, opSub)
				sub := mat.Score(a[i-1], b[j-1])
				p := (i-1)*w + (j - 1)
				cur := M[i*w+j]
				switch {
				case cur == safeAdd(M[p], sub) || (cur == sub && M[p] == 0):
					state = 'M'
				case cur == safeAdd(X[p], sub):
					state = 'X'
				default:
					state = 'Y'
				}
				i, j = i-1, j-1
			}
		case 'X':
			ops = append(ops, opGapB)
			up := (i-1)*w + j
			cur := X[i*w+j]
			switch {
			case cur == safeSub(X[up], gapE):
				state = 'X'
			case cur == safeSub(M[up], gapO+gapE):
				state = 'M'
			default:
				state = 'Y'
			}
			i--
		case 'Y':
			ops = append(ops, opGapA)
			left := i*w + (j - 1)
			cur := Y[i*w+j]
			switch {
			case cur == safeSub(Y[left], gapE):
				state = 'Y'
			case cur == safeSub(M[left], gapO+gapE):
				state = 'M'
			default:
				state = 'X'
			}
			j--
		}
	}
done:
	startA, startB := i, j
	alignedA, alignedB := emit(a, b, startA, startB, reverseOps(ops))
	return &Result{
		Score:    best,
		AlignedA: alignedA, AlignedB: alignedB,
		StartA: startA, EndA: bestI,
		StartB: startB, EndB: bestJ,
	}
}
