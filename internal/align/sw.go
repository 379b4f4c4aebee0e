package align

// Smith–Waterman local alignment with affine gap penalties.
//
// The score-only path is dsearch's hot loop: one call per (query, subject)
// pair. It follows the query-profile scheme of Rognes & Seeberg
// (Bioinformatics 16:699, 2000), without the narrow SIMD lanes Farrar
// (Bioinformatics 23:156, 2007) needs to make 16-bit cells pay:
//
//   - The profile. Subject bytes fall into the alphabet's canonical
//     classes plus one "unknown" class (Alphabet.Index == -1), exactly the
//     classes seq.Matrix builds its lookup table from. For each class c and
//     query position i the profile stores Matrix.Score(query[i], y) for any
//     byte y of class c, as int32, one class after another and contiguous
//     along the query: (classes x |query|) entries, 21 x 300 x 4 B ≈ 25 KB
//     for a 300-residue protein query, which stays in L1.
//   - The loop order. The subject is the outer loop and the query the inner
//     one, so a subject residue selects one profile column and each cell's
//     score is a sequential load from it.
//   - The recurrence. Two rows along the query (H, and E for gaps in the
//     query) plus a scalar F for gaps in the subject:
//     h = max(Hdiag + P[i], E[i], F, 0), best = max(best, h),
//     E[i] = max(E[i] - gapE, h - gapOE), F = max(F - gapE, h - gapOE).
//     This is Gotoh's three-matrix M/X/Y recurrence (which Align keeps for
//     its traceback) folded into one: H = max(M, X, Y) because M >= 0; the
//     X->Y and Y->X transitions cost gapOE >= gapE and are dominated by
//     going through H; and no X or Y cell exceeds the M cell it descends
//     from, so the best H is the best M. Column 0 and row 0 hold H = 0, so
//     the first gap cell off the border is exactly -gapOE: E and F start
//     there instead of at -infinity, and no value ever falls below -gapOE.
//   - The cells are Go ints, so no overflow guard or second kernel is
//     needed; int32 cells measured no faster in this scalar loop.

type swAligner struct{ p Params }

func (s *swAligner) Name() string { return AlgSmithWaterman }

// Score computes the optimal local alignment score through a one-off
// query profile (see prepare).
func (s *swAligner) Score(a, b []byte) int { return s.prepare(a)(b) }

// prepare builds query's profile and returns the scorer that runs the
// two-row kernel over it. The profile is read-only once built, so the
// scorer is safe for concurrent use; each call allocates its own rows.
func (s *swAligner) prepare(query []byte) func(subject []byte) int {
	mat := s.p.Matrix
	gapE := s.p.Gap.Extend
	gapOE := s.p.Gap.Open + gapE
	unknown := mat.Alphabet.Size()
	// class maps a subject byte to its profile column; rep is one byte of
	// each class.
	var class [256]int
	rep := make([]byte, unknown+1)
	for y := 255; y >= 0; y-- {
		c := mat.Alphabet.Index(byte(y))
		if c < 0 {
			c = unknown
		}
		class[y], rep[c] = c, byte(y)
	}
	la := len(query)
	profile := make([]int32, len(rep)*la)
	for c, y := range rep {
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
			c := class[y] * la
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
