package align

// Hirschberg's divide-and-conquer global alignment: full traceback in
// O(min(la,lb)) working memory and O(la*lb) time. This implementation uses a
// linear gap model — each gap column costs Gap.Open + Gap.Extend, so a
// single-residue gap costs the same as in the affine model, and for
// Gap.Open == 0 it is exactly equivalent to Needleman–Wunsch. It serves as
// the memory-frugal built-in for very long sequences, standing in for the
// paper's third algorithm (the package doc gives the reason).

type hirschbergAligner struct{ p Params }

func (h *hirschbergAligner) Name() string { return AlgHirschberg }

func (h *hirschbergAligner) gapCost() int { return h.p.Gap.Open + h.p.Gap.Extend }

// Score computes the linear-gap global score in O(lb) memory.
func (h *hirschbergAligner) Score(a, b []byte) int {
	row := h.lastRow(a, b)
	return row[len(b)]
}

// lastRow returns the final DP row of the linear-gap NW matrix for a vs b.
func (h *hirschbergAligner) lastRow(a, b []byte) []int {
	g := h.gapCost()
	mat := h.p.Matrix
	lb := len(b)
	cur := make([]int, lb+1)
	prev := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		cur[j] = -j * g
	}
	for i := 1; i <= len(a); i++ {
		prev, cur = cur, prev
		cur[0] = -i * g
		ai := a[i-1]
		for j := 1; j <= lb; j++ {
			cur[j] = max3(
				prev[j-1]+mat.Score(ai, b[j-1]),
				prev[j]-g,
				cur[j-1]-g,
			)
		}
	}
	return cur
}

// lastRowRev is lastRow on the reversed sequences (suffix scores).
func (h *hirschbergAligner) lastRowRev(a, b []byte) []int {
	ra := make([]byte, len(a))
	rb := make([]byte, len(b))
	for i := range a {
		ra[len(a)-1-i] = a[i]
	}
	for i := range b {
		rb[len(b)-1-i] = b[i]
	}
	return h.lastRow(ra, rb)
}

// Align reconstructs the full alignment recursively.
func (h *hirschbergAligner) Align(a, b []byte) *Result {
	ops := h.solve(a, b)
	alignedA, alignedB := emit(a, b, 0, 0, ops)
	return &Result{
		Score:    h.scoreOps(a, b, ops),
		AlignedA: alignedA, AlignedB: alignedB,
		StartA: 0, EndA: len(a), StartB: 0, EndB: len(b),
	}
}

func (h *hirschbergAligner) scoreOps(a, b []byte, ops []byte) int {
	g := h.gapCost()
	mat := h.p.Matrix
	score, ia, ib := 0, 0, 0
	for _, op := range ops {
		switch op {
		case opSub:
			score += mat.Score(a[ia], b[ib])
			ia++
			ib++
		case opGapB:
			score -= g
			ia++
		case opGapA:
			score -= g
			ib++
		}
	}
	return score
}

func (h *hirschbergAligner) solve(a, b []byte) []byte {
	la, lb := len(a), len(b)
	switch {
	case la == 0:
		ops := make([]byte, lb)
		for i := range ops {
			ops[i] = opGapA
		}
		return ops
	case lb == 0:
		ops := make([]byte, la)
		for i := range ops {
			ops[i] = opGapB
		}
		return ops
	case la == 1 || lb == 1:
		// Base case: run the quadratic aligner on the tiny problem.
		return h.smallAlign(a, b)
	}
	mid := la / 2
	left := h.lastRow(a[:mid], b)
	right := h.lastRowRev(a[mid:], b)
	// Pick the split point of b maximising prefix + suffix score.
	bestJ, bestV := 0, negInf
	for j := 0; j <= lb; j++ {
		v := left[j] + right[lb-j]
		if v > bestV {
			bestV, bestJ = v, j
		}
	}
	opsL := h.solve(a[:mid], b[:bestJ])
	opsR := h.solve(a[mid:], b[bestJ:])
	return append(opsL, opsR...)
}

// smallAlign runs full quadratic linear-gap DP with traceback; only used on
// problems where one dimension is 1.
func (h *hirschbergAligner) smallAlign(a, b []byte) []byte {
	g := h.gapCost()
	mat := h.p.Matrix
	la, lb := len(a), len(b)
	w := lb + 1
	D := make([]int, (la+1)*w)
	for j := 0; j <= lb; j++ {
		D[j] = -j * g
	}
	for i := 1; i <= la; i++ {
		D[i*w] = -i * g
		for j := 1; j <= lb; j++ {
			D[i*w+j] = max3(
				D[(i-1)*w+j-1]+mat.Score(a[i-1], b[j-1]),
				D[(i-1)*w+j]-g,
				D[i*w+j-1]-g,
			)
		}
	}
	var ops []byte
	i, j := la, lb
	for i > 0 || j > 0 {
		switch {
		case i > 0 && j > 0 && D[i*w+j] == D[(i-1)*w+j-1]+mat.Score(a[i-1], b[j-1]):
			ops = append(ops, opSub)
			i, j = i-1, j-1
		case i > 0 && D[i*w+j] == D[(i-1)*w+j]-g:
			ops = append(ops, opGapB)
			i--
		default:
			ops = append(ops, opGapA)
			j--
		}
	}
	return reverseOps(ops)
}
