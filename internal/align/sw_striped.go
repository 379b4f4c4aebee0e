package align

// stripedLanes is the number of 16-bit lanes in one AVX2 register.
const stripedLanes = 16

// prepareStriped returns the scorer that runs the striped kernel over an
// int16 profile of query: class c's column is segLen vectors, and vector j
// holds in lane k the score of query position k*segLen + j against
// rep[c]. Cells past the query's end score 0: they only ever copy a score
// from a cell above them, and no cell of the query depends on them.
func (s *swAligner) prepareStriped(query []byte) func(subject []byte) int {
	segLen := (len(query) + stripedLanes - 1) / stripedLanes
	stride := segLen * stripedLanes
	profile := make([]int16, len(s.rep)*stride)
	for k := range stripedLanes {
		for j, x := range query[min(k*segLen, len(query)):min((k+1)*segLen, len(query))] {
			row := s.p.Matrix.Row(x)
			for c, y := range s.rep {
				profile[c*stride+j*stripedLanes+k] = row[y]
			}
		}
	}
	gapO, gapE := s.p.Gap.Open, s.p.Gap.Extend
	return func(subject []byte) int {
		// buf holds two H columns, then E.
		buf := make([]int16, 3*stride)
		E := buf[2*stride:]
		for i := range E {
			E[i] = int16(-(gapO + gapE))
		}
		best := swStriped16(profile, subject, &s.class, buf, segLen, gapO, gapE)
		if best >= s.stripedLimit {
			return s.prepareScalar(query)(subject)
		}
		return best
	}
}
