package seq

import (
	"fmt"
	"math"
	"math/bits"
)

// Low-complexity masking. Compositionally biased regions — homopolymer
// runs, short repeats — produce spuriously high alignment scores between
// unrelated sequences; database search tools mask them before scoring. The
// filter here is the windowed-entropy form of SEG (Wootton & Federhen,
// Comput Chem 17:149, 1993): a window whose Shannon entropy falls below a
// threshold is masked (residues replaced by the alphabet's ambiguity
// character, which scoring matrices treat neutrally-to-negatively).
//
// As in SEG and symmetric DUST (Morgulis et al., J Comput Biol 13:1028,
// 2006), the window slides: each step updates the count of the residue
// leaving and of the residue entering. The entropy is then summed from a
// table of p·log2 p per count, over the residues present in ascending byte
// order. Those are the terms, in the order, that a from-scratch count of the
// window sums, so every window's entropy is bit-identical to recounting it
// and no threshold decision depends on which way it was computed.

// MaskChar is the residue written into masked positions.
const MaskChar = 'X'

// complexityFilter is one validated (window, threshold) setting.
type complexityFilter struct {
	window    int
	threshold float64
	// terms[c] is p·log2 p for p = c/window. It is built the first time a
	// sequence fills a window, so a window longer than every sequence
	// allocates nothing.
	terms []float64
}

func newComplexityFilter(window int, threshold float64) (*complexityFilter, error) {
	if window < 2 {
		return nil, fmt.Errorf("seq: complexity window must be >= 2, got %d", window)
	}
	if !(threshold > 0) || math.IsInf(threshold, 1) {
		return nil, fmt.Errorf("seq: complexity threshold must be positive and finite, got %g", threshold)
	}
	return &complexityFilter{window: window, threshold: threshold}, nil
}

// regions returns the merged [from, to) intervals covered by any window
// whose entropy (bits, case-insensitive) is below the threshold.
func (f *complexityFilter) regions(residues []byte) [][2]int {
	w := f.window
	if len(residues) < w {
		return nil
	}
	if f.terms == nil {
		f.terms = make([]float64, w+1)
		for c := 1; c <= w; c++ {
			p := float64(c) / float64(w)
			f.terms[c] = p * math.Log2(p)
		}
	}
	var counts [256]int
	var present [4]uint64 // bit b set iff counts[b] > 0
	for _, b := range residues[:w-1] {
		b = toUpper(b)
		counts[b]++
		present[b>>6] |= 1 << (b & 63)
	}
	var out [][2]int
	for i := 0; i+w <= len(residues); i++ {
		in := toUpper(residues[i+w-1])
		counts[in]++
		present[in>>6] |= 1 << (in & 63)
		h := 0.0
		for k, word := range present {
			for ; word != 0; word &= word - 1 {
				h -= f.terms[counts[k<<6|bits.TrailingZeros64(word)]]
			}
		}
		left := toUpper(residues[i])
		if counts[left]--; counts[left] == 0 {
			present[left>>6] &^= 1 << (left & 63)
		}
		if h >= f.threshold {
			continue
		}
		if n := len(out); n > 0 && out[n-1][1] >= i {
			out[n-1][1] = i + w // merge overlapping/adjacent windows
		} else {
			out = append(out, [2]int{i, i + w})
		}
	}
	return out
}

// LowComplexityRegions returns the merged [from, to) intervals covered by
// any length-window sliding window whose entropy is below threshold.
func LowComplexityRegions(residues []byte, window int, threshold float64) ([][2]int, error) {
	f, err := newComplexityFilter(window, threshold)
	if err != nil {
		return nil, err
	}
	return f.regions(residues), nil
}

// MaskDatabase returns a copy of the database in which every sequence's
// low-complexity regions are replaced by MaskChar. The input is not
// modified.
func MaskDatabase(db *Database, window int, threshold float64) (*Database, error) {
	f, err := newComplexityFilter(window, threshold)
	if err != nil {
		return nil, err
	}
	out := &Database{Seqs: make([]*Sequence, len(db.Seqs))}
	for i, s := range db.Seqs {
		out.Seqs[i] = s.Clone()
		for _, r := range f.regions(s.Residues) {
			for j := r[0]; j < r[1]; j++ {
				out.Seqs[i].Residues[j] = MaskChar
			}
		}
	}
	return out, nil
}
