// Package seq provides the biological-sequence substrate used by the
// distributed applications in this repository: sequence types, FASTA I/O,
// alphabets, substitution/scoring matrices, and deterministic synthetic
// data generators that stand in for the genomic databases used in the
// paper's evaluation.
package seq

import (
	"fmt"
	"strings"
)

// Alphabet describes the residue set a sequence may draw from. Alphabets are
// immutable after construction; the package-level DNA, RNA and Protein
// values are shared and must not be mutated.
type Alphabet struct {
	name     string
	letters  string
	index    [256]int8 // -1 if not a member; otherwise index into letters
	ambigu   string    // ambiguity codes accepted by Validate but not indexed
	gapRunes string
}

// Predefined alphabets.
var (
	// DNA is the canonical nucleotide alphabet ACGT with IUPAC ambiguity
	// codes accepted during validation.
	DNA = NewAlphabet("dna", "ACGT", "RYSWKMBDHVN", "-.")
	// RNA is ACGU.
	RNA = NewAlphabet("rna", "ACGU", "RYSWKMBDHVN", "-.")
	// Protein is the 20 standard amino acids; B, Z and X ambiguity codes
	// are accepted during validation.
	Protein = NewAlphabet("protein", "ARNDCQEGHILKMFPSTWYV", "BZX*", "-.")
)

// NewAlphabet builds an alphabet from its canonical letters, the ambiguity
// codes it tolerates, and the characters treated as gaps. Letters are
// case-insensitive.
func NewAlphabet(name, letters, ambiguity, gaps string) *Alphabet {
	a := &Alphabet{name: name, letters: letters, ambigu: ambiguity, gapRunes: gaps}
	for i := range a.index {
		a.index[i] = -1
	}
	up := strings.ToUpper(letters)
	lo := strings.ToLower(letters)
	for i := 0; i < len(up); i++ {
		a.index[up[i]] = int8(i)
		a.index[lo[i]] = int8(i)
	}
	return a
}

// Name returns the alphabet's name ("dna", "rna", "protein", ...).
func (a *Alphabet) Name() string { return a.name }

// Size returns the number of canonical letters.
func (a *Alphabet) Size() int { return len(a.letters) }

// Letters returns the canonical letters in index order.
func (a *Alphabet) Letters() string { return a.letters }

// Index returns the canonical index of residue b, or -1 if b is not a
// canonical member (gaps and ambiguity codes return -1).
func (a *Alphabet) Index(b byte) int { return int(a.index[b]) }

// Letter returns the canonical letter at index i.
func (a *Alphabet) Letter(i int) byte { return a.letters[i] }

// IsGap reports whether b is one of the alphabet's gap characters.
func (a *Alphabet) IsGap(b byte) bool {
	return strings.IndexByte(a.gapRunes, b) >= 0
}

// IsAmbiguity reports whether b is an accepted ambiguity code.
func (a *Alphabet) IsAmbiguity(b byte) bool {
	u := toUpper(b)
	return strings.IndexByte(a.ambigu, u) >= 0
}

// Valid reports whether b is a canonical letter, ambiguity code, or gap.
func (a *Alphabet) Valid(b byte) bool {
	return a.Index(b) >= 0 || a.IsAmbiguity(b) || a.IsGap(b)
}

// Validate checks every residue of s and returns a descriptive error for
// the first invalid byte.
func (a *Alphabet) Validate(s []byte) error {
	for i, b := range s {
		if !a.Valid(b) {
			return fmt.Errorf("seq: invalid %s residue %q at position %d", a.name, b, i)
		}
	}
	return nil
}

func toUpper(b byte) byte {
	if b >= 'a' && b <= 'z' {
		return b - 'a' + 'A'
	}
	return b
}
