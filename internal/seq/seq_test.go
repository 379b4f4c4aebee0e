package seq

import (
	"bytes"
	"strings"
	"testing"
)

func TestAlphabetIndexRoundTrip(t *testing.T) {
	for _, a := range []*Alphabet{DNA, RNA, Protein} {
		for i := 0; i < a.Size(); i++ {
			b := a.Letter(i)
			if got := a.Index(b); got != i {
				t.Errorf("%s: Index(Letter(%d)) = %d", a.Name(), i, got)
			}
			lower := b + 'a' - 'A'
			if got := a.Index(lower); got != i {
				t.Errorf("%s: lowercase Index(%q) = %d, want %d", a.Name(), lower, got, i)
			}
		}
	}
}

func TestAlphabetValidate(t *testing.T) {
	if err := DNA.Validate([]byte("ACGTacgtNRY-")); err != nil {
		t.Errorf("valid DNA rejected: %v", err)
	}
	if err := DNA.Validate([]byte("ACGJ")); err == nil {
		t.Error("J accepted as DNA")
	}
	if err := Protein.Validate([]byte("ACDEFGHIKLMNPQRSTVWYXBZ*")); err != nil {
		t.Errorf("valid protein rejected: %v", err)
	}
	if !DNA.IsGap('-') || !DNA.IsGap('.') {
		t.Error("gap characters not recognised")
	}
	if DNA.IsGap('A') {
		t.Error("A treated as gap")
	}
	if !DNA.IsAmbiguity('N') || !DNA.IsAmbiguity('n') {
		t.Error("N not recognised as ambiguity code")
	}
}

func TestSequenceBasics(t *testing.T) {
	s := NewSequence("s1", "ACGTACGT")
	if s.Len() != 8 {
		t.Fatalf("Len = %d", s.Len())
	}
	c := s.Clone()
	c.Residues[0] = 'X'
	if s.Residues[0] != 'A' {
		t.Error("Clone aliases parent storage")
	}
	if gc := NewSequence("g", "GGCC").GC(); gc != 1.0 {
		t.Errorf("GC(GGCC) = %v", gc)
	}
	if gc := NewSequence("g", "AATT").GC(); gc != 0.0 {
		t.Errorf("GC(AATT) = %v", gc)
	}
	if gc := NewSequence("g", "").GC(); gc != 0.0 {
		t.Errorf("GC(empty) = %v", gc)
	}
}

func TestFASTARoundTrip(t *testing.T) {
	in := ">s1 first sequence\nACGTACGTACGT\n>s2\nTTTT\nGGGG\n\n>s3 desc with  spaces\nA C G T\n"
	db, err := ParseFASTA(in)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 3 {
		t.Fatalf("got %d records", db.Len())
	}
	if db.Seqs[0].ID != "s1" || db.Seqs[0].Desc != "first sequence" {
		t.Errorf("record 0 header parsed as %q / %q", db.Seqs[0].ID, db.Seqs[0].Desc)
	}
	if string(db.Seqs[1].Residues) != "TTTTGGGG" {
		t.Errorf("multi-line body = %q", db.Seqs[1].Residues)
	}
	if string(db.Seqs[2].Residues) != "ACGT" {
		t.Errorf("interior whitespace not stripped: %q", db.Seqs[2].Residues)
	}

	var buf bytes.Buffer
	if err := WriteFASTA(&buf, db, 5); err != nil {
		t.Fatal(err)
	}
	db2, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() != db.Len() {
		t.Fatalf("round trip lost records: %d -> %d", db.Len(), db2.Len())
	}
	for i := range db.Seqs {
		if db.Seqs[i].ID != db2.Seqs[i].ID || !bytes.Equal(db.Seqs[i].Residues, db2.Seqs[i].Residues) {
			t.Errorf("record %d changed in round trip", i)
		}
	}
}

func TestFASTAErrors(t *testing.T) {
	if _, err := ParseFASTA("ACGT\n"); err == nil {
		t.Error("data before header accepted")
	}
	if _, err := ParseFASTA(">\nACGT\n"); err == nil {
		t.Error("empty header accepted")
	}
	if _, err := ParseFASTA(""); err == nil {
		t.Error("empty input accepted")
	}
}

func TestFASTAComments(t *testing.T) {
	db, err := ParseFASTA("; legacy comment\n>s1\nACGT\n")
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 1 || string(db.Seqs[0].Residues) != "ACGT" {
		t.Errorf("comment handling broke parsing: %+v", db.Seqs)
	}
}

func TestAlignmentValidation(t *testing.T) {
	_, err := NewAlignment([]*Sequence{NewSequence("a", "ACGT"), NewSequence("b", "ACG")})
	if err == nil {
		t.Error("ragged alignment accepted")
	}
	_, err = NewAlignment(nil)
	if err == nil {
		t.Error("empty alignment accepted")
	}
	if _, err := NewAlignment([]*Sequence{NewSequence("a", "ACGT"), NewSequence("b", "TGCA")}); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixSymmetryAndValues(t *testing.T) {
	for _, m := range []*Matrix{BLOSUM62, PAM250} {
		letters := m.Alphabet.Letters()
		for i := 0; i < len(letters); i++ {
			for j := 0; j < len(letters); j++ {
				if m.Score(letters[i], letters[j]) != m.Score(letters[j], letters[i]) {
					t.Errorf("%s not symmetric at %c,%c", m.Name, letters[i], letters[j])
				}
			}
		}
	}
	// Spot values from the canonical BLOSUM62 table.
	cases := []struct {
		a, b byte
		want int
	}{
		{'A', 'A', 4}, {'W', 'W', 11}, {'A', 'R', -1}, {'C', 'C', 9},
		{'E', 'D', 2}, {'I', 'V', 3}, {'w', 'w', 11}, {'a', 'R', -1},
	}
	for _, c := range cases {
		if got := BLOSUM62.Score(c.a, c.b); got != c.want {
			t.Errorf("BLOSUM62(%c,%c) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if got := PAM250.Score('W', 'W'); got != 17 {
		t.Errorf("PAM250(W,W) = %d, want 17", got)
	}
	if got := BLOSUM62.Score('A', '-'); got != BLOSUM62.Unknown {
		t.Errorf("gap score = %d, want Unknown %d", got, BLOSUM62.Unknown)
	}
	if BLOSUM62.Max() != 11 {
		t.Errorf("BLOSUM62.Max() = %d, want 11", BLOSUM62.Max())
	}
}

func TestMatchMismatch(t *testing.T) {
	m := DNASimple
	if m.Score('A', 'A') != 5 || m.Score('A', 'C') != -4 {
		t.Errorf("DNASimple scores wrong: %d %d", m.Score('A', 'A'), m.Score('A', 'C'))
	}
	if m.Score('a', 't') != -4 || m.Score('g', 'g') != 5 {
		t.Error("case-insensitive lookup broken")
	}
}

func TestMatrixByName(t *testing.T) {
	for _, name := range []string{"BLOSUM62", "blosum62", "PAM250", "DNA", "UNIT"} {
		if _, err := MatrixByName(name); err != nil {
			t.Errorf("MatrixByName(%q): %v", name, err)
		}
	}
	if _, err := MatrixByName("nope"); err == nil {
		t.Error("unknown matrix accepted")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(Protein, 42).RandomDatabase("p", 10, TypicalProtein)
	b := NewGenerator(Protein, 42).RandomDatabase("p", 10, TypicalProtein)
	if a.Len() != b.Len() {
		t.Fatal("different sizes from same seed")
	}
	for i := range a.Seqs {
		if !bytes.Equal(a.Seqs[i].Residues, b.Seqs[i].Residues) {
			t.Fatalf("sequence %d differs between same-seed runs", i)
		}
	}
	c := NewGenerator(Protein, 43).RandomDatabase("p", 10, TypicalProtein)
	same := true
	for i := range a.Seqs {
		if !bytes.Equal(a.Seqs[i].Residues, c.Seqs[i].Residues) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical databases")
	}
}

func TestGeneratorLengths(t *testing.T) {
	g := NewGenerator(DNA, 7)
	db := g.RandomDatabase("d", 200, TypicalDNA)
	for _, s := range db.Seqs {
		if s.Len() < TypicalDNA.Min || s.Len() > TypicalDNA.Max {
			t.Errorf("sequence %s length %d outside [%d,%d]", s.ID, s.Len(), TypicalDNA.Min, TypicalDNA.Max)
		}
		if err := DNA.Validate(s.Residues); err != nil {
			t.Errorf("generated invalid residues: %v", err)
		}
	}
}

func TestMutateRates(t *testing.T) {
	g := NewGenerator(DNA, 99)
	orig := g.Random("o", 10000)
	mut := g.Mutate(orig, "m", 0.1, 0)
	if mut.Len() != orig.Len() {
		t.Fatalf("pure substitution changed length: %d -> %d", orig.Len(), mut.Len())
	}
	diff := 0
	for i := range orig.Residues {
		if orig.Residues[i] != mut.Residues[i] {
			diff++
		}
	}
	frac := float64(diff) / float64(orig.Len())
	if frac < 0.07 || frac > 0.13 {
		t.Errorf("substitution fraction %.3f far from requested 0.10", frac)
	}
}

func TestPartitionByResidues(t *testing.T) {
	g := NewGenerator(DNA, 1)
	db := g.RandomDatabase("d", 50, LengthModel{Mean: 100, StdDev: 20, Min: 50, Max: 200})
	parts := db.PartitionByResidues(500)
	total := 0
	for _, p := range parts {
		if p.Len() == 0 {
			t.Error("empty partition")
		}
		if p.TotalResidues() > 500 && p.Len() > 1 {
			t.Errorf("partition of %d sequences has %d residues > budget", p.Len(), p.TotalResidues())
		}
		total += p.Len()
	}
	if total != db.Len() {
		t.Errorf("partitions cover %d of %d sequences", total, db.Len())
	}
	// Order must be preserved.
	i := 0
	for _, p := range parts {
		for _, s := range p.Seqs {
			if s != db.Seqs[i] {
				t.Fatalf("partition order broken at %d", i)
			}
			i++
		}
	}
}

func TestPartitionSingleOversized(t *testing.T) {
	db := NewDatabase(NewSequence("big", strings.Repeat("A", 1000)))
	parts := db.PartitionByResidues(10)
	if len(parts) != 1 || parts[0].Len() != 1 {
		t.Errorf("oversized sequence should form a singleton chunk, got %d parts", len(parts))
	}
}

func TestSearchWorkloadPlanted(t *testing.T) {
	g := NewGenerator(Protein, 5)
	w := g.NewSearchWorkload(50, 3, 4, LengthModel{Mean: 120, StdDev: 30, Min: 60, Max: 300})
	if w.Queries.Len() != 3 {
		t.Fatalf("%d queries, want 3", w.Queries.Len())
	}
	if w.DB.Len() != 50+3*4 {
		t.Fatalf("db has %d sequences, want %d", w.DB.Len(), 50+12)
	}
	for q, members := range w.Planted {
		if w.Queries.ByID(q) == nil {
			t.Errorf("planted query %s missing from query set", q)
		}
		for _, m := range members {
			if w.DB.ByID(m) == nil {
				t.Errorf("planted member %s missing from database", m)
			}
		}
	}
}
