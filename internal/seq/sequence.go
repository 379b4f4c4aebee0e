package seq

import "fmt"

// Sequence is a named biological sequence. Residues are stored as raw bytes
// in the case they were read in; alignment and scoring code upper-cases on
// the fly via scoring matrices, so no normalisation pass is required.
type Sequence struct {
	// ID is the first whitespace-delimited token of the FASTA header.
	ID string
	// Desc is the remainder of the FASTA header (may be empty).
	Desc string
	// Residues holds the sequence data.
	Residues []byte
}

// NewSequence builds a sequence from an id and residue string.
func NewSequence(id, residues string) *Sequence {
	return &Sequence{ID: id, Residues: []byte(residues)}
}

// Len returns the number of residues.
func (s *Sequence) Len() int { return len(s.Residues) }

// String renders the sequence as a single-line FASTA-like summary, suitable
// for debugging; use Writer for real FASTA output.
func (s *Sequence) String() string {
	r := string(s.Residues)
	if len(r) > 60 {
		r = r[:57] + "..."
	}
	return fmt.Sprintf(">%s %s [%d aa/nt] %s", s.ID, s.Desc, s.Len(), r)
}

// Clone returns a deep copy of the sequence.
func (s *Sequence) Clone() *Sequence {
	r := make([]byte, len(s.Residues))
	copy(r, s.Residues)
	return &Sequence{ID: s.ID, Desc: s.Desc, Residues: r}
}

// Header reconstructs the FASTA header line content (without '>').
func (s *Sequence) Header() string {
	if s.Desc == "" {
		return s.ID
	}
	return s.ID + " " + s.Desc
}

// GC returns the GC fraction of a nucleotide sequence, ignoring gaps.
// It returns 0 for an empty sequence.
func (s *Sequence) GC() float64 {
	if len(s.Residues) == 0 {
		return 0
	}
	gc, n := 0, 0
	for _, b := range s.Residues {
		switch toUpper(b) {
		case 'G', 'C':
			gc++
			n++
		case 'A', 'T', 'U':
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(gc) / float64(n)
}

// Database is an ordered collection of sequences — the in-memory form of a
// FASTA database file.
type Database struct {
	Seqs []*Sequence
}

// NewDatabase wraps a slice of sequences.
func NewDatabase(seqs ...*Sequence) *Database { return &Database{Seqs: seqs} }

// Len returns the number of sequences.
func (d *Database) Len() int { return len(d.Seqs) }

// TotalResidues returns the summed length of all sequences, the natural
// cost unit for partitioning a search across donors.
func (d *Database) TotalResidues() int64 {
	var n int64
	for _, s := range d.Seqs {
		n += int64(s.Len())
	}
	return n
}

// Slice returns a view (no deep copy) of sequences [from, to).
func (d *Database) Slice(from, to int) *Database {
	return &Database{Seqs: d.Seqs[from:to]}
}

// ByID returns the first sequence with the given ID, or nil.
func (d *Database) ByID(id string) *Sequence {
	for _, s := range d.Seqs {
		if s.ID == id {
			return s
		}
	}
	return nil
}

// PartitionByResidues splits the database into chunks whose residue counts
// are each at most maxResidues (a sequence longer than maxResidues forms a
// singleton chunk). Order is preserved. maxResidues must be positive.
func (d *Database) PartitionByResidues(maxResidues int64) []*Database {
	if maxResidues <= 0 {
		panic("seq: PartitionByResidues requires a positive budget")
	}
	var out []*Database
	start := 0
	var acc int64
	for i, s := range d.Seqs {
		l := int64(s.Len())
		if acc > 0 && acc+l > maxResidues {
			out = append(out, d.Slice(start, i))
			start, acc = i, 0
		}
		acc += l
	}
	if start < len(d.Seqs) {
		out = append(out, d.Slice(start, len(d.Seqs)))
	}
	return out
}

// Alignment is a set of equal-length rows over a common alphabet — the
// input form for phylogenetic inference. Column i of row j is
// Rows[j].Residues[i].
type Alignment struct {
	Rows []*Sequence
}

// NewAlignment validates that all rows have equal length and wraps them.
func NewAlignment(rows []*Sequence) (*Alignment, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("seq: alignment needs at least one row")
	}
	n := rows[0].Len()
	for _, r := range rows[1:] {
		if r.Len() != n {
			return nil, fmt.Errorf("seq: alignment rows differ in length: %q has %d sites, %q has %d",
				rows[0].ID, n, r.ID, r.Len())
		}
	}
	return &Alignment{Rows: rows}, nil
}

// NTaxa returns the number of rows.
func (a *Alignment) NTaxa() int { return len(a.Rows) }

// NSites returns the number of columns.
func (a *Alignment) NSites() int {
	if len(a.Rows) == 0 {
		return 0
	}
	return a.Rows[0].Len()
}

// Taxa returns the row IDs in order.
func (a *Alignment) Taxa() []string {
	out := make([]string, len(a.Rows))
	for i, r := range a.Rows {
		out[i] = r.ID
	}
	return out
}

// Row returns the row with the given taxon name, or nil.
func (a *Alignment) Row(taxon string) *Sequence {
	for _, r := range a.Rows {
		if r.ID == taxon {
			return r
		}
	}
	return nil
}
