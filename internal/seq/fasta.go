package seq

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
)

// ReadFASTA parses all records from r. Header lines begin with '>' (the
// legacy ';' comment form is skipped). Sequence data may span any number of
// lines; interior whitespace is dropped.
func ReadFASTA(r io.Reader) (*Database, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	db := &Database{}
	var cur *Sequence
	var body bytes.Buffer
	flush := func() {
		if cur != nil {
			cur.Residues = append([]byte(nil), body.Bytes()...)
			db.Seqs = append(db.Seqs, cur)
			body.Reset()
		}
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, ";"):
			continue
		case strings.HasPrefix(line, ">"):
			flush()
			header := strings.TrimSpace(line[1:])
			if header == "" {
				return nil, fmt.Errorf("seq: empty FASTA header at line %d", lineNo)
			}
			id, desc, _ := strings.Cut(header, " ")
			cur = &Sequence{ID: id, Desc: strings.TrimSpace(desc)}
		default:
			if cur == nil {
				return nil, fmt.Errorf("seq: sequence data before any FASTA header at line %d", lineNo)
			}
			for i := 0; i < len(line); i++ {
				if line[i] != ' ' && line[i] != '\t' {
					body.WriteByte(line[i])
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("seq: reading FASTA: %w", err)
	}
	flush()
	if len(db.Seqs) == 0 {
		return nil, fmt.Errorf("seq: no FASTA records found")
	}
	return db, nil
}

// ReadFASTAFile opens and parses a FASTA file.
func ReadFASTAFile(path string) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFASTA(f)
}

// ParseFASTA parses FASTA-formatted text held in memory.
func ParseFASTA(text string) (*Database, error) {
	return ReadFASTA(strings.NewReader(text))
}

// WriteFASTA writes the database in FASTA format, wrapping residue lines at
// width columns (width <= 0 means no wrapping).
func WriteFASTA(w io.Writer, db *Database, width int) error {
	bw := bufio.NewWriter(w)
	for _, s := range db.Seqs {
		if _, err := fmt.Fprintf(bw, ">%s\n", s.Header()); err != nil {
			return err
		}
		res := s.Residues
		if width <= 0 {
			width = len(res)
		}
		for off := 0; off < len(res); off += width {
			end := off + width
			if end > len(res) {
				end = len(res)
			}
			if _, err := bw.Write(res[off:end]); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
		if len(res) == 0 {
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteFASTAFile writes the database to a file at the conventional 70-column
// wrap.
func WriteFASTAFile(path string, db *Database) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteFASTA(f, db, 70); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadAlignmentFASTA parses a FASTA file whose records form a multiple
// sequence alignment (all equal length).
func ReadAlignmentFASTA(r io.Reader) (*Alignment, error) {
	db, err := ReadFASTA(r)
	if err != nil {
		return nil, err
	}
	return NewAlignment(db.Seqs)
}
