// Package dsearch implements DSEARCH (Keane & Naughton 2004): sensitive
// sequence database searching on the distributed system. The FASTA database
// is split into dynamically sized chunks by the server-side DataManager;
// donors align the query set against their chunk with one of the rigorous
// built-in algorithms (Needleman–Wunsch, Smith–Waterman, banded,
// Hirschberg); the server merges per-chunk top-hit lists into the final
// report.
package dsearch

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/align"
	"repro/internal/seq"
)

// Config is DSEARCH's straightforward configuration file, mirroring the
// paper's description: the user picks an algorithm, a scoring scheme and
// output size; everything else is scheduling policy handled by the system.
type Config struct {
	// Algorithm is one of the built-in search algorithms
	// ("smith-waterman", "needleman-wunsch", "banded", "hirschberg").
	Algorithm string
	// Matrix names the scoring matrix ("BLOSUM62", "PAM250", "DNA", "UNIT").
	Matrix string
	// GapOpen and GapExtend are the affine gap penalties.
	GapOpen, GapExtend int
	// Band is the banded algorithm's bandwidth (0 = auto).
	Band int
	// TopK is the number of hits reported per query.
	TopK int
	// MinScore discards hits scoring below this threshold.
	MinScore int
	// ReportAlignments makes donors run the traceback on each kept hit and
	// ship the gapped alignment strings with it (costlier units, richer
	// report).
	ReportAlignments bool
	// MaskLowComplexity applies a SEG/DUST-style windowed-entropy filter
	// to database and queries before the search, suppressing spurious
	// hits between compositionally biased regions. MaskWindow and
	// MaskThreshold tune it (defaults 12 and 2.2 bits, protein-oriented;
	// DNA searches want a threshold near 1.5).
	MaskLowComplexity bool
	MaskWindow        int
	MaskThreshold     float64
}

// DefaultConfig is a sensible protein search setup.
func DefaultConfig() Config {
	return Config{
		Algorithm: align.AlgSmithWaterman,
		Matrix:    "BLOSUM62",
		GapOpen:   10,
		GapExtend: 1,
		TopK:      25,
		MinScore:  1,
	}
}

// Validate resolves and checks the configuration.
func (c *Config) Validate() error {
	if c.TopK <= 0 {
		return fmt.Errorf("dsearch: topk must be positive, got %d", c.TopK)
	}
	if c.MaskWindow == 0 {
		c.MaskWindow = 12
	}
	if c.MaskThreshold == 0 {
		c.MaskThreshold = 2.2
	}
	if c.MaskLowComplexity {
		// The filter checks its own window and threshold; an empty
		// sequence has no window to scan.
		if _, err := seq.LowComplexityRegions(nil, c.MaskWindow, c.MaskThreshold); err != nil {
			return fmt.Errorf("dsearch: mask: %w", err)
		}
	}
	if _, err := c.aligner(); err != nil {
		return err
	}
	return nil
}

// applyMask runs the low-complexity filter over both inputs when enabled,
// returning (possibly new) databases.
func (c *Config) applyMask(db, queries *seq.Database) (*seq.Database, *seq.Database, error) {
	if !c.MaskLowComplexity {
		return db, queries, nil
	}
	mdb, err := seq.MaskDatabase(db, c.MaskWindow, c.MaskThreshold)
	if err != nil {
		return nil, nil, err
	}
	mq, err := seq.MaskDatabase(queries, c.MaskWindow, c.MaskThreshold)
	if err != nil {
		return nil, nil, err
	}
	return mdb, mq, nil
}

// aligner builds the configured alignment algorithm.
func (c *Config) aligner() (align.Aligner, error) {
	m, err := seq.MatrixByName(c.Matrix)
	if err != nil {
		return nil, err
	}
	return align.New(c.Algorithm, align.Params{
		Matrix: m,
		Gap:    align.Gap{Open: c.GapOpen, Extend: c.GapExtend},
	}, c.Band)
}

// parseBool accepts the config file's boolean spellings.
func parseBool(val string) (bool, error) {
	switch strings.ToLower(val) {
	case "true", "yes", "1":
		return true, nil
	case "false", "no", "0":
		return false, nil
	default:
		return false, fmt.Errorf("bad boolean %q", val)
	}
}

// errExplicitZero rejects a mask_window or mask_threshold of 0 in a config
// file: Validate reads a zero field as "unset" and substitutes the default,
// so a written 0 would silently mean 12 or 2.2.
var errExplicitZero = errors.New("must be non-zero (omit the key for the default)")

// ParseConfig reads the key=value configuration file format:
//
//	# comment
//	algorithm = smith-waterman
//	matrix    = BLOSUM62
//	gap_open  = 10
//	gap_extend = 1
//	topk      = 25
func ParseConfig(r io.Reader) (Config, error) {
	c := DefaultConfig()
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, val, ok := strings.Cut(text, "=")
		if !ok {
			return c, fmt.Errorf("dsearch: config line %d: expected key=value, got %q", line, text)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "algorithm":
			c.Algorithm = val
		case "matrix":
			c.Matrix = val
		case "gap_open":
			c.GapOpen, err = strconv.Atoi(val)
		case "gap_extend":
			c.GapExtend, err = strconv.Atoi(val)
		case "band":
			c.Band, err = strconv.Atoi(val)
		case "topk":
			c.TopK, err = strconv.Atoi(val)
		case "min_score":
			c.MinScore, err = strconv.Atoi(val)
		case "report_alignments":
			c.ReportAlignments, err = parseBool(val)
		case "mask_low_complexity":
			c.MaskLowComplexity, err = parseBool(val)
		case "mask_window":
			if c.MaskWindow, err = strconv.Atoi(val); err == nil && c.MaskWindow == 0 {
				err = errExplicitZero
			}
		case "mask_threshold":
			if c.MaskThreshold, err = strconv.ParseFloat(val, 64); err == nil && c.MaskThreshold == 0 {
				err = errExplicitZero
			}
		default:
			return c, fmt.Errorf("dsearch: config line %d: unknown key %q", line, key)
		}
		if err != nil {
			return c, fmt.Errorf("dsearch: config line %d: bad value %q for %s: %w", line, val, key, err)
		}
	}
	if err := sc.Err(); err != nil {
		return c, err
	}
	return c, c.Validate()
}
