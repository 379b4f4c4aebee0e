package dsearch

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/seq"
)

// Score statistics for search reports. Optimal local alignment scores of a
// query against unrelated random sequences follow an extreme-value (Gumbel)
// distribution (Karlin–Altschul); DSEARCH calibrates it empirically — score
// the query against shuffled decoys, fit the Gumbel by the method of
// moments — and converts each hit's score into a P-value ("chance a random
// database sequence scores this well") and an E-value ("expected number of
// database sequences scoring this well by chance").

// eulerGamma is the Euler–Mascheroni constant (Gumbel mean = mu + gamma*beta).
const eulerGamma = 0.5772156649015329

// Calibration holds one query's fitted Gumbel null distribution.
type Calibration struct {
	// Mu and Beta are the Gumbel location and scale.
	Mu, Beta float64
	// Samples is the number of decoy scores behind the fit.
	Samples int
}

// FitGumbel fits a Gumbel distribution to decoy scores by the method of
// moments: beta = sd*sqrt(6)/pi, mu = mean - gamma*beta.
func FitGumbel(scores []float64) (Calibration, error) {
	if len(scores) < 10 {
		return Calibration{}, fmt.Errorf("dsearch: Gumbel fit needs >= 10 decoy scores, got %d", len(scores))
	}
	var mean float64
	for _, s := range scores {
		mean += s
	}
	mean /= float64(len(scores))
	var ss float64
	for _, s := range scores {
		d := s - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(len(scores)-1))
	if sd == 0 {
		return Calibration{}, fmt.Errorf("dsearch: decoy scores are constant (%g); cannot calibrate", mean)
	}
	beta := sd * math.Sqrt(6) / math.Pi
	return Calibration{
		Mu:      mean - eulerGamma*beta,
		Beta:    beta,
		Samples: len(scores),
	}, nil
}

// PValue returns P(S >= s) under the fitted null.
func (c Calibration) PValue(s float64) float64 {
	z := (s - c.Mu) / c.Beta
	// 1 - exp(-exp(-z)), computed stably for large z.
	ez := math.Exp(-z)
	if ez < 1e-8 {
		return ez // 1 - exp(-x) ~ x for tiny x
	}
	return 1 - math.Exp(-ez)
}

// EValue returns the expected number of database sequences scoring >= s by
// chance, for a database of dbSize sequences.
func (c Calibration) EValue(s float64, dbSize int) float64 {
	return float64(dbSize) * c.PValue(s)
}

// shuffle returns a composition-preserving permutation of residues.
func shuffle(rng *rand.Rand, residues []byte) []byte {
	out := append([]byte(nil), residues...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Calibrate fits a per-query null distribution by scoring each query
// against nDecoys shuffled database sequences (sampled round-robin, so the
// decoy length distribution matches the database's). Deterministic for a
// given seed.
func Calibrate(db, queries *seq.Database, cfg Config, nDecoys int, seedVal int64) (map[string]Calibration, error) {
	if nDecoys < 10 {
		return nil, fmt.Errorf("dsearch: calibration needs >= 10 decoys, got %d", nDecoys)
	}
	if db == nil || db.Len() == 0 {
		return nil, fmt.Errorf("dsearch: empty database")
	}
	if err := uniqueIDs(db, queries); err != nil {
		return nil, err
	}
	al, err := cfg.aligner()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seedVal))
	decoys := make([][]byte, nDecoys)
	for i := range decoys {
		decoys[i] = shuffle(rng, db.Seqs[i%db.Len()].Residues)
	}
	out := make(map[string]Calibration, queries.Len())
	scorers := prepare(al, queries.Seqs)
	for qi, q := range queries.Seqs {
		scores := make([]float64, nDecoys)
		for i, d := range decoys {
			scores[i] = float64(scorers[qi](d))
		}
		c, err := FitGumbel(scores)
		if err != nil {
			return nil, fmt.Errorf("dsearch: calibrating %s: %w", q.ID, err)
		}
		out[q.ID] = c
	}
	return out, nil
}

// AnnotateEValues fills the EValue field of every hit from the per-query
// calibrations. Hits whose query has no calibration are left untouched.
func AnnotateEValues(h *HitList, calib map[string]Calibration, dbSize int) {
	for q, hs := range h.hits {
		c, ok := calib[q]
		if !ok {
			continue
		}
		for i := range hs {
			hs[i].EValue = c.EValue(float64(hs[i].Score), dbSize)
		}
	}
}

// FilterByEValue returns the hits with EValue <= cutoff, preserving order.
func (h *HitList) FilterByEValue(cutoff float64) []Hit {
	var out []Hit
	for _, hit := range h.All() {
		if hit.EValue <= cutoff {
			out = append(out, hit)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].EValue < out[j].EValue })
	return out
}
