package likelihood

import (
	"fmt"

	"repro/internal/phylo"
)

// Marginal ancestral sequence reconstruction at the root — a standard PAL
// facility: given the tree and model, the posterior distribution over the
// root's state at each site is Pi_i * L_root,i / sum_j Pi_j * L_root,j
// (with gamma categories averaged). The root of the (arbitrarily rooted)
// tree is what DPRml reports, so "the root sequence" is the ancestral
// sequence of the whole taxon set under the pulley principle.

// AncestralResult holds the per-site root state posteriors.
type AncestralResult struct {
	// Sequence is the maximum-posterior base per site (A/C/G/T).
	Sequence []byte
	// Posterior[s] is the probability of Sequence[s] at site s.
	Posterior []float64
}

// AncestralRoot computes the marginal ancestral reconstruction at the
// tree's root. The evaluator's scratch state is reused, so it must not be
// shared across goroutines.
func (e *Evaluator) AncestralRoot(t *phylo.Tree) (*AncestralResult, error) {
	// Run the pruning pass to populate the root's partial.
	if err := e.down(t); err != nil {
		return nil, err
	}
	ncat := e.Rates.NCategories()
	npat := e.Data.NPatterns()
	stride := npat * NStates
	root := e.clv[t.Root.ID]

	bases := []byte("ACGT")
	patBase := make([]byte, npat)
	patPost := make([]float64, npat)
	for p := 0; p < npat; p++ {
		var post [NStates]float64
		var total float64
		for cat := 0; cat < ncat; cat++ {
			b := cat*stride + p*NStates
			for i := 0; i < NStates; i++ {
				v := e.Model.Pi[i] * root[b+i]
				post[i] += v
				total += v
			}
		}
		if total <= 0 {
			return nil, fmt.Errorf("likelihood: zero root likelihood at pattern %d", p)
		}
		bestI, bestV := 0, post[0]
		for i := 1; i < NStates; i++ {
			if post[i] > bestV {
				bestI, bestV = i, post[i]
			}
		}
		patBase[p] = bases[bestI]
		patPost[p] = bestV / total
	}

	// Expand patterns back to original site order.
	res := &AncestralResult{
		Sequence:  make([]byte, 0, e.Data.NSites),
		Posterior: make([]float64, 0, e.Data.NSites),
	}
	patOf, err := e.patternOfSite()
	if err != nil {
		return nil, err
	}
	for s := 0; s < e.Data.NSites; s++ {
		p := patOf[s]
		res.Sequence = append(res.Sequence, patBase[p])
		res.Posterior = append(res.Posterior, patPost[p])
	}
	return res, nil
}

// patternOfSite reconstructs the site -> pattern mapping. Compress folds
// identical columns in first-occurrence order, so replaying its logic over
// the stored patterns recovers the map without keeping the original
// alignment.
func (e *Evaluator) patternOfSite() ([]int, error) {
	if len(e.Data.siteToPattern) == e.Data.NSites && e.Data.NSites > 0 {
		return e.Data.siteToPattern, nil
	}
	return nil, fmt.Errorf("likelihood: alignment was not compressed with site mapping (use Compress)")
}

// SiteLogLikelihoods returns the per-site log-likelihood contributions, in
// original column order. Their sum equals LogLikelihood; per-site values
// feed topology tests (KH/SH) and model diagnostics.
func (e *Evaluator) SiteLogLikelihoods(t *phylo.Tree) ([]float64, error) {
	if err := e.down(t); err != nil {
		return nil, err
	}
	patLL := make([]float64, e.Data.NPatterns())
	if _, err := e.reduce(e.clv[t.Root.ID], e.scale[t.Root.ID], patLL); err != nil {
		return nil, err
	}
	patOf, err := e.patternOfSite()
	if err != nil {
		return nil, err
	}
	out := make([]float64, e.Data.NSites)
	for s := range out {
		out[s] = patLL[patOf[s]]
	}
	return out, nil
}
