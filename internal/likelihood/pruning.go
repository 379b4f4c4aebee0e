package likelihood

import (
	"fmt"
	"math"

	"repro/internal/phylo"
	"repro/internal/seq"
)

// CompressedAlignment is a site-pattern-compressed DNA alignment: identical
// columns are merged and weighted, which is the single most important
// optimisation in ML phylogenetics.
type CompressedAlignment struct {
	Taxa []string
	// Patterns[p] holds one state mask per taxon (same order as Taxa).
	Patterns [][]uint8
	// Weights[p] is the number of original columns with pattern p.
	Weights []int
	// NSites is the original column count.
	NSites int

	index map[string]int
	// siteToPattern maps each original column to its pattern index
	// (ancestral reconstruction expands patterns back to sites).
	siteToPattern []int
}

// Compress builds the pattern-compressed form of an alignment.
func Compress(a *seq.Alignment) *CompressedAlignment {
	nt, ns := a.NTaxa(), a.NSites()
	c := &CompressedAlignment{
		Taxa:   a.Taxa(),
		NSites: ns,
		index:  make(map[string]int, nt),
	}
	for i, t := range c.Taxa {
		c.index[t] = i
	}
	seen := make(map[string]int)
	col := make([]uint8, nt)
	c.siteToPattern = make([]int, ns)
	for s := 0; s < ns; s++ {
		for t := 0; t < nt; t++ {
			col[t] = StateMask(a.Rows[t].Residues[s])
		}
		key := string(col)
		if p, ok := seen[key]; ok {
			c.Weights[p]++
			c.siteToPattern[s] = p
			continue
		}
		p := len(c.Patterns)
		seen[key] = p
		c.siteToPattern[s] = p
		c.Patterns = append(c.Patterns, append([]uint8(nil), col...))
		c.Weights = append(c.Weights, 1)
	}
	return c
}

// NPatterns returns the number of distinct site patterns.
func (c *CompressedAlignment) NPatterns() int { return len(c.Patterns) }

// TaxonIndex returns the row index of a taxon, or -1.
func (c *CompressedAlignment) TaxonIndex(name string) int {
	if i, ok := c.index[name]; ok {
		return i
	}
	return -1
}

// Evaluator computes log-likelihoods of trees over a fixed alignment,
// substitution model and rate model using Felsenstein's pruning algorithm
// with per-pattern numerical scaling. An Evaluator is not safe for
// concurrent use; create one per goroutine (they share the immutable
// compressed alignment).
type Evaluator struct {
	Model *Model
	Rates *SiteRates
	Data  *CompressedAlignment

	// Scratch buffers, resized per tree. A partial (conditional-likelihood
	// vector) is laid out [cat][pattern][state]; its log-scale vector,
	// [pattern], holds the logs of every factor rescaled out of it and out
	// of the partials it was built from.
	clv   [][]float64 // [nodeID] down partial: the node's subtree given its state
	scale [][]float64 // [nodeID] the down partial's log-scale vector
	// view and viewScale hold, by node ID, the partial at the node's parent
	// seen from the node's branch (upView); viewed marks the ones that match
	// the current down partials and lengths.
	view, viewScale [][]float64
	viewed          []bool
	// edgeScale and site are a Brent step's: its virtual root's log-scale
	// vector and per-pattern likelihood.
	edgeScale, site []float64
	// star and tip are an InsertionScorer's: the star's set-up partial and
	// the new leaf's tip partial, with their log-scale vectors.
	star, starScale []float64
	tip, tipScale   []float64
	pmat            [NStates][NStates]float64
}

// NewEvaluator wires together the three inputs of an ML computation.
func NewEvaluator(m *Model, r *SiteRates, data *CompressedAlignment) (*Evaluator, error) {
	if m == nil || r == nil || data == nil {
		return nil, fmt.Errorf("likelihood: NewEvaluator requires model, rates and data")
	}
	if len(data.Patterns) == 0 {
		return nil, fmt.Errorf("likelihood: empty alignment")
	}
	return &Evaluator{Model: m, Rates: r, Data: data}, nil
}

const scaleThreshold = 1e-100

// LogLikelihood computes the log-likelihood of the tree. Every leaf must
// name a row of the alignment. The tree's node IDs are (re)assigned.
func (e *Evaluator) LogLikelihood(t *phylo.Tree) (float64, error) {
	if err := e.down(t); err != nil {
		return 0, err
	}
	return e.reduce(e.clv[t.Root.ID], e.scale[t.Root.ID], nil)
}

// edgeLogLikelihood returns the log-likelihood of t as a function of the
// length of n's branch, every other length held fixed. It runs the down
// pass and then branchLogLikelihood. The function reads e's buffers, so it
// is valid until e's next use.
func (e *Evaluator) edgeLogLikelihood(t *phylo.Tree, n *phylo.Node) (func(x float64) (float64, error), error) {
	if err := e.down(t); err != nil {
		return nil, err
	}
	return e.branchLogLikelihood(n), nil
}

// branchLogLikelihood is edgeLogLikelihood over the down partials already
// in e: once n's view of the rest of the tree is computed, each call of the
// returned function costs one absorb of n's down partial into that view, as
// if the tree were rooted on n's branch (the pulley principle).
func (e *Evaluator) branchLogLikelihood(n *phylo.Node) func(x float64) (float64, error) {
	up, upScale := e.upView(n)
	return e.edgeFunc(up, upScale, e.clv[n.ID], e.scale[n.ID])
}

// upView returns the partial at c's parent p seen from c's branch: the
// partial of everything outside c's subtree. It is p's own view carried
// down p's branch, times p's other children in order; the views up to the
// root are computed first and every view is kept until the next down pass
// or forgetViews. Time reversibility (π_i P_ij = π_j P_ji) lets the view
// from above use the same P·partial product as the down pass, with π
// applied once, at the virtual root.
func (e *Evaluator) upView(c *phylo.Node) ([]float64, []float64) {
	if e.viewed[c.ID] {
		return e.view[c.ID], e.viewScale[c.ID]
	}
	p := c.Parent
	size, npat := len(e.clv[c.ID]), len(e.scale[c.ID])
	dst, dstScale := resize(e.view[c.ID], size), resize(e.viewScale[c.ID], npat)
	e.view[c.ID], e.viewScale[c.ID] = dst, dstScale
	var base, baseScale []float64
	if p.Parent != nil {
		up, upScale := e.upView(p)
		e.absorb(dst, dstScale, nil, nil, up, upScale, p.Length)
		base, baseScale = dst, dstScale
	}
	for _, sib := range p.Children {
		if sib != c {
			e.absorb(dst, dstScale, base, baseScale, e.clv[sib.ID], e.scale[sib.ID], sib.Length)
			base, baseScale = dst, dstScale
		}
	}
	if base == nil { // a root with c as its only child
		fill(dst, 1)
		clear(dstScale)
	}
	rescale(dst, dstScale)
	e.viewed[c.ID] = true
	return dst, dstScale
}

// edgeFunc returns the log-likelihood as a function of the length of the
// branch between two partials: up, the tree seen from the branch's upper
// end, and down, the subtree below it. Each call is one absorb of down into
// up fused with the reduce of their product, the virtual root: the same
// products and sums in the same order as absorb then reduce, without
// storing the root's partial. Its log-scale vector is left in e.edgeScale.
func (e *Evaluator) edgeFunc(up, upScale, down, downScale []float64) func(x float64) (float64, error) {
	npat := len(upScale)
	stride := npat * NStates
	e.edgeScale, e.site = resize(e.edgeScale, npat), resize(e.site, npat)
	edgeScale, site := e.edgeScale, e.site
	pi := &e.Model.Pi
	catW := 1.0 / float64(len(e.Rates.Rates))
	return func(x float64) (float64, error) {
		clear(site)
		for cat, r := range e.Rates.Rates {
			e.Model.TransitionMatrix(x*r, &e.pmat)
			m := &e.pmat
			u, d := up[cat*stride:][:stride], down[cat*stride:][:stride]
			for p := range site {
				b := p * NStates
				c0, c1, c2, c3 := d[b], d[b+1], d[b+2], d[b+3]
				v0 := u[b] * (m[0][0]*c0 + m[0][1]*c1 + m[0][2]*c2 + m[0][3]*c3)
				v1 := u[b+1] * (m[1][0]*c0 + m[1][1]*c1 + m[1][2]*c2 + m[1][3]*c3)
				v2 := u[b+2] * (m[2][0]*c0 + m[2][1]*c1 + m[2][2]*c2 + m[2][3]*c3)
				v3 := u[b+3] * (m[3][0]*c0 + m[3][1]*c1 + m[3][2]*c2 + m[3][3]*c3)
				site[p] += pi[0]*v0 + pi[1]*v1 + pi[2]*v2 + pi[3]*v3
			}
		}
		logL := 0.0
		for p, l := range site {
			l *= catW
			if l <= 0 {
				return 0, fmt.Errorf("likelihood: zero site likelihood at pattern %d (branch lengths too extreme?)", p)
			}
			edgeScale[p] = upScale[p] + downScale[p]
			logL += float64(e.Data.Weights[p]) * (math.Log(l) + edgeScale[p])
		}
		return logL, nil
	}
}

// down is Felsenstein's pruning pass: it (re)indexes t and fills every
// node's down partial and log-scale vector, children before parents.
func (e *Evaluator) down(t *phylo.Tree) error {
	nNodes := t.Index()
	npat := e.Data.NPatterns()
	size := e.Rates.NCategories() * npat * NStates
	if len(e.clv) < nNodes {
		e.clv = append(e.clv, make([][]float64, nNodes-len(e.clv))...)
		e.scale = append(e.scale, make([][]float64, nNodes-len(e.scale))...)
		e.view = append(e.view, make([][]float64, nNodes-len(e.view))...)
		e.viewScale = append(e.viewScale, make([][]float64, nNodes-len(e.viewScale))...)
		e.viewed = make([]bool, nNodes)
	}
	e.forgetViews()
	var err error
	t.WalkPost(func(n *phylo.Node) {
		if err != nil {
			return
		}
		e.clv[n.ID], e.scale[n.ID] = resize(e.clv[n.ID], size), resize(e.scale[n.ID], npat)
		if n.IsLeaf() {
			clear(e.scale[n.ID])
			err = e.fillLeaf(n.Name, e.clv[n.ID])
			return
		}
		e.downNode(n)
	})
	return err
}

// forgetViews marks every upView stale: a down partial or a length changed.
func (e *Evaluator) forgetViews() { clear(e.viewed) }

// downNode recomputes an internal node's down partial from its children's,
// in child order.
func (e *Evaluator) downNode(n *phylo.Node) {
	clv, scale := e.clv[n.ID], e.scale[n.ID]
	var base, baseScale []float64
	for _, c := range n.Children {
		e.absorb(clv, scale, base, baseScale, e.clv[c.ID], e.scale[c.ID], c.Length)
		base, baseScale = clv, scale
	}
	rescale(clv, scale)
}

// reduce is the log-likelihood at a (virtual) root whose partial and
// log-scale vector are clv and scale: the weighted sum over patterns of
// log(mean over categories of Σ_i π_i clv_i) + scale. If patLL is not nil,
// it receives each pattern's log-likelihood.
func (e *Evaluator) reduce(clv, scale, patLL []float64) (float64, error) {
	npat := len(scale)
	stride := npat * NStates
	ncat := len(clv) / stride
	pi := &e.Model.Pi
	catW := 1.0 / float64(ncat)
	logL := 0.0
	for p := 0; p < npat; p++ {
		site := 0.0
		for cat := 0; cat < ncat; cat++ {
			b := cat*stride + p*NStates
			site += pi[0]*clv[b] + pi[1]*clv[b+1] + pi[2]*clv[b+2] + pi[3]*clv[b+3]
		}
		site *= catW
		if site <= 0 {
			return 0, fmt.Errorf("likelihood: zero site likelihood at pattern %d (branch lengths too extreme?)", p)
		}
		ll := math.Log(site) + scale[p]
		if patLL != nil {
			patLL[p] = ll
		}
		logL += float64(e.Data.Weights[p]) * ll
	}
	return logL, nil
}

// fillLeaf sets clv to the tip partial of the named taxon's row.
func (e *Evaluator) fillLeaf(name string, clv []float64) error {
	row := e.Data.TaxonIndex(name)
	if row < 0 {
		return fmt.Errorf("likelihood: leaf %q has no alignment row", name)
	}
	npat := e.Data.NPatterns()
	stride := npat * NStates
	for p := 0; p < npat; p++ {
		mask := e.Data.Patterns[p][row]
		for i := 0; i < NStates; i++ {
			clv[p*NStates+i] = float64(mask >> i & 1)
		}
	}
	// Copy category 0 into the remaining categories (leaf CLVs are
	// category-independent).
	for off := stride; off < len(clv); off += stride {
		copy(clv[off:off+stride], clv[:stride])
	}
	return nil
}

// absorb is the one pruning kernel: in each rate category r it sets the
// partial dst to base times P(length·r)·src, and dst's log-scale vector to
// the sum of base's and src's. base may be dst itself. A nil base stands
// for a partial of ones, so the first factor of a product is assigned, not
// multiplied into a filled buffer (1·x == x: the bits are the same). The
// down pass absorbs each child into its parent, the up pass the view from
// above and the siblings, and a Brent step the lower side of an edge into
// the upper.
func (e *Evaluator) absorb(dst, dstScale, base, baseScale, src, srcScale []float64, length float64) {
	stride := len(dstScale) * NStates
	for cat, r := range e.Rates.Rates {
		e.Model.TransitionMatrix(length*r, &e.pmat)
		p := &e.pmat
		d, s := dst[cat*stride:][:stride], src[cat*stride:][:stride]
		if base == nil {
			for b := 0; b+NStates <= len(d); b += NStates {
				c0, c1, c2, c3 := s[b], s[b+1], s[b+2], s[b+3]
				d[b] = p[0][0]*c0 + p[0][1]*c1 + p[0][2]*c2 + p[0][3]*c3
				d[b+1] = p[1][0]*c0 + p[1][1]*c1 + p[1][2]*c2 + p[1][3]*c3
				d[b+2] = p[2][0]*c0 + p[2][1]*c1 + p[2][2]*c2 + p[2][3]*c3
				d[b+3] = p[3][0]*c0 + p[3][1]*c1 + p[3][2]*c2 + p[3][3]*c3
			}
			continue
		}
		g := base[cat*stride:][:stride]
		for b := 0; b+NStates <= len(d); b += NStates {
			c0, c1, c2, c3 := s[b], s[b+1], s[b+2], s[b+3]
			d[b] = g[b] * (p[0][0]*c0 + p[0][1]*c1 + p[0][2]*c2 + p[0][3]*c3)
			d[b+1] = g[b+1] * (p[1][0]*c0 + p[1][1]*c1 + p[1][2]*c2 + p[1][3]*c3)
			d[b+2] = g[b+2] * (p[2][0]*c0 + p[2][1]*c1 + p[2][2]*c2 + p[2][3]*c3)
			d[b+3] = g[b+3] * (p[3][0]*c0 + p[3][1]*c1 + p[3][2]*c2 + p[3][3]*c3)
		}
	}
	if baseScale == nil {
		copy(dstScale, srcScale)
		return
	}
	for i, v := range srcScale {
		dstScale[i] = baseScale[i] + v
	}
}

// rescale applies the numerical-scaling rule: a pattern whose largest entry
// over categories and states is below scaleThreshold is divided by that
// entry, whose log is added to the pattern's log-scale. The scan of a
// pattern stops at the first category that reaches the threshold, which
// for most patterns is the first.
func rescale(clv, scale []float64) {
	npat := len(scale)
	stride := npat * NStates
	for p := 0; p < npat; p++ {
		maxV := 0.0
		for b := p * NStates; b < len(clv) && maxV < scaleThreshold; b += stride {
			maxV = max(maxV, clv[b], clv[b+1], clv[b+2], clv[b+3])
		}
		if maxV > 0 && maxV < scaleThreshold {
			inv := 1 / maxV
			for b := p * NStates; b < len(clv); b += stride {
				clv[b] *= inv
				clv[b+1] *= inv
				clv[b+2] *= inv
				clv[b+3] *= inv
			}
			scale[p] += math.Log(maxV)
		}
	}
}

// resize returns buf with length n, reallocating only when it is too short.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func fill(buf []float64, v float64) {
	for i := range buf {
		buf[i] = v
	}
}
