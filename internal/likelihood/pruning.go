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
	// up and upScale are a ping-pong pair for the up pass: the partial of
	// the rest of the tree, seen from a node on the path to the edge being
	// optimised. edge and edgeScale hold one Brent step's virtual root.
	up, upScale     [2][]float64
	edge, edgeScale []float64
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
// pass and then the up pass to n.Parent once; each call of the returned
// function then costs one absorb of n's down partial into the up partial,
// as if the tree were rooted on n's branch (the pulley principle). The
// function reads e's buffers, so it is valid until e's next use.
func (e *Evaluator) edgeLogLikelihood(t *phylo.Tree, n *phylo.Node) (func(x float64) (float64, error), error) {
	if err := e.down(t); err != nil {
		return nil, err
	}
	var path []*phylo.Node // n.Parent up to the root
	for v := n.Parent; v != nil; v = v.Parent {
		path = append(path, v)
	}
	size, npat := len(e.clv[n.ID]), len(e.scale[n.ID])
	for i := range e.up {
		e.up[i], e.upScale[i] = resize(e.up[i], size), resize(e.upScale[i], npat)
	}
	e.edge, e.edgeScale = resize(e.edge, size), resize(e.edgeScale, npat)
	// Root first, each path node v gets the partial of everything outside
	// the subtree below it on the path: the view from v's parent carried
	// down v's branch, times v's other children. Time reversibility
	// (π_i P_ij = π_j P_ji) lets the view from above use the same P·partial
	// product as the down pass, with π applied once, at the virtual root.
	var up, upScale []float64
	for j := len(path) - 1; j >= 0; j-- {
		v, below := path[j], n
		if j > 0 {
			below = path[j-1]
		}
		dst, dstScale := e.up[j%2], e.upScale[j%2]
		fill(dst, 1)
		clear(dstScale)
		if up != nil {
			e.absorb(dst, dstScale, up, upScale, v.Length)
		}
		for _, c := range v.Children {
			if c != below {
				e.absorb(dst, dstScale, e.clv[c.ID], e.scale[c.ID], c.Length)
			}
		}
		rescale(dst, dstScale)
		up, upScale = dst, dstScale
	}
	down, downScale := e.clv[n.ID], e.scale[n.ID]
	return func(x float64) (float64, error) {
		copy(e.edge, up)
		copy(e.edgeScale, upScale)
		e.absorb(e.edge, e.edgeScale, down, downScale, x)
		return e.reduce(e.edge, e.edgeScale, nil)
	}, nil
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
	}
	var err error
	t.WalkPost(func(n *phylo.Node) {
		if err != nil {
			return
		}
		clv, scale := resize(e.clv[n.ID], size), resize(e.scale[n.ID], npat)
		e.clv[n.ID], e.scale[n.ID] = clv, scale
		clear(scale)
		if n.IsLeaf() {
			err = e.fillLeaf(n, clv)
			return
		}
		fill(clv, 1)
		for _, c := range n.Children {
			e.absorb(clv, scale, e.clv[c.ID], e.scale[c.ID], c.Length)
		}
		rescale(clv, scale)
	})
	return err
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

func (e *Evaluator) fillLeaf(n *phylo.Node, clv []float64) error {
	row := e.Data.TaxonIndex(n.Name)
	if row < 0 {
		return fmt.Errorf("likelihood: leaf %q has no alignment row", n.Name)
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

// absorb is the one pruning kernel: it multiplies the partial dst by
// P(length·r)·src in each rate category r and adds src's log-scale vector
// to dst's. The down pass absorbs each child into its parent, the up pass
// the view from above and the siblings, and a Brent step the lower side
// of an edge into the upper.
func (e *Evaluator) absorb(dst, dstScale, src, srcScale []float64, length float64) {
	stride := len(dstScale) * NStates
	for cat, r := range e.Rates.Rates {
		e.Model.TransitionMatrix(length*r, &e.pmat)
		p := &e.pmat
		d, s := dst[cat*stride:][:stride], src[cat*stride:][:stride]
		for b := 0; b+NStates <= len(d); b += NStates {
			c0, c1, c2, c3 := s[b], s[b+1], s[b+2], s[b+3]
			d[b] *= p[0][0]*c0 + p[0][1]*c1 + p[0][2]*c2 + p[0][3]*c3
			d[b+1] *= p[1][0]*c0 + p[1][1]*c1 + p[1][2]*c2 + p[1][3]*c3
			d[b+2] *= p[2][0]*c0 + p[2][1]*c1 + p[2][2]*c2 + p[2][3]*c3
			d[b+3] *= p[3][0]*c0 + p[3][1]*c1 + p[3][2]*c2 + p[3][3]*c3
		}
	}
	for i, v := range srcScale {
		dstScale[i] += v
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
