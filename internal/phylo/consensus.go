package phylo

import (
	"fmt"
	"sort"
	"strings"
)

// SplitSupport counts, for every non-trivial bipartition appearing in any
// input tree, the fraction of trees containing it. All trees must share one
// leaf set. This is the raw material for consensus methods.
func SplitSupport(trees []*Tree) (map[Bipartition]float64, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("phylo: consensus of zero trees")
	}
	ref := trees[0].LeafNames()
	counts := make(map[Bipartition]int)
	for i, t := range trees {
		names := t.LeafNames()
		if len(names) != len(ref) {
			return nil, fmt.Errorf("phylo: tree %d has %d leaves, tree 0 has %d", i, len(names), len(ref))
		}
		for j := range names {
			if names[j] != ref[j] {
				return nil, fmt.Errorf("phylo: tree %d leaf set differs from tree 0 (%q vs %q)", i, names[j], ref[j])
			}
		}
		for s := range t.Bipartitions() {
			counts[s]++
		}
	}
	out := make(map[Bipartition]float64, len(counts))
	for s, c := range counts {
		out[s] = float64(c) / float64(len(trees))
	}
	return out, nil
}

// MajorityRuleConsensus builds the majority-rule consensus of the input
// trees: the tree containing exactly the bipartitions present in more than
// half of them (such splits are always mutually compatible, so the tree is
// well defined). Biologists apply this to the trees from repeated
// stochastic DPRml runs — the multi-instance usage pattern behind
// Figure 2. Branch lengths on consensus edges are the support fractions;
// leaf edges get length 0.
func MajorityRuleConsensus(trees []*Tree) (*Tree, error) {
	support, err := SplitSupport(trees)
	if err != nil {
		return nil, err
	}
	var majority []Bipartition
	for s, frac := range support {
		if frac > 0.5 {
			majority = append(majority, s)
		}
	}
	return buildFromSplits(trees[0].LeafNames(), majority, support)
}

// splitSide returns the side of the split NOT containing the
// lexicographically first leaf (so every kept side is a proper "clade"
// under the rooting at that leaf).
func splitSide(s Bipartition, first string) ([]string, error) {
	parts := strings.SplitN(string(s), "|", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("phylo: malformed bipartition %q", s)
	}
	a := strings.Split(parts[0], ",")
	b := strings.Split(parts[1], ",")
	for _, x := range a {
		if x == first {
			return b, nil
		}
	}
	return a, nil
}

// buildFromSplits assembles a tree over the given leaves containing exactly
// the given (mutually compatible) splits. Algorithm: root at the first
// leaf; each split becomes the leaf set of one internal node; nest split
// sets by containment (compatible splits form a laminar family under the
// rooting), then hang each leaf from the smallest containing set.
func buildFromSplits(leaves []string, splits []Bipartition, support map[Bipartition]float64) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, fmt.Errorf("phylo: no leaves")
	}
	first := leaves[0]

	type clade struct {
		names  []string
		set    map[string]bool
		node   *Node
		sup    float64
		parent int // index into clades of the smallest strict superset
	}
	var clades []clade
	for _, s := range splits {
		side, err := splitSide(s, first)
		if err != nil {
			return nil, err
		}
		set := make(map[string]bool, len(side))
		for _, x := range side {
			set[x] = true
		}
		clades = append(clades, clade{names: side, set: set, sup: support[s], parent: -1})
	}
	// Sort by size ascending so each clade's parent (smallest superset)
	// appears later; check laminarity (compatibility) as we go.
	sort.Slice(clades, func(i, j int) bool {
		if len(clades[i].names) != len(clades[j].names) {
			return len(clades[i].names) < len(clades[j].names)
		}
		return strings.Join(clades[i].names, ",") < strings.Join(clades[j].names, ",")
	})
	contains := func(outer, inner map[string]bool) bool {
		for x := range inner {
			if !outer[x] {
				return false
			}
		}
		return true
	}
	overlaps := func(a, b map[string]bool) bool {
		for x := range a {
			if b[x] {
				return true
			}
		}
		return false
	}
	for i := range clades {
		for j := i + 1; j < len(clades); j++ {
			if contains(clades[j].set, clades[i].set) {
				clades[i].parent = j
				break
			}
			if overlaps(clades[i].set, clades[j].set) {
				return nil, fmt.Errorf("phylo: incompatible splits %v and %v", clades[i].names, clades[j].names)
			}
		}
	}

	root := NewInternal(0)
	tree := &Tree{Root: root}
	for i := range clades {
		clades[i].node = &Node{Length: clades[i].sup, ID: -1}
	}
	for i := range clades {
		if p := clades[i].parent; p >= 0 {
			clades[p].node.AddChild(clades[i].node)
		} else {
			root.AddChild(clades[i].node)
		}
	}
	// Hang each leaf from the smallest clade containing it (clades are
	// size-ascending, so the first match is smallest); unclaimed leaves and
	// the rooting leaf hang from the root.
	for _, name := range leaves {
		owner := root
		if name != first {
			for i := range clades {
				if clades[i].set[name] {
					owner = clades[i].node
					break
				}
			}
		}
		owner.AddChild(NewLeaf(name, 0))
	}
	if err := tree.Validate(); err != nil {
		return nil, fmt.Errorf("phylo: consensus built an invalid tree: %w", err)
	}
	return tree, nil
}
