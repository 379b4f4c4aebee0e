package phylo

import (
	"fmt"
	"math"
)

// Rooting utilities. The likelihood of a reversible model is invariant to
// root placement (the "pulley principle"), so DPRml's trees are reported
// unrooted; for display and for comparing clades, biologists root them —
// usually at the midpoint of the longest leaf-to-leaf path when no
// outgroup is available.

// pathFromRoot returns child indices leading from the root to n.
func pathFromRoot(n *Node) []int {
	var rev []int
	for n.Parent != nil {
		p := n.Parent
		for i, c := range p.Children {
			if c == n {
				rev = append(rev, i)
				break
			}
		}
		n = p
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev
}

// rerootAbove restructures the (cloned) tree in place so the new root sits
// on the edge above node, at distance lenBelow from node.
func rerootAbove(t *Tree, node *Node, lenBelow float64) (*Tree, error) {
	parent := node.Parent
	if parent == nil {
		return nil, fmt.Errorf("phylo: cannot reroot above the root")
	}
	lenAbove := node.Length - lenBelow
	if lenAbove < 0 {
		return nil, fmt.Errorf("phylo: split point %g exceeds branch length %g", lenBelow, node.Length)
	}
	// Detach node from parent.
	parent.removeChild(node)
	node.Parent = nil
	node.Length = lenBelow

	// Reverse all parent pointers from parent up to the old root: each
	// ancestor becomes a child of its former child.
	prev := parent
	prevLen := lenAbove
	newRoot := &Node{ID: -1}
	newRoot.AddChild(node)
	cur := prev
	curUp := cur.Parent
	cur.Parent = nil
	cur.Length, prevLen = prevLen, cur.Length
	newRoot.Children = append(newRoot.Children, cur)
	cur.Parent = newRoot
	for curUp != nil {
		next := curUp.Parent
		curUp.removeChild(cur)
		l := prevLen
		prevLen = curUp.Length
		curUp.Length = l
		cur.AddChild(curUp)
		cur = curUp
		curUp = next
	}
	// If the old root was left with a single child, splice it out.
	if len(cur.Children) == 1 && cur.Parent != nil {
		only := cur.Children[0]
		only.Length += cur.Length
		gp := cur.Parent
		gp.removeChild(cur)
		gp.AddChild(only)
	}
	out := &Tree{Root: newRoot}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("phylo: reroot produced invalid tree: %w", err)
	}
	return out, nil
}

// MidpointRoot returns a copy of the tree rooted at the midpoint of the
// longest leaf-to-leaf path.
func (t *Tree) MidpointRoot() (*Tree, error) {
	leaves := t.Leaves()
	if len(leaves) < 2 {
		return nil, fmt.Errorf("phylo: midpoint rooting needs >= 2 leaves")
	}
	// Longest path: for every pair, distance via LCA. n is small in this
	// system (tens of taxa), so the O(n^2) scan is fine.
	dist := func(a, b *Node) float64 {
		da := map[*Node]float64{}
		for n, d := a, 0.0; n != nil; n = n.Parent {
			da[n] = d
			d += n.Length
		}
		d := 0.0
		for n := b; n != nil; n = n.Parent {
			if up, ok := da[n]; ok {
				return d + up
			}
			d += n.Length
		}
		return math.Inf(1)
	}
	var bestA, bestB *Node
	bestD := -1.0
	for i := 0; i < len(leaves); i++ {
		for j := i + 1; j < len(leaves); j++ {
			if d := dist(leaves[i], leaves[j]); d > bestD {
				bestD, bestA, bestB = d, leaves[i], leaves[j]
			}
		}
	}
	// Walk from bestA toward bestB until cumulative distance passes
	// bestD/2; the midpoint lies on that edge. Path A->LCA->B.
	half := bestD / 2
	// Ancestor chain of A with distances.
	aUp := map[*Node]float64{}
	for n, d := bestA, 0.0; n != nil; n = n.Parent {
		aUp[n] = d
		d += n.Length
	}
	// Find LCA and B-side distance.
	var lca *Node
	bDist := 0.0
	for n := bestB; n != nil; n = n.Parent {
		if _, ok := aUp[n]; ok {
			lca = n
			break
		}
		bDist += n.Length
	}
	_ = bDist
	// Climb from A: edges (A..lca]. Each step crosses edge above cur.
	acc := 0.0
	for cur := bestA; cur != lca; cur = cur.Parent {
		if acc+cur.Length >= half {
			return t.rerootCloneAbove(cur, half-acc)
		}
		acc += cur.Length
	}
	// Midpoint lies on the B side: climb from B toward the LCA; distance
	// from A to a point on B's chain = bestD - (distance from B).
	accB := 0.0
	for cur := bestB; cur != lca; cur = cur.Parent {
		fromA := bestD - (accB + cur.Length)
		if fromA <= half {
			// Midpoint inside this edge, at (half - fromA) above... measure
			// from the child end: child is cur, distance from B end:
			below := half - fromA // portion of the edge below the midpoint (toward lca is "above")
			return t.rerootCloneAbove(cur, cur.Length-below)
		}
		accB += cur.Length
	}
	// Degenerate (zero-length paths): root above bestA.
	return t.rerootCloneAbove(bestA, bestA.Length/2)
}

// rerootCloneAbove clones the tree and roots it on the edge above the
// given node (from the original tree), lenBelow above the node.
func (t *Tree) rerootCloneAbove(node *Node, lenBelow float64) (*Tree, error) {
	path := pathFromRoot(node)
	c := t.Clone()
	n := c.Root
	for _, idx := range path {
		n = n.Children[idx]
	}
	return rerootAbove(c, n, lenBelow)
}
