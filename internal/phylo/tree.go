// Package phylo provides the phylogenetic-tree substrate for DPRml: tree
// data structures, Newick I/O, the tree-surgery operations stepwise
// insertion needs (edge enumeration, leaf insertion/removal), distance-based
// baseline methods (neighbor joining), and Robinson–Foulds tree comparison.
//
// Trees are rooted data structures; an unrooted binary tree is represented
// in the fastDNAml convention as a rooted tree whose root has three
// children (a trifurcation). Branch lengths live on child nodes (length of
// the edge to the parent).
package phylo

import (
	"fmt"
	"sort"
	"strings"
)

// Node is a tree vertex. Leaves have a Name and no children. Length is the
// branch length of the edge connecting the node to its parent (ignored on
// the root).
type Node struct {
	Name     string
	Length   float64
	Children []*Node
	Parent   *Node
	// ID is a stable small-integer identifier assigned by Tree.Index; -1
	// until indexed. Likelihood code uses it to address per-node buffers.
	ID int
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// AddChild links c under n.
func (n *Node) AddChild(c *Node) {
	c.Parent = n
	n.Children = append(n.Children, c)
}

// removeChild unlinks c from n (c keeps its Parent pointer for the caller
// to fix).
func (n *Node) removeChild(c *Node) bool {
	for i, x := range n.Children {
		if x == c {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			return true
		}
	}
	return false
}

// Tree is a rooted tree. All mutation goes through methods that keep parent
// pointers consistent.
type Tree struct {
	Root *Node
}

// NewLeaf returns a leaf node.
func NewLeaf(name string, length float64) *Node {
	return &Node{Name: name, Length: length, ID: -1}
}

// NewInternal returns an internal node over the given children.
func NewInternal(length float64, children ...*Node) *Node {
	n := &Node{Length: length, ID: -1}
	for _, c := range children {
		n.AddChild(c)
	}
	return n
}

// Walk visits every node in pre-order.
func (t *Tree) Walk(visit func(*Node)) {
	var rec func(*Node)
	rec = func(n *Node) {
		visit(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	if t.Root != nil {
		rec(t.Root)
	}
}

// WalkPost visits every node in post-order (children before parents) — the
// order the pruning algorithm needs.
func (t *Tree) WalkPost(visit func(*Node)) {
	var rec func(*Node)
	rec = func(n *Node) {
		for _, c := range n.Children {
			rec(c)
		}
		visit(n)
	}
	if t.Root != nil {
		rec(t.Root)
	}
}

// Leaves returns all leaf nodes in pre-order.
func (t *Tree) Leaves() []*Node {
	var out []*Node
	t.Walk(func(n *Node) {
		if n.IsLeaf() {
			out = append(out, n)
		}
	})
	return out
}

// LeafNames returns the sorted names of all leaves.
func (t *Tree) LeafNames() []string {
	var out []string
	for _, l := range t.Leaves() {
		out = append(out, l.Name)
	}
	sort.Strings(out)
	return out
}

// NLeaves returns the number of leaves.
func (t *Tree) NLeaves() int { return len(t.Leaves()) }

// Index assigns consecutive IDs: leaves first (in pre-order), then internal
// nodes. Returns the node count. Likelihood buffers are addressed by these
// IDs.
func (t *Tree) Index() int {
	id := 0
	t.Walk(func(n *Node) {
		if n.IsLeaf() {
			n.ID = id
			id++
		}
	})
	t.Walk(func(n *Node) {
		if !n.IsLeaf() {
			n.ID = id
			id++
		}
	})
	return id
}

// Clone deep-copies the tree.
func (t *Tree) Clone() *Tree {
	var rec func(*Node) *Node
	rec = func(n *Node) *Node {
		c := &Node{Name: n.Name, Length: n.Length, ID: n.ID}
		for _, ch := range n.Children {
			cc := rec(ch)
			cc.Parent = c
			c.Children = append(c.Children, cc)
		}
		return c
	}
	if t.Root == nil {
		return &Tree{}
	}
	return &Tree{Root: rec(t.Root)}
}

// Edge identifies the edge between a node and its parent by the child node.
type Edge struct{ Child *Node }

// Edges returns every edge of the tree (one per non-root node), in
// pre-order. For stepwise insertion these are the candidate attachment
// points.
func (t *Tree) Edges() []Edge {
	var out []Edge
	t.Walk(func(n *Node) {
		if n.Parent != nil {
			out = append(out, Edge{Child: n})
		}
	})
	return out
}

// InsertLeafOnEdge splits the edge above pos.Child with a new internal node
// and hangs a new leaf from it:
//
//	parent ──> child        becomes   parent ──> mid ──> child
//	                                              └────> leaf
//
// The old branch length is split in half; the new leaf gets newLeafLen.
// The tree is modified in place; callers that need the original intact
// should Clone first. Returns the new leaf node.
func (t *Tree) InsertLeafOnEdge(pos Edge, name string, newLeafLen float64) (*Node, error) {
	child := pos.Child
	parent := child.Parent
	if parent == nil {
		return nil, fmt.Errorf("phylo: cannot insert on the root's (nonexistent) parent edge")
	}
	if !parent.removeChild(child) {
		return nil, fmt.Errorf("phylo: corrupt tree: %q not a child of its parent", child.Name)
	}
	half := child.Length / 2
	mid := &Node{Length: half, ID: -1}
	child.Length = half
	mid.AddChild(child)
	leaf := NewLeaf(name, newLeafLen)
	mid.AddChild(leaf)
	parent.AddChild(mid)
	return leaf, nil
}

// RemoveLeaf removes the named leaf and splices out its (now degree-2)
// parent, restoring a clean topology. It errors if the leaf does not exist
// or the tree would degenerate (fewer than 2 remaining leaves).
func (t *Tree) RemoveLeaf(name string) error {
	var leaf *Node
	t.Walk(func(n *Node) {
		if n.IsLeaf() && n.Name == name {
			leaf = n
		}
	})
	if leaf == nil {
		return fmt.Errorf("phylo: leaf %q not found", name)
	}
	parent := leaf.Parent
	if parent == nil {
		return fmt.Errorf("phylo: cannot remove the root")
	}
	parent.removeChild(leaf)
	// Splice out parent if it became degree-2 (one child + its own parent).
	if len(parent.Children) == 1 && parent.Parent != nil {
		only := parent.Children[0]
		only.Length += parent.Length
		gp := parent.Parent
		gp.removeChild(parent)
		gp.AddChild(only)
	} else if len(parent.Children) == 1 && parent.Parent == nil {
		// Root with a single child: promote the child to root.
		only := parent.Children[0]
		only.Parent = nil
		t.Root = only
	}
	return nil
}

// FindLeaf returns the leaf with the given name, or nil.
func (t *Tree) FindLeaf(name string) *Node {
	var found *Node
	t.Walk(func(n *Node) {
		if n.IsLeaf() && n.Name == name {
			found = n
		}
	})
	return found
}

// TotalLength returns the sum of all branch lengths.
func (t *Tree) TotalLength() float64 {
	var sum float64
	t.Walk(func(n *Node) {
		if n.Parent != nil {
			sum += n.Length
		}
	})
	return sum
}

// Validate checks structural invariants: parent pointers consistent,
// no duplicate leaf names, non-negative branch lengths.
func (t *Tree) Validate() error {
	if t.Root == nil {
		return fmt.Errorf("phylo: nil root")
	}
	if t.Root.Parent != nil {
		return fmt.Errorf("phylo: root has a parent")
	}
	seen := make(map[string]bool)
	var err error
	t.Walk(func(n *Node) {
		if err != nil {
			return
		}
		for _, c := range n.Children {
			if c.Parent != n {
				err = fmt.Errorf("phylo: broken parent pointer at %q", c.Name)
				return
			}
		}
		if n.IsLeaf() {
			if n.Name == "" {
				err = fmt.Errorf("phylo: unnamed leaf")
				return
			}
			if seen[n.Name] {
				err = fmt.Errorf("phylo: duplicate leaf name %q", n.Name)
				return
			}
			seen[n.Name] = true
		}
		if n.Length < 0 {
			err = fmt.Errorf("phylo: negative branch length %g at %q", n.Length, n.Name)
		}
	})
	return err
}

// String renders the tree in Newick format.
func (t *Tree) String() string {
	var b strings.Builder
	writeNewick(&b, t.Root, true)
	b.WriteByte(';')
	return b.String()
}

// Triplet builds the unique unrooted 3-leaf starting tree for stepwise
// insertion: a trifurcating root with three leaf children.
func Triplet(a, b, c string, length float64) *Tree {
	return &Tree{Root: NewInternal(0,
		NewLeaf(a, length), NewLeaf(b, length), NewLeaf(c, length))}
}
