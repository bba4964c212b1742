package core

import (
	"fmt"

	"repro/internal/keys"
	"repro/internal/pitree"
	"repro/internal/storage"
)

// TreeShape summarizes a verified tree.
type TreeShape struct {
	Height       int   // number of levels (1 = a single leaf root)
	NodesAtLevel []int // index = level
	Records      int
	// Entries counts all slots, index terms included.
	Entries int
}

// Verify checks the well-formedness rules of §2.1.3 over the whole tree,
// at a quiescent point, and returns its shape. The kernel walks the tree
// (pitree.Kernel.Verify); the B-link clauses are the checker's:
//
//  1. the root is responsible for the entire space;
//  2. a node's entries are sorted inside [Low, High) — data records at
//     level 0, terms covering the node from Low above;
//  3. an index term's child is responsible for the term's space: its Low
//     is the term's key;
//  4. each level is one chain that partitions the key space
//     (pitree.Chain), so a node's sibling term delegates exactly what lies
//     above its High and records are in key order across the leaves.
func (t *Tree) Verify() (TreeShape, error) {
	c := &checker{spans: make(map[storage.PageID]pitree.Span)}
	err := t.kern.Verify(c)
	return c.shape, err
}

// Count returns the number of records currently in the tree (quiescent
// helper for tests and experiments).
func (t *Tree) Count() (int, error) {
	shape, err := t.Verify()
	return shape.Records, err
}

// checker is the B-link tree's side of pitree.Kernel.Verify; it keeps each
// node's span and each level's leftmost node for the chain check.
type checker struct {
	shape    TreeShape
	spans    map[storage.PageID]pitree.Span
	leftmost []storage.PageID
}

func (c *checker) Root(r nref) error {
	if n := r.N; n.Low != nil || !n.High.Unbounded || n.Right != storage.NilPage {
		return fmt.Errorf("root %d not responsible for the entire space: %v", r.Pid(), n)
	}
	c.shape.Height = r.N.Level + 1
	c.shape.NodesAtLevel = make([]int, c.shape.Height)
	c.leftmost = make([]storage.PageID, c.shape.Height)
	return nil
}

func (c *checker) Node(r nref) error {
	n, pid, level := r.N, r.Pid(), r.N.Level
	for i := 0; i < n.Len(); i++ {
		e := n.entry(i)
		switch {
		case i > 0 && keys.Compare(n.keyAt(i-1), e.Key) >= 0:
			return fmt.Errorf("page %d entries out of order at %d", pid, i)
		case n.Low != nil && keys.Compare(e.Key, n.Low) < 0:
			return fmt.Errorf("page %d entry %x below node low %x", pid, e.Key, n.Low)
		case !n.High.ContainsBelow(e.Key):
			return fmt.Errorf("page %d entry %x at/above node high %v", pid, e.Key, n.High)
		case level == 0 && e.Child != storage.NilPage:
			return fmt.Errorf("data node %d entry %x has child pointer", pid, e.Key)
		case level > 0 && e.Value != nil:
			return fmt.Errorf("index node %d entry %x carries a value", pid, e.Key)
		}
	}
	if level == 0 {
		c.shape.Records += n.Len()
	} else if n.Len() == 0 {
		return fmt.Errorf("index node %d is empty", pid)
	} else if k := n.keyAt(0); n.Low != nil && keys.Compare(k, n.Low) > 0 {
		return fmt.Errorf("index node %d coverage starts at %x, after low %x", pid, k, n.Low)
	} else if n.Low == nil && len(k) > 0 {
		return fmt.Errorf("leftmost index node %d coverage starts at %x, not -inf", pid, k)
	}
	c.shape.Entries += n.Len()
	c.shape.NodesAtLevel[level]++
	if n.Low == nil {
		c.leftmost[level] = pid
	}
	c.spans[pid] = pitree.Span{Low: keys.Clone(n.Low), High: keys.Bound{Key: keys.Clone(n.High.Key), Unbounded: n.High.Unbounded}, Next: n.Right}
	return nil
}

// Link: a side pointer is the chain's (Partition); an index term's child
// starts at the term's key.
func (c *checker) Link(parent nref, i int, child nref) error {
	if i < 0 {
		return nil
	}
	k := parent.N.keyAt(i)
	if !keys.Equal(child.N.Low, k) && !(child.N.Low == nil && i == 0 && parent.N.Low == nil) {
		return fmt.Errorf("index term %x of page %d but child low %x", k, parent.Pid(), child.N.Low)
	}
	return nil
}

func (c *checker) Partition() error {
	for level := c.shape.Height - 1; level >= 0; level-- {
		if err := pitree.Chain(c.spans, c.leftmost[level], c.shape.NodesAtLevel[level]); err != nil {
			return fmt.Errorf("level %d: %w", level, err)
		}
	}
	return nil
}
