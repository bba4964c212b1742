package spatial

import (
	"fmt"

	"repro/internal/storage"
)

// Shape summarizes a verified spatial tree.
type Shape struct {
	Height     int
	IndexNodes int
	DataNodes  int
	Points     int
	Clipped    int // clipped (multi-parent) index terms observed
}

// Verify checks well-formedness at a quiescent point. The kernel walks
// the tree (pitree.Kernel.Verify: reachability, allocation, levels, the
// free-space map); the region clauses are the checker's:
//
//   - the root's direct region is the full space;
//   - a node's sibling rects are non-empty and outside its direct region;
//   - every point lies in its node's direct region, points in (X, Y)
//     order;
//   - every index term references a node whose responsibility (direct
//     region plus delegations) contains the term's rectangle;
//   - the direct regions of all reachable data nodes PARTITION the full
//     space: pairwise disjoint, total area exactly MaxCoord^2.
func (t *Tree) Verify() (Shape, error) {
	c := &checker{}
	err := t.kern.Verify(c)
	return c.shape, err
}

// region is what the partition check keeps of a data node.
type region struct {
	pid  storage.PageID
	rect Rect
}

// checker is the spatial tree's side of pitree.Kernel.Verify.
type checker struct {
	shape Shape
	data  []region
}

func (c *checker) Root(r nref) error {
	if r.N.Direct != FullSpace() || len(r.N.Sibs) != 0 {
		return fmt.Errorf("root %d not responsible for the entire space: direct %v, %d sibling terms", r.Pid(), r.N.Direct, len(r.N.Sibs))
	}
	c.shape.Height = r.N.Level + 1
	return nil
}

func (c *checker) Node(r nref) error {
	n, pid := r.N, r.Pid()
	for _, s := range n.Sibs {
		if s.Rect.Empty() {
			return fmt.Errorf("page %d has empty sibling rect", pid)
		}
		if s.Rect.Intersects(n.Direct) {
			return fmt.Errorf("page %d sibling rect %v overlaps direct %v", pid, s.Rect, n.Direct)
		}
	}
	if !n.IsData() {
		c.shape.IndexNodes++
		for i := 0; i < n.Len(); i++ {
			if n.entry(i).Clipped {
				c.shape.Clipped++
			}
		}
		return nil
	}
	c.shape.DataNodes++
	c.shape.Points += n.Len()
	for i := 0; i < n.Len(); i++ {
		p := n.pointAt(i)
		if !n.Direct.Contains(p) {
			return fmt.Errorf("point (%d,%d) outside direct %v of page %d", p.X, p.Y, n.Direct, pid)
		}
		if i > 0 && !n.pointAt(i-1).Less(p) {
			return fmt.Errorf("page %d points out of order at %d", pid, i)
		}
	}
	c.data = append(c.data, region{pid, n.Direct})
	return nil
}

// Link: an index term's child must be responsible for the term's
// rectangle — its direct region plus delegated regions must cover it. A
// sibling term is checked with its holder (Node).
func (c *checker) Link(parent nref, i int, child nref) error {
	if i < 0 {
		return nil
	}
	rect, _ := parent.N.termAt(i)
	if ch := child.N; !coveredBy(rect, ch) {
		return fmt.Errorf("child %d not responsible for term rect %v (direct %v, %d sibs)", child.Pid(), rect, ch.Direct, len(ch.Sibs))
	}
	return nil
}

// Partition: the data regions are pairwise disjoint and their total area
// is the full space's, 2^64.
func (c *checker) Partition() error {
	var sum area
	for i, a := range c.data {
		for _, b := range c.data[i+1:] {
			if a.rect.Intersects(b.rect) {
				return fmt.Errorf("data regions overlap: page %d %v vs page %d %v", a.pid, a.rect, b.pid, b.rect)
			}
		}
		sum.add(a.rect)
	}
	if sum != (area{hi: 1}) {
		return fmt.Errorf("data regions cover area (%d,%d), want the full space", sum.hi, sum.lo)
	}
	return nil
}

// coveredBy reports whether the node's responsibility — its direct region
// plus its delegated sibling rects (§2.1.1), pairwise disjoint — covers
// rect: whether the areas of their intersections with rect sum to rect's.
func coveredBy(rect Rect, n *Node) bool {
	var want, sum area
	want.add(rect)
	for i := -1; i < len(n.Sibs); i++ {
		r := n.Direct
		if i >= 0 {
			r = n.Sibs[i].Rect
		}
		if in := (Rect{max(rect.X0, r.X0), max(rect.Y0, r.Y0), min(rect.X1, r.X1), min(rect.Y1, r.Y1)}); !in.Empty() {
			sum.add(in)
		}
	}
	return sum == want
}

// area is a 128-bit sum of rectangle areas.
type area struct{ hi, lo uint64 }

func (a *area) add(r Rect) {
	hi, lo := r.Area()
	if a.lo += lo; a.lo < lo {
		a.hi++
	}
	a.hi += hi
}
