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

// Verify checks well-formedness at a quiescent point (t.walk reads each
// node under a momentary S latch, but nodes change between visits):
//
//   - the direct regions of all reachable data nodes PARTITION the full
//     space: pairwise disjoint, total area exactly MaxCoord^2;
//   - every point lies in its node's direct region;
//   - every index term and sibling term references an allocated page;
//     index terms reference nodes one level down whose responsibility
//     (direct region plus delegations) contains the term's rectangle.
func (t *Tree) Verify() (Shape, error) {
	var shape Shape
	reachable := make(map[storage.PageID]bool)
	var dataRects []Rect
	var dataPids []storage.PageID

	err := t.walk(0, func(pid storage.PageID, n *Node, level int) error {
		reachable[pid] = true
		if pid == t.root {
			shape.Height = n.Level + 1
		}
		if n.Level != level {
			return fmt.Errorf("page %d level %d, expected %d", pid, n.Level, level)
		}
		if alloc, err := t.store.IsAllocated(pid); err != nil || !alloc {
			return fmt.Errorf("reachable page %d not allocated", pid)
		}
		for _, s := range n.Sibs {
			if s.Rect.Empty() {
				return fmt.Errorf("page %d has empty sibling rect", pid)
			}
			if s.Rect.Intersects(n.Direct) {
				return fmt.Errorf("page %d sibling rect %v overlaps direct %v", pid, s.Rect, n.Direct)
			}
		}
		if n.IsData() {
			shape.DataNodes++
			shape.Points += n.Len()
			for i := 0; i < n.Len(); i++ {
				if p := n.pointAt(i); !n.Direct.Contains(p) {
					return fmt.Errorf("point (%d,%d) outside direct %v of page %d", p.X, p.Y, n.Direct, pid)
				}
			}
			dataRects = append(dataRects, n.Direct)
			dataPids = append(dataPids, pid)
			return nil
		}
		shape.IndexNodes++
		for i := 0; i < n.Len(); i++ {
			e := n.entry(i)
			if e.Clipped {
				shape.Clipped++
			}
			child, err := t.snapshot(e.Child)
			if err != nil {
				return fmt.Errorf("term child %d: %w", e.Child, err)
			}
			if child.Level != n.Level-1 {
				return fmt.Errorf("term child %d level %d, want %d", e.Child, child.Level, n.Level-1)
			}
			// The child must be responsible for the term's rectangle:
			// its direct region plus delegated regions must cover it.
			if !coveredBy(e.Rect, child) {
				return fmt.Errorf("child %d not responsible for term rect %v (direct %v, %d sibs)", e.Child, e.Rect, child.Direct, len(child.Sibs))
			}
		}
		return nil
	})
	if err != nil {
		return shape, fmt.Errorf("spatial verify: %w", err)
	}

	// Partition check: pairwise disjoint and exact total area.
	for i := range dataRects {
		for j := i + 1; j < len(dataRects); j++ {
			if dataRects[i].Intersects(dataRects[j]) {
				return shape, fmt.Errorf("spatial verify: data regions overlap: page %d %v vs page %d %v",
					dataPids[i], dataRects[i], dataPids[j], dataRects[j])
			}
		}
	}
	var sumHi, sumLo uint64
	for _, r := range dataRects {
		hi, lo := r.Area()
		sumLo += lo
		if sumLo < lo {
			sumHi++
		}
		sumHi += hi
	}
	// Full space area = 2^64 exactly: hi=1, lo=0.
	if sumHi != 1 || sumLo != 0 {
		return shape, fmt.Errorf("spatial verify: data regions cover area (%d,%d), want the full space", sumHi, sumLo)
	}
	// The walk's pages are exactly the reachable set; cross-check it
	// against the store's free-space map.
	if err := t.store.SpaceCheck(reachable); err != nil {
		return shape, fmt.Errorf("spatial verify: %w", err)
	}
	return shape, nil
}

// coveredBy reports whether rect is covered by the node's responsibility:
// its direct region plus its delegated sibling rects, recursively not
// needed — delegation rects are responsibility by definition (§2.1.1).
func coveredBy(rect Rect, n *Node) bool {
	// Fast path: direct containment.
	if n.Direct.ContainsRect(rect) {
		return true
	}
	// General: every corner-region of rect must fall in direct or a sib.
	// Because all regions arise from recursive halving of rect itself,
	// checking that rect minus (direct + sibs) is empty via area
	// accounting is exact.
	regions := append([]Rect{n.Direct}, nil...)
	for _, s := range n.Sibs {
		regions = append(regions, s.Rect)
	}
	var wantHi, wantLo uint64 = rect.Area()
	var sumHi, sumLo uint64
	for _, r := range regions {
		inter := intersect(rect, r)
		if inter.Empty() {
			continue
		}
		hi, lo := inter.Area()
		sumLo += lo
		if sumLo < lo {
			sumHi++
		}
		sumHi += hi
	}
	// Regions are pairwise disjoint, so equality means exact cover.
	return sumHi == wantHi && sumLo == wantLo
}

func intersect(a, b Rect) Rect {
	r := Rect{
		X0: maxU(a.X0, b.X0), Y0: maxU(a.Y0, b.Y0),
		X1: minU(a.X1, b.X1), Y1: minU(a.Y1, b.Y1),
	}
	if r.X0 >= r.X1 || r.Y0 >= r.Y1 {
		return Rect{}
	}
	return r
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func minU(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
