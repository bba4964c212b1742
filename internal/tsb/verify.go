package tsb

import (
	"fmt"

	"repro/internal/keys"
	"repro/internal/storage"
)

// Shape summarizes a verified TSB tree.
type Shape struct {
	Height       int
	IndexNodes   int
	CurrentNodes int
	HistoryNodes int
	// Versions counts slots across data nodes (copies included: a
	// version alive across a time split exists in two nodes).
	Versions int
	// CurrentVersions counts slots in current nodes only.
	CurrentVersions int
}

// Verify checks TSB well-formedness (§2.1.3 adapted to rectangles) at a
// quiescent point:
//
//   - the current data chain partitions the key space at the current time;
//   - each current node's history chain partitions its past time range,
//     with key ranges that contain the current node's;
//   - versions lie inside their node's rectangle (keys) and start before
//     its time bound;
//   - index levels chain contiguously by key and all terms reference
//     allocated pages one level down with matching low keys.
func (t *Tree) Verify() (Shape, error) {
	var shape Shape
	pool := t.store.Pool

	// Every page the walk touches is reachable; the set feeds the store's
	// free-space cross-check at the end (no page both free and reachable).
	reachable := make(map[storage.PageID]bool)
	getNode := func(pid storage.PageID) (*Node, error) {
		f, err := pool.Fetch(pid)
		if err != nil {
			return nil, err
		}
		defer pool.Unpin(f)
		n, ok := f.Data.(*Node)
		if !ok {
			return nil, fmt.Errorf("page %d holds %T", pid, f.Data)
		}
		reachable[pid] = true
		return n, nil
	}

	root, err := getNode(t.root)
	if err != nil {
		return shape, fmt.Errorf("tsb verify: root: %w", err)
	}
	if !(root.Rect.KeyLow == nil && root.Rect.KeyHigh.Unbounded && root.Rect.TimeLow == 0 && root.Rect.TimeHigh == NoEnd) {
		return shape, fmt.Errorf("tsb verify: root rect %v not the entire space", root.Rect)
	}
	shape.Height = root.Level + 1

	// Index levels: chain by key sibling; check coverage and terms.
	leftmost := t.root
	for level := root.Level; level >= 1; level-- {
		pid := leftmost
		var prevHigh keys.Bound
		started := false
		var firstChild storage.PageID
		for pid != storage.NilPage {
			n, err := getNode(pid)
			if err != nil {
				return shape, fmt.Errorf("tsb verify: level %d at %d: %w", level, pid, err)
			}
			if n.Level != level {
				return shape, fmt.Errorf("tsb verify: page %d expected level %d, got %d", pid, level, n.Level)
			}
			if started && (prevHigh.Unbounded || !keys.Equal(prevHigh.Key, n.Rect.KeyLow)) {
				return shape, fmt.Errorf("tsb verify: level %d key gap at %d", level, pid)
			}
			if !started && n.Rect.KeyLow != nil {
				return shape, fmt.Errorf("tsb verify: leftmost of level %d starts at %x", level, n.Rect.KeyLow)
			}
			if n.Len() == 0 {
				return shape, fmt.Errorf("tsb verify: empty index node %d", pid)
			}
			for i := 0; i < n.Len(); i++ {
				e := n.entry(i)
				// chooseTerm binary-searches level-1 terms, so the
				// (KeyLow, TimeLow) sort order is load-bearing.
				if level == 1 && i > 0 {
					prev := n.rectAt(i - 1)
					if c := keys.Compare(prev.KeyLow, e.ChildRect.KeyLow); c > 0 || (c == 0 && prev.TimeLow > e.ChildRect.TimeLow) {
						return shape, fmt.Errorf("tsb verify: node %d terms out of (KeyLow, TimeLow) order at %d", pid, i)
					}
				}
				if alloc, err := t.store.IsAllocated(e.Child); err != nil || !alloc {
					return shape, fmt.Errorf("tsb verify: term %d of node %d references unallocated page %d", i, pid, e.Child)
				}
				child, err := getNode(e.Child)
				if err != nil {
					return shape, err
				}
				if child.Level != level-1 {
					return shape, fmt.Errorf("tsb verify: term child %d level %d, want %d", e.Child, child.Level, level-1)
				}
				if level == 1 {
					if !keys.Equal(e.ChildRect.KeyLow, child.Rect.KeyLow) {
						return shape, fmt.Errorf("tsb verify: term rect %v vs child low %x", e.ChildRect, child.Rect.KeyLow)
					}
					if e.ChildRect.TimeLow > child.Rect.TimeLow && child.Rect.TimeHigh == NoEnd {
						return shape, fmt.Errorf("tsb verify: term %v starts after current child's time low %d", e.ChildRect, child.Rect.TimeLow)
					}
				} else if !keys.Equal(e.Key, child.Rect.KeyLow) {
					return shape, fmt.Errorf("tsb verify: key term %x vs child low %x", e.Key, child.Rect.KeyLow)
				}
				if !started {
					// The next level's walk starts at the leftmost
					// CURRENT child: for level 1, terms sorted by
					// (KeyLow, TimeLow) put history first, so pick the
					// leftmost term with an open time bound.
					if level == 1 {
						if e.ChildRect.KeyLow == nil && e.ChildRect.TimeHigh == NoEnd {
							firstChild = e.Child
						}
					} else if i == 0 {
						firstChild = e.Child
					}
				}
			}
			shape.IndexNodes++
			prevHigh = n.Rect.KeyHigh
			started = true
			pid = n.KeySib
		}
		if !prevHigh.Unbounded {
			return shape, fmt.Errorf("tsb verify: level %d ends bounded", level)
		}
		if firstChild == storage.NilPage {
			return shape, fmt.Errorf("tsb verify: level %d has no leftmost current child term (run DrainCompletions before verifying)", level)
		}
		leftmost = firstChild
	}

	// Data level: current chain, then each node's history chain.
	pid := leftmost
	var prevHigh keys.Bound
	started := false
	seenHist := make(map[storage.PageID]bool)
	for pid != storage.NilPage {
		n, err := getNode(pid)
		if err != nil {
			return shape, fmt.Errorf("tsb verify: data chain at %d: %w", pid, err)
		}
		if !n.IsData() || !n.Current() {
			return shape, fmt.Errorf("tsb verify: page %d in current chain: level %d rect %v", pid, n.Level, n.Rect)
		}
		if started && (prevHigh.Unbounded || !keys.Equal(prevHigh.Key, n.Rect.KeyLow)) {
			return shape, fmt.Errorf("tsb verify: current chain key gap at %d", pid)
		}
		if !started && n.Rect.KeyLow != nil {
			return shape, fmt.Errorf("tsb verify: leftmost current node starts at %x", n.Rect.KeyLow)
		}
		if err := t.verifyVersions(n, pid); err != nil {
			return shape, err
		}
		shape.CurrentNodes++
		shape.Versions += n.Len()
		shape.CurrentVersions += n.Len()

		// History chain: partitions [0, n.TimeLow).
		expectHigh := n.Rect.TimeLow
		hpid := n.HistSib
		for hpid != storage.NilPage {
			h, err := getNode(hpid)
			if err != nil {
				return shape, fmt.Errorf("tsb verify: history chain at %d: %w", hpid, err)
			}
			if h.Current() {
				return shape, fmt.Errorf("tsb verify: current node %d in history chain", hpid)
			}
			if h.Rect.TimeHigh != expectHigh {
				return shape, fmt.Errorf("tsb verify: history node %d time high %d, want %d", hpid, h.Rect.TimeHigh, expectHigh)
			}
			// The history node's key range contains the current node's
			// (key ranges only shrink going forward in time).
			if h.Rect.KeyLow != nil && (n.Rect.KeyLow == nil || keys.Compare(n.Rect.KeyLow, h.Rect.KeyLow) < 0) {
				return shape, fmt.Errorf("tsb verify: history node %d key range does not contain current %d", hpid, pid)
			}
			if !h.Rect.KeyHigh.Unbounded && (n.Rect.KeyHigh.Unbounded || keys.Compare(n.Rect.KeyHigh.Key, h.Rect.KeyHigh.Key) > 0) {
				return shape, fmt.Errorf("tsb verify: history node %d key high below current %d", hpid, pid)
			}
			if err := t.verifyVersions(h, hpid); err != nil {
				return shape, err
			}
			if !seenHist[hpid] {
				seenHist[hpid] = true
				shape.HistoryNodes++
				shape.Versions += h.Len()
			}
			expectHigh = h.Rect.TimeLow
			if h.Rect.TimeLow == 0 {
				break
			}
			hpid = h.HistSib
		}
		// Reclamation frees fully-retired chain tails, so under it a
		// truncated (even empty) history chain is legitimate.
		if expectHigh != 0 && n.HistSib == storage.NilPage && n.Rect.TimeLow != 0 && !t.opts.Reclaim {
			return shape, fmt.Errorf("tsb verify: current node %d has time low %d but no history", pid, n.Rect.TimeLow)
		}

		prevHigh = n.Rect.KeyHigh
		started = true
		pid = n.KeySib
	}
	if !prevHigh.Unbounded {
		return shape, fmt.Errorf("tsb verify: current chain ends bounded")
	}
	if err := t.store.SpaceCheck(reachable); err != nil {
		return shape, fmt.Errorf("tsb verify: %w", err)
	}
	return shape, nil
}

func (t *Tree) verifyVersions(n *Node, pid storage.PageID) error {
	for i := 0; i < n.Len(); i++ {
		e := n.entry(i)
		if !n.Rect.ContainsKey(e.Key) {
			return fmt.Errorf("tsb verify: node %d version %x outside key range %v", pid, e.Key, n.Rect)
		}
		if e.Start >= n.Rect.TimeHigh {
			return fmt.Errorf("tsb verify: node %d version (%x,%d) at/after time high %d", pid, e.Key, e.Start, n.Rect.TimeHigh)
		}
		if i > 0 {
			c := keys.Compare(n.keyAt(i-1), e.Key)
			if c > 0 || (c == 0 && n.startAt(i-1) >= e.Start) {
				return fmt.Errorf("tsb verify: node %d versions out of order at %d", pid, i)
			}
		}
	}
	return nil
}
