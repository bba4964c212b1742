package core

import (
	"fmt"

	"repro/internal/keys"
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

// Verify checks the well-formedness rules of §2.1.3 over the whole tree
// and returns its shape. It must run with no concurrent mutators (tests
// call it at quiescent points and after restarts); it uses no latches so
// it can also inspect a freshly recovered store before workers start.
//
// Checked invariants:
//
//  1. every node is responsible for a subspace (Low/High consistency);
//  2. every sibling term delegates a subspace of its containing node to
//     an allocated, live node whose Low equals the delegation point;
//  3. every index term references an allocated node at the level below
//     that is responsible for the space the term describes;
//  4. index terms plus the sibling term cover the node's responsibility:
//     each level, chased through side pointers, partitions the entire
//     key space with no gaps or overlaps;
//  5. level-0 nodes hold only data records; higher nodes only terms;
//  6. a root exists that is responsible for the entire space.
func (t *Tree) Verify() (TreeShape, error) {
	var shape TreeShape
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
			return nil, fmt.Errorf("page %d holds %T, not a node", pid, f.Data)
		}
		reachable[pid] = true
		return n, nil
	}

	root, err := getNode(t.root)
	if err != nil {
		return shape, fmt.Errorf("core verify: root: %w", err)
	}
	if root.Low != nil || !root.High.Unbounded || root.Right != storage.NilPage {
		return shape, fmt.Errorf("core verify: root %d not responsible for the entire space: %v", t.root, root)
	}
	if root.Dead {
		return shape, fmt.Errorf("core verify: root %d marked dead", t.root)
	}
	shape.Height = root.Level + 1
	shape.NodesAtLevel = make([]int, root.Level+1)

	leftmost := t.root
	for level := root.Level; level >= 0; level-- {
		first, err := getNode(leftmost)
		if err != nil {
			return shape, fmt.Errorf("core verify: leftmost of level %d: %w", level, err)
		}
		if first.Level != level {
			return shape, fmt.Errorf("core verify: expected level %d at page %d, found %d", level, leftmost, first.Level)
		}
		if first.Low != nil {
			return shape, fmt.Errorf("core verify: leftmost node %d of level %d has Low=%x", leftmost, level, first.Low)
		}

		// Walk the level chain: it must partition the whole key space.
		pid := leftmost
		var prevHigh keys.Bound
		started := false
		var lastKey keys.Key
		haveLast := false
		for pid != storage.NilPage {
			n, err := getNode(pid)
			if err != nil {
				return shape, fmt.Errorf("core verify: level %d chain at page %d: %w", level, pid, err)
			}
			if alloc, err := t.store.IsAllocated(pid); err != nil {
				return shape, err
			} else if !alloc {
				return shape, fmt.Errorf("core verify: reachable page %d of level %d is not allocated", pid, level)
			}
			if n.Dead {
				return shape, fmt.Errorf("core verify: reachable page %d of level %d is marked dead", pid, level)
			}
			if n.Level != level {
				return shape, fmt.Errorf("core verify: page %d in level-%d chain has level %d", pid, level, n.Level)
			}
			if started {
				if prevHigh.Unbounded || !keys.Equal(prevHigh.Key, n.Low) {
					return shape, fmt.Errorf("core verify: level %d gap/overlap at page %d: prev high %v vs low %x", level, pid, prevHigh, n.Low)
				}
			}
			if !n.High.Unbounded && n.Right == storage.NilPage {
				return shape, fmt.Errorf("core verify: page %d of level %d has bounded space %v but no sibling", pid, level, n.High)
			}
			if n.High.Unbounded && n.Right != storage.NilPage {
				return shape, fmt.Errorf("core verify: page %d of level %d is unbounded but has sibling %d", pid, level, n.Right)
			}

			// Per-node entry checks.
			for i := 0; i < n.Len(); i++ {
				e := n.entry(i)
				if i > 0 && keys.Compare(n.keyAt(i-1), e.Key) >= 0 {
					return shape, fmt.Errorf("core verify: page %d entries out of order at %d", pid, i)
				}
				if n.Low != nil && keys.Compare(e.Key, n.Low) < 0 {
					return shape, fmt.Errorf("core verify: page %d entry %x below node low %x", pid, e.Key, n.Low)
				}
				if !n.High.ContainsBelow(e.Key) {
					return shape, fmt.Errorf("core verify: page %d entry %x at/above node high %v", pid, e.Key, n.High)
				}
				if level == 0 {
					if e.Child != storage.NilPage {
						return shape, fmt.Errorf("core verify: data node %d entry %x has child pointer", pid, e.Key)
					}
					shape.Records++
					if haveLast && keys.Compare(lastKey, e.Key) >= 0 {
						return shape, fmt.Errorf("core verify: record order violated across level 0 at %x", e.Key)
					}
					lastKey = keys.Clone(e.Key)
					haveLast = true
				} else {
					if e.Value != nil {
						return shape, fmt.Errorf("core verify: index node %d entry %x carries a value", pid, e.Key)
					}
					child, err := getNode(e.Child)
					if err != nil {
						return shape, fmt.Errorf("core verify: index term %x of page %d: %w", e.Key, pid, err)
					}
					if child.Level != level-1 {
						return shape, fmt.Errorf("core verify: index term %x of page %d points to level %d (want %d)", e.Key, pid, child.Level, level-1)
					}
					if child.Dead {
						return shape, fmt.Errorf("core verify: index term %x of page %d points to dead page %d", e.Key, pid, e.Child)
					}
					// Rule 3: the child must be responsible for the space
					// the term describes, i.e. its Low is the term key.
					if !keys.Equal(child.Low, e.Key) && !(child.Low == nil && i == 0 && n.Low == nil) {
						return shape, fmt.Errorf("core verify: index term %x of page %d but child low %x", e.Key, pid, child.Low)
					}
					if alloc, err := t.store.IsAllocated(e.Child); err != nil {
						return shape, err
					} else if !alloc {
						return shape, fmt.Errorf("core verify: index term %x of page %d references freed page %d", e.Key, pid, e.Child)
					}
				}
				shape.Entries++
			}
			if level > 0 {
				// Rule 4: terms must cover the directly contained space
				// from Low; an index node's first term starts its
				// coverage at or below Low.
				if n.Len() == 0 {
					return shape, fmt.Errorf("core verify: index node %d is empty", pid)
				}
				if k := n.keyAt(0); n.Low != nil && keys.Compare(k, n.Low) > 0 {
					return shape, fmt.Errorf("core verify: index node %d coverage starts at %x, after low %x", pid, k, n.Low)
				} else if n.Low == nil && len(k) > 0 {
					return shape, fmt.Errorf("core verify: leftmost index node %d coverage starts at %x, not -inf", pid, k)
				}
			}
			shape.NodesAtLevel[level]++
			prevHigh = n.High
			started = true
			pid = n.Right
		}
		if !prevHigh.Unbounded {
			return shape, fmt.Errorf("core verify: level %d chain ends bounded at %v", level, prevHigh)
		}

		if level > 0 {
			first, err = getNode(leftmost)
			if err != nil {
				return shape, err
			}
			leftmost = first.entry(0).Child
		}
	}
	if err := t.store.SpaceCheck(reachable); err != nil {
		return shape, fmt.Errorf("core verify: %w", err)
	}
	return shape, nil
}

// Count returns the number of records currently in the tree (quiescent
// helper for tests and experiments).
func (t *Tree) Count() (int, error) {
	shape, err := t.Verify()
	if err != nil {
		return 0, err
	}
	return shape.Records, nil
}
