package spatial

import (
	"math/rand"
	"testing"

	"repro/internal/latch"
	"repro/internal/storage"
)

// corruption is one row of the negative tests: it damages a drained tree
// whose data and index nodes are listed.
type corruption struct {
	name    string
	corrupt func(t *testing.T, fx *fixture, data, index []storage.PageID)
}

// TestVerifyRejectsCorruption: one corruption per class of §2.1.3's
// clauses as the hB-tree has them, applied to a buffered node under its X
// latch; Verify must reject every one, and accept the tree left alone.
func TestVerifyRejectsCorruption(t *testing.T) {
	runCorruptions(t, []corruption{
		{"untouched", nil},
		{"point outside the node", func(t *testing.T, fx *fixture, data, _ []storage.PageID) {
			pid := pickNode(t, fx, data, func(n *Node) bool { return n.Direct.X1 < MaxCoord })
			corruptNode(t, fx, pid, func(n *Node) {
				n.insertAt(n.Len(), Entry{P: Point{X: n.Direct.X1, Y: n.Direct.Y0}, Value: []byte("x")})
			})
		}},
		{"dropped index term", func(t *testing.T, fx *fixture, data, index []storage.PageID) {
			// The first data node is nobody's sibling: without its terms
			// nothing reaches it.
			sibs := make(map[storage.PageID]bool)
			for _, pid := range data {
				for _, s := range readNode(t, fx, pid).Sibs {
					sibs[s.Pid] = true
				}
			}
			first := pickNode(t, fx, data, func(*Node) bool { return true })
			for _, pid := range data {
				if !sibs[pid] {
					first = pid
				}
			}
			for _, pid := range index {
				corruptNode(t, fx, pid, func(n *Node) {
					for i, ok := n.termFor(first); ok; i, ok = n.termFor(first) {
						n.recs.Delete(i)
					}
				})
			}
		}},
		{"wrong index term", func(t *testing.T, fx *fixture, data, index []storage.PageID) {
			child := pickNode(t, fx, data, func(n *Node) bool { return len(n.Sibs) == 0 && n.Direct != FullSpace() })
			for _, pid := range index {
				corruptNode(t, fx, pid, func(n *Node) {
					if i, ok := n.termFor(child); ok {
						n.recs.Replace(i, appendTerm(nil, Entry{Rect: FullSpace(), Child: child}))
					}
				})
			}
		}},
		{"broken side chain", func(t *testing.T, fx *fixture, data, _ []storage.PageID) {
			pid := pickNode(t, fx, data, func(n *Node) bool { return len(n.Sibs) > 0 })
			corruptNode(t, fx, pid, func(n *Node) { n.Sibs = n.Sibs[:len(n.Sibs)-1] })
		}},
		{"sibling term overlaps the direct region", func(t *testing.T, fx *fixture, data, _ []storage.PageID) {
			pid := pickNode(t, fx, data, func(n *Node) bool { return len(n.Sibs) > 0 })
			corruptNode(t, fx, pid, func(n *Node) { n.Sibs[0].Rect = n.Direct })
		}},
		{"child at the wrong level", func(t *testing.T, fx *fixture, data, _ []storage.PageID) {
			corruptNode(t, fx, data[len(data)-1], func(n *Node) { n.Level = 1 })
		}},
		{"reachable page freed", func(t *testing.T, fx *fixture, data, _ []storage.PageID) {
			aa := fx.e.TM.BeginAtomicAction()
			var tr latch.Tracker
			if err := fx.tree.store.Free(aa, &tr, data[len(data)-1]); err != nil {
				t.Fatal(err)
			}
			if err := aa.Commit(); err != nil {
				t.Fatal(err)
			}
		}},
		{"data regions do not partition the space", func(t *testing.T, fx *fixture, data, _ []storage.PageID) {
			pid := pickNode(t, fx, data, func(n *Node) bool { return len(n.Sibs) == 0 })
			corruptNode(t, fx, pid, func(n *Node) { n.Direct = FullSpace() })
		}},
	})
}

// TestVerifyRejectsRootAndOrder: the clauses the kernel's checker added —
// the root covers the whole space, a data node's points are in order.
func TestVerifyRejectsRootAndOrder(t *testing.T) {
	runCorruptions(t, []corruption{
		{"root not responsible for the whole space", func(t *testing.T, fx *fixture, _, _ []storage.PageID) {
			corruptNode(t, fx, fx.tree.root, func(n *Node) { n.Direct.X1-- })
		}},
		{"points out of order", func(t *testing.T, fx *fixture, data, _ []storage.PageID) {
			pid := pickNode(t, fx, data, func(n *Node) bool { return n.Len() > 1 })
			corruptNode(t, fx, pid, func(n *Node) {
				first := append([]byte(nil), n.recs.At(0)...)
				n.recs.Delete(0)
				n.recs.Insert(n.Len(), first)
			})
		}},
	})
}

// runCorruptions runs each row on a fresh drained tree of 300 points.
func runCorruptions(t *testing.T, rows []corruption) {
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			fx := newFixture(t, smallOpts())
			fillPoints(t, fx, rand.New(rand.NewSource(9)), 300)
			fx.tree.DrainCompletions()
			data, index := listNodes(t, fx)
			if row.corrupt == nil {
				if _, err := fx.tree.Verify(); err != nil {
					t.Fatalf("untouched tree rejected: %v", err)
				}
				return
			}
			row.corrupt(t, fx, data, index)
			_, err := fx.tree.Verify()
			if err == nil {
				t.Fatal("corrupt tree verified")
			}
			t.Log(err)
		})
	}
}

// listNodes returns the reachable data and index nodes (quiescent helper).
func listNodes(t *testing.T, fx *fixture) (data, index []storage.PageID) {
	seen := make(map[storage.PageID]bool)
	var visit func(pid storage.PageID)
	visit = func(pid storage.PageID) {
		if seen[pid] {
			return
		}
		seen[pid] = true
		n := readNode(t, fx, pid)
		if n.IsData() {
			data = append(data, pid)
		} else {
			index = append(index, pid)
		}
		for _, s := range n.Sibs {
			visit(s.Pid)
		}
		for i := 0; !n.IsData() && i < n.Len(); i++ {
			_, child := n.termAt(i)
			visit(child)
		}
	}
	visit(fx.tree.root)
	return data, index
}

// pickNode returns the first of pids whose node passes ok.
func pickNode(t *testing.T, fx *fixture, pids []storage.PageID, ok func(n *Node) bool) storage.PageID {
	t.Helper()
	for _, pid := range pids {
		if ok(readNode(t, fx, pid)) {
			return pid
		}
	}
	t.Fatal("no node fits the corruption")
	return storage.NilPage
}

// readNode returns pid's buffered node (quiescent helper).
func readNode(t *testing.T, fx *fixture, pid storage.PageID) *Node {
	t.Helper()
	f, err := fx.tree.store.Pool.Fetch(pid)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.tree.store.Pool.Unpin(f)
	return f.Data.(*Node)
}

// corruptNode applies fn to pid's buffered node under its X latch.
func corruptNode(t *testing.T, fx *fixture, pid storage.PageID, fn func(n *Node)) {
	t.Helper()
	f, err := fx.tree.store.Pool.Fetch(pid)
	if err != nil {
		t.Fatal(err)
	}
	f.Latch.AcquireX()
	fn(f.Data.(*Node))
	f.Latch.ReleaseX()
	fx.tree.store.Pool.Unpin(f)
}
