package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/storage"
)

// TestVerifyRejectsCorruption: one corruption per class of §2.1.3's
// clauses, applied to a buffered node under its X latch; Verify must
// reject every one, and accept the tree left alone.
func TestVerifyRejectsCorruption(t *testing.T) {
	// build returns a drained three-level tree and its leftmost leaf,
	// level-1 node and root.
	build := func(t *testing.T) (fx *fixture, leaf, index storage.PageID) {
		fx = newFixture(t, engine.Options{}, defaultTestOpts())
		for i := 0; i < 300; i++ {
			if err := fx.tree.Insert(nil, keys.Uint64(uint64(2*i)), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		fx.tree.DrainCompletions()
		for pid := fx.tree.root; ; {
			n := readNode(t, fx, pid)
			if n.Level == 1 {
				index = pid
			}
			if n.Level == 0 {
				return fx, pid, index
			}
			pid = n.entry(0).Child
		}
	}
	right := func(t *testing.T, fx *fixture, pid storage.PageID) storage.PageID {
		return readNode(t, fx, pid).Right
	}
	for _, row := range []struct {
		name    string
		corrupt func(t *testing.T, fx *fixture, leaf, index storage.PageID)
	}{
		{"untouched", nil},
		{"root not responsible for the whole space", func(t *testing.T, fx *fixture, _, _ storage.PageID) {
			corruptNode(t, fx, fx.tree.root, func(n *Node) { n.Low = keys.Uint64(1) })
		}},
		{"entries out of order", func(t *testing.T, fx *fixture, leaf, _ storage.PageID) {
			corruptNode(t, fx, right(t, fx, leaf), func(n *Node) {
				first := append([]byte(nil), n.recs.At(0)...)
				n.recs.Delete(0)
				n.recs.Insert(n.Len(), first)
			})
		}},
		{"entry outside the node", func(t *testing.T, fx *fixture, leaf, _ storage.PageID) {
			corruptNode(t, fx, leaf, func(n *Node) {
				n.recs.Insert(n.Len(), appendLeaf(nil, keys.Clone(n.High.Key), []byte("x")))
			})
		}},
		{"dropped index term", func(t *testing.T, fx *fixture, _, index storage.PageID) {
			corruptNode(t, fx, index, func(n *Node) { n.recs.Delete(0) })
		}},
		{"wrong index term", func(t *testing.T, fx *fixture, _, index storage.PageID) {
			corruptNode(t, fx, index, func(n *Node) {
				a, b := n.entry(1), n.entry(2)
				a.Child, b.Child = b.Child, a.Child
				n.recs.Replace(1, appendTerm(nil, a.Key, a.Child))
				n.recs.Replace(2, appendTerm(nil, b.Key, b.Child))
			})
		}},
		{"broken side chain", func(t *testing.T, fx *fixture, leaf, _ storage.PageID) {
			skip := right(t, fx, right(t, fx, leaf))
			corruptNode(t, fx, leaf, func(n *Node) { n.Right = skip })
		}},
		{"child at the wrong level", func(t *testing.T, fx *fixture, leaf, _ storage.PageID) {
			corruptNode(t, fx, right(t, fx, leaf), func(n *Node) { n.Level = 1 })
		}},
		{"reachable page freed", func(t *testing.T, fx *fixture, leaf, _ storage.PageID) {
			aa := fx.e.TM.BeginAtomicAction()
			var tr latch.Tracker
			if err := fx.tree.store.Free(aa, &tr, right(t, fx, leaf)); err != nil {
				t.Fatal(err)
			}
			if err := aa.Commit(); err != nil {
				t.Fatal(err)
			}
		}},
		{"reachable page dead", func(t *testing.T, fx *fixture, leaf, _ storage.PageID) {
			corruptNode(t, fx, right(t, fx, leaf), func(n *Node) { n.Dead = true })
		}},
		{"level does not partition the space", func(t *testing.T, fx *fixture, leaf, _ storage.PageID) {
			corruptNode(t, fx, leaf, func(n *Node) {
				n.High = keys.At(append(keys.Clone(n.keyAt(n.Len()-1)), 0))
			})
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			fx, leaf, index := build(t)
			if row.corrupt == nil {
				if _, err := fx.tree.Verify(); err != nil {
					t.Fatalf("untouched tree rejected: %v", err)
				}
				return
			}
			row.corrupt(t, fx, leaf, index)
			_, err := fx.tree.Verify()
			if err == nil {
				t.Fatal("corrupt tree verified")
			}
			t.Log(err)
		})
	}
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
