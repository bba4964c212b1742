package tsb

import (
	"testing"

	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/storage"
	"repro/internal/wal"
)

// TestVerifyRejectsCorruption: one corruption per class of §2.1.3's
// clauses as the TSB tree has them, applied to a buffered node under its
// X latch; Verify must reject every one, and accept the tree left alone.
func TestVerifyRejectsCorruption(t *testing.T) {
	// build returns a drained tree with key and time splits behind it, its
	// leftmost level-1 node and its current chain.
	build := func(t *testing.T) (fx *fixture, index storage.PageID, chain []storage.PageID) {
		fx = newFixture(t, smallOpts())
		churn(t, fx, 40, 0, 6)
		fx.tree.DrainCompletions()
		index = fx.tree.root
		for readNode(t, fx, index).Level > 1 {
			index = readNode(t, fx, index).entry(0).Child
		}
		n := readNode(t, fx, index)
		for i := 0; i < n.Len(); i++ {
			if r := n.rectAt(i); r.KeyLow == nil && r.TimeHigh == NoEnd {
				chain = []storage.PageID{n.childAt(i)}
			}
		}
		for sib := readNode(t, fx, chain[0]).KeySib; sib != storage.NilPage; sib = readNode(t, fx, sib).KeySib {
			chain = append(chain, sib)
		}
		if len(chain) < 3 {
			t.Fatalf("current chain of %d nodes: too few key splits", len(chain))
		}
		return fx, index, chain
	}
	for _, row := range []struct {
		name    string
		corrupt func(t *testing.T, fx *fixture, index storage.PageID, chain []storage.PageID)
	}{
		{"untouched", nil},
		{"root not responsible for the whole space", func(t *testing.T, fx *fixture, _ storage.PageID, _ []storage.PageID) {
			corruptNode(t, fx, fx.tree.root, func(n *Node) { n.Rect.TimeLow = 1 })
		}},
		{"versions out of order", func(t *testing.T, fx *fixture, _ storage.PageID, chain []storage.PageID) {
			corruptNode(t, fx, chain[1], func(n *Node) {
				first := append([]byte(nil), n.recs.At(0)...)
				n.recs.Delete(0)
				n.recs.Insert(n.Len(), first)
			})
		}},
		{"version outside the node", func(t *testing.T, fx *fixture, _ storage.PageID, chain []storage.PageID) {
			corruptNode(t, fx, chain[0], func(n *Node) {
				n.recs.Insert(n.Len(), appendVersion(nil, Entry{Key: keys.Clone(n.Rect.KeyHigh.Key), Start: 1, Value: []byte("x")}))
			})
		}},
		{"dropped index term", func(t *testing.T, fx *fixture, index storage.PageID, chain []storage.PageID) {
			corruptNode(t, fx, index, func(n *Node) {
				for i, ok := n.termFor(chain[0]); ok; i, ok = n.termFor(chain[0]) {
					n.recs.Delete(i)
				}
			})
		}},
		{"wrong index term", func(t *testing.T, fx *fixture, index storage.PageID, _ []storage.PageID) {
			// Swap the children of two terms with different low keys.
			for pid := index; pid != storage.NilPage; pid = readNode(t, fx, pid).KeySib {
				n := readNode(t, fx, pid)
				if j := n.Len() - 1; !keys.Equal(n.rectAt(0).KeyLow, n.rectAt(j).KeyLow) {
					corruptNode(t, fx, pid, func(n *Node) {
						a, b := n.entry(0), n.entry(j)
						a.Child, b.Child = b.Child, a.Child
						n.recs.Replace(0, appendTerm(nil, a))
						n.recs.Replace(j, appendTerm(nil, b))
					})
					return
				}
			}
			t.Fatal("no level-1 node has terms of two low keys")
		}},
		{"broken side chain", func(t *testing.T, fx *fixture, _ storage.PageID, chain []storage.PageID) {
			corruptNode(t, fx, chain[0], func(n *Node) { n.KeySib = chain[2] })
		}},
		{"child at the wrong level", func(t *testing.T, fx *fixture, _ storage.PageID, chain []storage.PageID) {
			corruptNode(t, fx, chain[1], func(n *Node) { n.Level = 1 })
		}},
		{"reachable page freed", func(t *testing.T, fx *fixture, _ storage.PageID, chain []storage.PageID) {
			aa := fx.e.TM.BeginAtomicAction()
			var tr latch.Tracker
			if err := fx.tree.store.Free(aa, &tr, chain[1]); err != nil {
				t.Fatal(err)
			}
			if err := aa.Commit(); err != nil {
				t.Fatal(err)
			}
		}},
		{"current chain does not partition the keys", func(t *testing.T, fx *fixture, _ storage.PageID, chain []storage.PageID) {
			corruptNode(t, fx, chain[0], func(n *Node) {
				n.Rect.KeyHigh = keys.At(append(keys.Clone(n.keyAt(n.Len()-1)), 0))
			})
		}},
		{"history cut above the horizon", func(t *testing.T, fx *fixture, _ storage.PageID, chain []storage.PageID) {
			// A snapshot taken before the node's next time split holds the
			// horizon below the node's new time low: GC can never have
			// freed the history behind it.
			snap := fx.e.BeginSnapshot()
			t.Cleanup(snap.Release)
			pin := fx.tree.Now()
			churn(t, fx, 40, 6, 9)
			fx.tree.DrainCompletions()
			for pid := chain[0]; pid != storage.NilPage; pid = readNode(t, fx, pid).KeySib {
				if readNode(t, fx, pid).Rect.TimeLow > pin {
					corruptNode(t, fx, pid, func(n *Node) { n.HistSib = storage.NilPage })
					return
				}
			}
			t.Fatal("no current node time-split after the snapshot")
		}},
		{"history chain does not partition the past", func(t *testing.T, fx *fixture, _ storage.PageID, chain []storage.PageID) {
			for _, pid := range chain {
				if h := readNode(t, fx, pid).HistSib; h != storage.NilPage {
					corruptNode(t, fx, h, func(n *Node) { n.Rect.TimeHigh++ })
					return
				}
			}
			t.Fatal("no current node has history")
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			fx, index, chain := build(t)
			if row.corrupt == nil {
				if _, err := fx.tree.Verify(); err != nil {
					t.Fatalf("untouched tree rejected: %v", err)
				}
				return
			}
			row.corrupt(t, fx, index, chain)
			_, err := fx.tree.Verify()
			if err == nil {
				t.Fatal("corrupt tree verified")
			}
			t.Log(err)
		})
	}
}

// TestTruncatedHistoryVerifiesAfterRestart: GC frees a current node's
// whole history — its time low above 0, its history pointer nil — which
// Verify accepts because the time low is at or below the visibility
// horizon. After a crash the recovered clock high water is above the
// commit stamp of every surviving cut, so Verify still accepts it, also
// while a restart's adopted loser (begun, as far as restart knows, at
// clock 0) holds the horizon at 0.
func TestTruncatedHistoryVerifiesAfterRestart(t *testing.T) {
	truncated := func(fx *fixture) (n int) {
		err := fx.tree.kern.Walk(0, func(r nref) error {
			if r.N.Current() && r.N.Rect.TimeLow != 0 && r.N.HistSib == storage.NilPage {
				n++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	fx := newFixture(t, smallOpts())
	churn(t, fx, 40, 0, 20)
	fx.tree.DrainCompletions()
	if _, err := fx.tree.RunGC(); err != nil {
		t.Fatal(err)
	}
	if truncated(fx) == 0 {
		t.Fatal("GC truncated no history chain: the check was not exercised")
	}
	fx.mustVerify(t)
	if err := fx.e.Log.ForceAll(); err != nil {
		t.Fatal(err)
	}
	fx2 := fx.crashRestart(t)
	if truncated(fx2) == 0 {
		t.Fatal("restart restored every history chain")
	}
	fx2.mustVerify(t)
	fx2.e.TM.Adopt(1<<40, false, wal.NilLSN)
	if h := fx2.e.TM.VisibilityHorizon(); h != 0 {
		t.Fatalf("horizon %d with a loser adopted", h)
	}
	fx2.mustVerify(t)
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
