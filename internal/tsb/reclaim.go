package tsb

// Page reclamation for retired history-chain tails: the second half of
// every version-GC pass.
//
// Version GC (gc.go) retires nodes in place; retiring alone would leak
// one page per retired node forever — under sustained churn the store
// would grow without bound even though the live data is constant. The
// reaper closes the loop: a retired node that is the TAIL of its history
// chain, referenced by exactly one history edge and by no level-1 index
// term, is unlinked from its referencer and its page freed by
// pitree.Kernel.Absorb, which owns the rules every tree's free shares.
// Traversals latch-couple history edges (pitree.Step, carryRepair), so a
// reader either passes the referencer before the cut — and then holds the
// victim's latch, which the X acquisition waits out — or arrives after
// and finds the edge gone.
//
// The tree's own conditions, each checked under latches:
//
//  1. TAIL: the victim's own history pointer is nil, so freeing it strands
//     nothing behind it. Chains shrink strictly from the tail; interior
//     nodes are freed only after becoming tails themselves.
//  2. SOLE EDGE: the referencer's edge is not marked HistShared. A key
//     split copies the history pointer into the new current node, making
//     the chain head reachable twice; the mark (set on both halves,
//     transferred to the history node by later time splits) rides every
//     edge that may have a twin. A marked edge is never cut — the twin
//     may still route readers through it — so shared chains leak their
//     tails, bounded by the number of key splits (counted, accepted). The
//     X latch on the referencer freezes the mark (only a key split of the
//     chain head can set it) and stops noteHistSibling from scheduling a
//     posting for the victim (scheduling reads the referencer).
//  3. NO TERMS: no level-1 term references the victim (retireNode removes
//     them, but never a node's LAST term; a survivor blocks the free).
//     Zero is absorbing: postTerm refuses to post terms for a Retired
//     child, and the parent-latch serialization of retireNode vs postTerm
//     means no in-flight posting can resurrect one after the removal pass
//     — so a clean check stays clean.
//
// Snapshot safety is inherited from GC's horizon argument: a victim was
// retired because its whole time range lies below the visibility horizon,
// and no live snapshot ever enters such a node (see gc.go). Readers below
// the horizon (explicit GetAsOf at ancient times) already read truncated
// history from retirement; reclamation only changes whether the empty
// node they would have visited still exists, and the coupled walk makes
// the visit-or-stop decision atomic with the cut.

import (
	"repro/internal/latch"
	"repro/internal/storage"
	"repro/internal/txn"
)

// reclaimChain frees the reclaimable tail(s) of the history chain hanging
// off the current node head, one per atomic action, until the tail no
// longer qualifies. Returns the number of pages freed. Serialized by gcMu
// with version GC: while the reaper runs, the only concurrent structure
// change on the chain is a split of its current head.
func (t *Tree) reclaimChain(head storage.PageID) (int, error) {
	t.gcMu.Lock()
	defer t.gcMu.Unlock()
	freed := 0
	for {
		n, err := t.reclaimTail(head)
		freed += n
		if n == 0 || err != nil {
			return freed, err
		}
	}
}

// reclaimTail frees the chain's tail if every precondition holds; it
// returns 1 if a page was freed. Three episodes, in latch-rank order:
// first a walk to find the tail and its referencer (S, one at a time —
// gcMu makes interior nodes immutable and nothing else frees pages),
// then the no-terms sweep over level-1 parents (S, released before any
// data latch so ranks stay ascending), then the cut: the kernel's
// consolidation action, which frees the page.
func (t *Tree) reclaimTail(head storage.PageID) (int, error) {
	prevPid, tailPid, tailRect, tailRetired, err := t.findTail(head)
	if err != nil || tailPid == storage.NilPage || tailPid == head {
		return 0, err
	}
	if !tailRetired {
		return 0, nil
	}

	// Episode 2: no level-1 term may reference the victim. Clipping can
	// spread terms over several parents, so sweep the key-sibling chain
	// across the victim's key range (the same walk retireNode removes
	// along). Terms for a retired node are monotone-decreasing, so a
	// clean sweep cannot be invalidated later.
	clean, err := t.noTermsFor(tailRect, tailPid)
	if err != nil {
		return 0, err
	}
	if !clean {
		t.Stats.GCTermSkips.Add(1)
		return 0, nil
	}

	// Episode 3: the cut, as the kernel's consolidation action.
	o := t.kern.NewOp(nil)
	defer o.Done()
	if freed, err := t.kern.Absorb(o, &tailCut{t: t, prevPid: prevPid, tailPid: tailPid}); !freed {
		return 0, err
	}
	t.Stats.GCFreedPages.Add(1)
	return 1, nil
}

// tailCut is reclaimTail's side of the consolidation action
// (pitree.Absorber): the referencer, the one survivor, loses its history
// edge to the retired tail.
type tailCut struct {
	t                *Tree
	prevPid, tailPid storage.PageID
	prev             nref
}

// Survivors latches the referencer U, re-tests the sole edge (conditions 1
// and 2) and promotes it.
func (c *tailCut) Survivors(o *opCtx) (victim storage.PageID, level int, err error) {
	if c.prev, err = o.Acquire(c.prevPid, latch.U, 0); err != nil {
		return storage.NilPage, 0, err
	}
	o.Hold(&c.prev)
	if c.prev.N.HistSib != c.tailPid {
		// The chain changed shape since the walk (only the head can, via
		// a concurrent time split); retry on the next pass.
		return storage.NilPage, 0, nil
	}
	if c.prev.N.HistShared {
		c.t.Stats.GCSharedSkips.Add(1)
		return storage.NilPage, 0, nil
	}
	o.Promote(&c.prev)
	return c.tailPid, 0, nil
}

// Victim: still a retired, empty tail.
func (*tailCut) Victim(n *Node) bool {
	return n.Retired && n.HistSib == storage.NilPage && n.Len() == 0
}

func (c *tailCut) Cut(aa *txn.Txn, _ *nref) (bool, error) {
	aa.LogUpdate(c.prev.F, KindCutHist, encCutHist(c.prev.N))
	applyCutHist(c.prev.N)
	return true, nil
}

// findTail walks the chain from head (gcMu holds interior nodes
// immutable) and returns the last node, its referencer, and the facts the
// caller screens on. tailPid == head means no history.
func (t *Tree) findTail(head storage.PageID) (prevPid, tailPid storage.PageID, rect Rect, retired bool, err error) {
	err = t.histChain(head, func(r nref) {
		prevPid, tailPid, rect, retired = tailPid, r.Pid(), cloneRect(r.N.Rect), r.N.Retired
	})
	return prevPid, tailPid, rect, retired, err
}

// histChain hands fn each node of the history chain from head, newest
// first, S-latched and coupled along each edge (pitree.Kernel.Step).
func (t *Tree) histChain(head storage.PageID, fn func(r nref)) error {
	o := t.kern.NewOp(nil)
	defer o.Done()
	cur, err := o.Acquire(head, latch.S, 0)
	for err == nil {
		fn(cur)
		if cur.N.HistSib == storage.NilPage {
			o.Release(&cur)
			return nil
		}
		cur, err = t.kern.Step(o, &cur, cur.N.HistSib, latch.S, 0)
	}
	return err
}

// noTermsFor reports whether NO level-1 index term references pid,
// sweeping the key-sibling chain across rect's key range with S latches.
func (t *Tree) noTermsFor(rect Rect, pid storage.PageID) (bool, error) {
	found := false
	err := t.kern.RetryLoop(nil, func(o *opCtx) error {
		found = false
		node, err := t.descend(o, rect.KeyLow, NoEnd-1, 1, latch.S, false)
		if err != nil {
			return err
		}
		for {
			if _, ok := node.N.termFor(pid); ok {
				found = true
				break
			}
			if endsKeyRange(node.N, rect) {
				break
			}
			next, err := t.kern.Step(o, &node, node.N.KeySib, latch.S, 1)
			if err != nil {
				return err
			}
			node = next
		}
		o.Release(&node)
		return nil
	})
	return !found, err
}
