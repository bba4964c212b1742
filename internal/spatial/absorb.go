package spatial

// Consolidation of empty data nodes (Options.Reclaim).
//
// A data node whose points are all deleted is pure overhead: descents
// route through it, its parent carries a term for it, and its page stays
// allocated forever under pure CNS. The absorber reverses the split that
// created it: the delegator (the node whose sibling term references the
// victim) takes the victim's region back into its direct region, the
// victim's index term is removed from its parent, and the page goes to
// the store's free-space map — one atomic action, pre-image undo.
//
// Safety conditions, each re-verified under latches before the cut:
//
//  1. NEWEST DELEGATION: the victim is its delegator's LAST sibling term.
//     Delegations nest LIFO — each split halves the then-current direct
//     region — so only the newest term's rect unions with the direct
//     region to a rectangle (the exact pre-split region). Older victims
//     become absorbable as the ones delegated after them go first.
//  2. EMPTY: the victim has no points and no delegations of its own (a
//     sibling term in the victim would be stranded by the free).
//  3. SINGLE PARENT (§3.3): the victim's index term is not Clipped. A
//     clipped term marks a possibly multi-parent child, and the mark is
//     sticky, so an unclipped term seen under the parent's latch proves
//     exactly one parent references the victim. CanConsolidate is the
//     quiescent census form of the same test, used to pre-screen.
//  4. ROUTING SURVIVOR: some other term in the parent contains the
//     victim's rect, so points in the re-absorbed region keep a search
//     path (the delegator's own term qualifies: the victim's region was
//     split out of it, and term rects are never shrunk). The parent also
//     keeps at least one term — index nodes never go empty.
//  5. NO PENDING TASK: no completion task names the victim (tasks stay
//     in the pending set until done), and none can be newly scheduled:
//     scheduling requires reading the delegator's sibling term, which
//     the cut holds X until commit. A task scheduled from a stale
//     optimistic snapshot re-tests its child latched (termPost.Verify)
//     and finds the page free — or handed to a node not responsible for
//     the task's rectangle — and posts nothing.
//
// Readers cannot be stranded on the victim: under Reclaim every latched
// traversal couples (pitree.Step, RegionQuery's held-parent DFS) and the
// optimistic descent re-validates the source of its final edge, so a
// reader either holds the victim's latch — which the absorber's X
// acquisition waits out — or arrives after the cut and never sees the
// edge. The victim's own region is empty of data, so no reader loses
// results; it just routes through the delegator afterwards.
//
// Crash consistency: the three edits (absorb, term removal, free) are
// one atomic action — redo replays all, an incomplete action undoes all,
// so the page is free if and only if it is unlinked from both the
// sibling chain and the index.

import (
	"repro/internal/latch"
	"repro/internal/storage"
	"repro/internal/txn"
)

// absorbCand is one (delegator, victim) pair found by the scan, with the
// victim's rect as the delegator's sibling term gives it.
type absorbCand struct {
	deleg, victim storage.PageID
	rect          Rect
}

// RunConsolidation sweeps the tree absorbing every reclaimable empty
// data node, repeating until a pass makes no progress (absorbing a
// victim exposes the delegation before it). Returns pages freed.
func (t *Tree) RunConsolidation() (int, error) {
	if !t.opts.Reclaim {
		return 0, nil
	}
	total := 0
	for {
		n, err := t.absorbPass()
		total += n
		if n == 0 || err != nil {
			return total, err
		}
	}
}

// absorbPass scans once for empty newest-delegated data nodes and tries
// to absorb each. Serialized by absorbMu: concurrent passes would race
// to absorb the same victim, and the loser's abort would restore state
// the winner already changed.
func (t *Tree) absorbPass() (int, error) {
	t.absorbMu.Lock()
	defer t.absorbMu.Unlock()

	cands, err := t.scanAbsorbCandidates()
	if err != nil {
		return 0, err
	}
	freed := 0
	for _, c := range cands {
		// §3.3 census pre-screen; the authoritative test is the Clipped
		// mark on the term, checked under the parent's latch.
		if ok, err := t.CanConsolidate(c.victim); err != nil {
			return freed, err
		} else if !ok {
			t.Stats.AbsorbMultiParent.Add(1)
			continue
		}
		n, err := t.absorbAction(c)
		freed += n
		if err != nil {
			return freed, err
		}
	}
	return freed, nil
}

// scanAbsorbCandidates walks every reachable node (the kernel's Walk: one
// S latch at a time — CNS reading, same as the tsb GC scan) and collects
// delegators whose newest sibling is an empty data node. Everything is
// re-verified under latches before any cut, so a stale observation costs
// only a wasted attempt.
func (t *Tree) scanAbsorbCandidates() ([]absorbCand, error) {
	var cands []absorbCand
	empty := make(map[storage.PageID]bool)
	err := t.kern.Walk(0, func(r nref) error {
		n := r.N
		if !n.IsData() {
			return nil
		}
		empty[r.Pid()] = n.Len() == 0 && len(n.Sibs) == 0
		if ns := len(n.Sibs); ns > 0 {
			cands = append(cands, absorbCand{r.Pid(), n.Sibs[ns-1].Pid, n.Sibs[ns-1].Rect})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A victim is reachable through its delegator's sibling term, so the
	// walk has seen it.
	kept := cands[:0]
	for _, c := range cands {
		if empty[c.victim] {
			kept = append(kept, c)
		}
	}
	return kept, nil
}

// absorbAction performs one absorb as an atomic action, re-verifying
// every condition under latches (parent U→X at level 1, then delegator
// U→X, then victim X — descending rank order; promotions happen before
// any lower latch is taken, §4.1.1, so coupled readers drain downward).
// Returns 1 if the victim's page was freed, 0 if any screen failed.
func (t *Tree) absorbAction(c absorbCand) (int, error) {
	delegPid, victimPid := c.deleg, c.victim
	freed := 0
	err := t.kern.RetryLoop(nil, func(o *opCtx) error {
		freed = 0

		// The victim's sole parent lies on the search path of its term's
		// low corner: an unclipped term was never cut by its holder's
		// splits, so the rect sits inside the holder's direct region. A
		// delegated rect never changes, so the scan's copy locates it.
		corner := Point{X: c.rect.X0, Y: c.rect.Y0}
		parent, err := t.descend(o, corner, 1, latch.U, false)
		if err != nil {
			return err
		}
		i, ok := parent.N.termFor(victimPid)
		if !ok {
			// Unposted (completion pending) or already elsewhere: defer.
			o.Release(&parent)
			t.Stats.AbsorbDeferred.Add(1)
			return nil
		}
		term := parent.N.entry(i) // no Value: nothing of it aliases the node
		if term.Clipped {
			o.Release(&parent)
			t.Stats.AbsorbMultiParent.Add(1)
			return nil
		}
		if parent.N.Len() <= 1 {
			o.Release(&parent)
			return nil
		}
		survivor := false
		for j := 0; j < parent.N.Len(); j++ {
			if r, _ := parent.N.termAt(j); j != i && r.ContainsRect(term.Rect) {
				survivor = true
				break
			}
		}
		if !survivor {
			o.Release(&parent)
			t.Stats.AbsorbDeferred.Add(1)
			return nil
		}
		o.Promote(&parent)

		deleg, err := o.Acquire(delegPid, latch.U, 0)
		if err != nil {
			o.Release(&parent)
			return err
		}
		ns := len(deleg.N.Sibs)
		if ns == 0 || deleg.N.Sibs[ns-1].Pid != victimPid || deleg.N.Sibs[ns-1].Rect != term.Rect || !deleg.N.IsData() {
			o.Release(&deleg, &parent)
			return nil
		}
		// With the delegator still only U-latched no new task can commit a
		// read of its sibling term after this test... promotion to X comes
		// first, and scheduling from latched traversals needs the S latch
		// the X excludes. Tasks already scheduled (or running) are visible
		// in the pending set; a stale-snapshot schedule after the free
		// re-tests the page in termPost.Verify.
		if t.refsChild(victimPid) {
			o.Release(&deleg, &parent)
			t.Stats.AbsorbDeferred.Add(1)
			return nil
		}
		o.Promote(&deleg)

		victim, err := o.Acquire(victimPid, latch.X, 0)
		if err != nil {
			o.Release(&deleg, &parent)
			return err
		}
		if !victim.N.IsData() || victim.N.Len() != 0 || len(victim.N.Sibs) != 0 {
			o.Release(&victim, &deleg, &parent)
			return nil
		}

		err = o.Atomic(func(aa *txn.Txn) error {
			o.Hold(&parent, &deleg, &victim)
			// The victim was split off along X iff it abuts the delegator's
			// direct region on the X side; undo cuts there again.
			alongX, coord := term.Rect.X0 == deleg.N.Direct.X1, term.Rect.Y0
			if alongX {
				coord = term.Rect.X0
			}
			lsn := aa.LogUpdate(t.store.Pool.StoreID, uint64(deleg.Pid()), KindAbsorbSib, encAbsorbSib(alongX, coord, victimPid, returning{}))
			if err := applyAbsorbSib(deleg.N, returning{}); err != nil {
				return err
			}
			deleg.F.MarkDirty(lsn)
			lsn = aa.LogUpdate(t.store.Pool.StoreID, uint64(parent.Pid()), KindRemoveTerm, encTerm(term))
			parent.N.recs.Delete(i)
			parent.F.MarkDirty(lsn)
			if err := t.store.Free(aa, &o.Tr, victimPid); err != nil {
				return err
			}
			return t.store.Pool.Probe(storage.FPConsolidate)
		})
		if err != nil {
			return err
		}
		t.Stats.Absorbs.Add(1)
		freed = 1
		return nil
	})
	return freed, err
}
