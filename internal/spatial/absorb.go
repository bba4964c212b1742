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
// The tree's own conditions, each re-verified under latches before the
// cut; the rules every tree's free shares are pitree.Kernel.Absorb's:
//
//  1. NEWEST DELEGATION: the victim is its delegator's LAST sibling term.
//     Delegations nest LIFO — each split halves the then-current direct
//     region — so only the newest term's rect unions with the direct
//     region to a rectangle (the exact pre-split region). Older victims
//     become absorbable as the ones delegated after them go first.
//  2. EMPTY: the victim has no points and no delegations of its own (a
//     sibling term in the victim would be stranded by the free).
//  3. UNCLIPPED (§3.3, single parent): the victim's index term is not
//     Clipped. A clipped term marks a possibly multi-parent child, and the
//     mark is sticky, so an unclipped term seen under the parent's latch
//     proves exactly one parent references the victim.
//  4. ROUTING SURVIVOR: some other term in the parent contains the
//     victim's rect, so points in the re-absorbed region keep a search
//     path (the delegator's own term qualifies: the victim's region was
//     split out of it, and term rects are never shrunk). The parent also
//     keeps at least one term — index nodes never go empty.
//
// No posting for the victim can be scheduled once the delegator is X:
// scheduling reads its sibling term. A task scheduled from a stale
// snapshot re-tests its child latched (termPost.Verify) and posts nothing.
//
// Readers cannot be stranded on the victim: under Reclaim every latched
// traversal couples (pitree.Step, RegionQuery's held-parent DFS) and the
// optimistic descent re-validates the source of its final edge, so a
// reader either holds the victim's latch — which the kernel's X
// acquisition waits out — or arrives after the cut and never sees the
// edge. The victim's own region is empty of data, so no reader loses
// results; it just routes through the delegator afterwards.

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

// absorbAction performs one absorb as the kernel's consolidation action.
// Returns 1 if the victim's page was freed, 0 if any screen failed.
func (t *Tree) absorbAction(c absorbCand) (int, error) {
	freed := 0
	err := t.kern.RetryLoop(nil, func(o *opCtx) error {
		ok, err := t.kern.Absorb(o, &absorber{t: t, c: c})
		if ok {
			freed = 1
			t.Stats.Absorbs.Add(1)
		}
		return err
	})
	return freed, err
}

// absorber is absorbAction's side of the consolidation action
// (pitree.Absorber): the delegator takes the victim's region back into its
// direct region, and the parent loses the victim's term.
type absorber struct {
	t             *Tree
	c             absorbCand
	parent, deleg nref
	i             int   // the victim's term in parent
	term          Entry // no Value: nothing of it aliases the node
}

// Survivors latches the parent (U→X at level 1) and then the delegator
// (U→X), re-testing conditions 1, 3 and 4; each promotion comes before any
// lower latch is taken (§4.1.1), so coupled readers drain downward.
func (a *absorber) Survivors(o *opCtx) (victim storage.PageID, level int, err error) {
	t, c := a.t, a.c
	// The victim's sole parent lies on the search path of its term's low
	// corner: an unclipped term was never cut by its holder's splits, so
	// the rect sits inside the holder's direct region. A delegated rect
	// never changes, so the scan's copy locates it.
	if a.parent, err = t.descend(o, Point{X: c.rect.X0, Y: c.rect.Y0}, 1, latch.U, false); err != nil {
		return storage.NilPage, 0, err
	}
	o.Hold(&a.parent)
	p := a.parent.N
	i, ok := p.termFor(c.victim)
	if !ok {
		// Unposted (completion pending) or already elsewhere: defer.
		t.Stats.AbsorbDeferred.Add(1)
		return storage.NilPage, 0, nil
	}
	a.i, a.term = i, p.entry(i)
	if a.term.Clipped {
		t.Stats.AbsorbMultiParent.Add(1)
		return storage.NilPage, 0, nil
	}
	survivor := false
	for j := 0; j < p.Len() && !survivor; j++ {
		r, _ := p.termAt(j)
		survivor = j != i && r.ContainsRect(a.term.Rect)
	}
	if !survivor {
		t.Stats.AbsorbDeferred.Add(1)
		return storage.NilPage, 0, nil
	}
	o.Promote(&a.parent)

	if a.deleg, err = o.Acquire(c.deleg, latch.U, 0); err != nil {
		return storage.NilPage, 0, err
	}
	o.Hold(&a.deleg)
	d := a.deleg.N
	if ns := len(d.Sibs); ns == 0 || d.Sibs[ns-1].Pid != c.victim || d.Sibs[ns-1].Rect != a.term.Rect || !d.IsData() {
		return storage.NilPage, 0, nil
	}
	o.Promote(&a.deleg)
	return c.victim, 0, nil
}

// Victim: condition 2.
func (*absorber) Victim(n *Node) bool { return n.IsData() && n.Len() == 0 && len(n.Sibs) == 0 }

func (a *absorber) Cut(aa *txn.Txn, _ *nref) (bool, error) {
	deleg, term := &a.deleg, a.term
	// The victim was split off along X iff it abuts the delegator's direct
	// region on the X side; undo cuts there again.
	alongX, coord := term.Rect.X0 == deleg.N.Direct.X1, term.Rect.Y0
	if alongX {
		coord = term.Rect.X0
	}
	aa.LogUpdate(deleg.F, KindAbsorbSib, encAbsorbSib(alongX, coord, a.c.victim, returning{}))
	if err := applyAbsorbSib(deleg.N, returning{}); err != nil {
		return false, err
	}
	aa.LogUpdate(a.parent.F, KindRemoveTerm, appendTerm(nil, term))
	a.parent.N.recs.Delete(a.i)
	return true, nil
}
