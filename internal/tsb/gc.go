package tsb

// Watermark-driven version garbage collection.
//
// Historical nodes whose entire time range lies below the transaction
// manager's visibility horizon (the oldest timestamp any live snapshot or
// active transaction can still read) hold versions nobody can ever see
// again. GC retires them IN PLACE: entries are cleared and the node is
// marked Retired, its rectangle and sibling pointers kept, so every
// retired node stays linked and a traversal mid-flight through the chain
// still lands on a well-formed (empty) node. Then the pass reaps: the
// page reaper (reclaim.go) cuts the chain's retired tail from its
// referencer and frees the page, one tail at a time. Freed pages make
// this the CP regime of §5.2.2, not CNS: history edges latch-couple
// (pitree.Config.Couple), so a reader holding a referencer either passes
// before the cut or finds the edge gone, and a pointer saved without a
// latch is re-tested before it is trusted.
//
// Pin safety: a victim has TimeHigh <= horizon. A snapshot reader only
// descends past a node when the newest sub-TimeLow version it carries is
// invisible to the snapshot: either it starts after the snapshot's read
// timestamp, or its writer was in flight at capture — and in-flight
// writers' versions start above their begin clocks, which the snapshot's
// pin folds in (txn.Snapshot.pin; the writer may well have committed and
// left the active set by the time GC runs, so the active set alone is
// not enough). Either way the invisible version starts strictly above
// the snapshot's pin, and the horizon is at most every live snapshot's
// pin. The reader enters a node N only when such an invisible version
// sits above N's time range, so N.TimeHigh > Start > pin >= horizon:
// a victim (TimeHigh <= horizon) is never entered by a live snapshot.
//
// Each victim is one atomic action: remove its level-1 index terms (all
// of them — clipping can spread terms over several parents), then clear
// the node, holding every latch to commit. Redo replays the retirement.
// The retire record is redo-only — it is the action's last, and the
// versions it destroys are not worth logging: an action rolled back after
// it re-posts the terms and leaves the node retired, which the next pass
// skips (reclamation then leaves that page be: its terms block the free).

import (
	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
)

// gcVictim is a chain node selected for retirement, captured under latch.
type gcVictim struct {
	pid     storage.PageID
	rect    Rect
	retired bool
	entries int
}

// RunGC sweeps every history chain in the tree once, retiring all nodes
// below the current visibility horizon. It returns the number of nodes
// retired. Background GC (Options.GC) runs the same per-chain pass off
// committed time splits; RunGC is the on-demand whole-tree form.
func (t *Tree) RunGC() (int, error) {
	g := &gcSweep{t: t}
	err := t.kern.Scan(nil, point{nil, NoEnd - 1}, nil, g)
	return g.retired, err
}

// gcSweep is RunGC's side of the kernel's leaf walk (pitree.Scanner): it
// collects no items, only the current leaf, whose history chain Emit
// sweeps once the leaf's latch is gone.
type gcSweep struct {
	t       *Tree
	head    storage.PageID
	retired int
}

func (g *gcSweep) Collect(leaf nref, cursor point) (int, point, storage.PageID, bool) {
	g.head = leaf.Pid()
	next, succ, more := scanNext(leaf.N, cursor, nil)
	return 0, next, succ, more
}

func (g *gcSweep) LockName(int) lock.Name { return lock.Name{} }

func (g *gcSweep) Emit() (bool, error) {
	n, err := g.t.gcChain(g.head)
	g.retired += n
	if err == nil {
		_, err = g.t.reclaimChain(g.head)
	}
	return err == nil, err
}

// gcChain retires the reclaimable suffix of the history chain hanging off
// the current node head. Serialized per tree: concurrent passes would
// race to retire the same victim and the loser's abort would re-post
// index terms the winner removed.
func (t *Tree) gcChain(head storage.PageID) (int, error) {
	t.gcMu.Lock()
	defer t.gcMu.Unlock()
	t.Stats.GCPasses.Add(1)

	horizon := t.tm.VisibilityHorizon()
	if horizon == 0 {
		return 0, nil
	}

	// Phase 1: walk the chain newest-to-oldest (coupled S latches; gcMu
	// holds its interior still) and collect the suffix of nodes whose
	// whole time range is below the horizon. The current node (TimeHigh =
	// NoEnd) is never a victim.
	var victims []gcVictim
	err := t.histChain(head, func(r nref) {
		if n := r.N; n.Rect.TimeHigh <= horizon {
			victims = append(victims, gcVictim{pid: r.Pid(), rect: cloneRect(n.Rect), retired: n.Retired, entries: n.Len()})
		}
	})
	if err != nil {
		return 0, err
	}

	// Phase 2: retire oldest-first so a crash mid-pass leaves a chain
	// whose retired tail is contiguous. Already-retired nodes need no new
	// action. Nothing unlinks here: retired nodes stay reachable so the
	// reaper can walk to the tail and free it (the cut happens there, one
	// tail at a time, with the page returned to the store).
	retired := 0
	for i := len(victims) - 1; i >= 0; i-- {
		v := victims[i]
		if v.retired {
			continue
		}
		if err := t.retireNode(v); err != nil {
			return retired, err
		}
		retired++
		t.Stats.GCRetiredNodes.Add(1)
		t.Stats.GCReclaimedVersions.Add(int64(v.entries))
	}
	return retired, nil
}

// endsKeyRange reports whether n is the last node of its level whose key
// range reaches into rect's: a walk along the key-sibling chain across
// rect stops there.
func endsKeyRange(n *Node, rect Rect) bool {
	return n.Rect.KeyHigh.Unbounded || n.KeySib == storage.NilPage ||
		(!rect.KeyHigh.Unbounded && keys.Compare(n.Rect.KeyHigh.Key, rect.KeyHigh.Key) >= 0)
}

// retireNode removes the victim's level-1 index terms and clears it, as
// one atomic action holding all latches to commit. Clipped terms mean
// several level-1 parents can reference the victim, so the removal walks
// the key-sibling chain across the victim's key range.
func (t *Tree) retireNode(v gcVictim) error {
	return t.kern.RetryLoop(nil, func(o *opCtx) error {
		first, err := t.descend(o, v.rect.KeyLow, NoEnd-1, 1, latch.U, false)
		if err != nil {
			return err
		}
		return o.Atomic(func(aa *txn.Txn) error { return t.retireIn(o, aa, &first, v) })
	})
}

// retireIn is retireNode's action: first is the U-latched level-1 node on
// the search path of the victim's low key.
func (t *Tree) retireIn(o *opCtx, aa *txn.Txn, first *nref, v gcVictim) error {
	node := first
	o.Hold(node)
	for {
		if i, ok := node.N.termFor(v.pid); ok && node.N.Len() > 1 {
			// Never remove a level-1 node's last term: an empty index
			// node is unnavigable (and fails verification). One stale
			// term to a retired node is harmless — it still routes to
			// a well-formed empty page.
			o.Promote(node)
			aa.LogUpdate(node.F, KindRemoveTerm, appendTerm(nil, node.N.entry(i)))
			node.N.recs.Delete(i)
			t.Stats.GCRemovedTerms.Add(1)
		}
		if endsKeyRange(node.N, v.rect) {
			break
		}
		// next is a fresh variable each time round: Hold keeps its
		// address.
		next, err := o.Acquire(node.N.KeySib, latch.U, 1)
		if err != nil {
			return err
		}
		node = &next
		o.Hold(node)
	}

	vic, err := o.Acquire(v.pid, latch.X, 0)
	if err != nil {
		return err
	}
	o.Hold(&vic)
	if vic.N.Retired {
		// Lost a race we thought gcMu excluded (defensive): keep the
		// term removals, skip the retire.
		return nil
	}
	// The action's last record, and redo-only: see KindRetireNode.
	aa.LogUpdate(vic.F, KindRetireNode, encRetire())
	applyRetire(vic.N, false)
	return nil
}
