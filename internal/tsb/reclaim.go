package tsb

// Page reclamation for retired history-chain tails (Options.Reclaim).
//
// Version GC (gc.go) retires nodes in place but never frees them: under
// pure CNS a stale traversal may still arrive at any saved pointer, so
// pages are immortal. That leaks one page per retired node forever —
// under sustained churn the store grows without bound even though the
// live data is constant. Reclamation closes the loop: a retired node that
// is the TAIL of its history chain, referenced by exactly one history
// edge and by no level-1 index term and by no pending completion task,
// is unlinked from its referencer and its page returned to the store's
// free-space map, in one atomic action.
//
// Safety rests on five conditions, each checked under latches:
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
//     tails, bounded by the number of key splits (counted, accepted).
//  3. NO TERMS: no level-1 term references the victim (retireNode removes
//     them, but never a node's LAST term; a survivor blocks the free).
//     Zero is absorbing: postTerm refuses to post terms for a Retired
//     child, and the parent-latch serialization of retireNode vs postTerm
//     means no in-flight posting can resurrect one after the removal pass
//     — so a clean check stays clean.
//  4. NO PENDING TASK: no completion task naming the victim is queued or
//     running (the completer keeps tasks pending until done): a running
//     posting may have found the victim live and be about to post its
//     term. A task scheduled later, from a stale snapshot, re-tests its
//     child latched (termPost.Verify) and finds it retired, its page free
//     or handed to a node the task does not describe: it posts nothing.
//  5. QUIESCED EDGE: the cut holds the referencer X and the victim X to
//     commit. Traversals latch-couple history edges under Reclaim
//     (pitree.Step, carryRepair), so a reader either passes the referencer
//     before the cut — and then holds the victim's latch, which the
//     reaper's X acquisition waits out — or arrives after and finds the
//     edge gone. The X hold on the referencer also freezes HistShared
//     (only a key split of the chain head can set it) and stops new
//     noteHistSibling tasks from being scheduled against the victim
//     (scheduling requires reading the referencer).
//
// Snapshot safety is inherited from GC's horizon argument: a victim was
// retired because its whole time range lies below the visibility horizon,
// and no live snapshot ever enters such a node (see gc.go). Readers below
// the horizon (explicit GetAsOf at ancient times) already read truncated
// history from retirement; reclamation only changes whether the empty
// node they would have visited still exists, and the coupled walk makes
// the visit-or-stop decision atomic with the cut.
//
// Crash consistency: the cut (KindCutHist, undone from its logged header) and the free
// (the store's meta records) are one atomic action — redo replays both,
// an incomplete action undoes both, so a page is free if and only if it
// is unlinked.

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
	if !t.opts.Reclaim {
		return 0, nil
	}
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
// data latch so ranks stay ascending), then the cut action itself.
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

	// Episode 3: the cut. Latch the referencer U, re-verify the edge,
	// promote to X (§4.1.1: before any lower latch, so coupled readers
	// drain downward), then latch the victim X and free it.
	o := t.kern.NewOp(nil)
	defer o.Done()
	prev, err := o.Acquire(prevPid, latch.U, 0)
	if err != nil {
		return 0, err
	}
	if prev.N.HistSib != tailPid {
		// The chain changed shape since the walk (only the head can, via
		// a concurrent time split); retry on the next pass.
		o.Release(&prev)
		return 0, nil
	}
	if prev.N.HistShared {
		o.Release(&prev)
		t.Stats.GCSharedSkips.Add(1)
		return 0, nil
	}
	o.Promote(&prev)
	// With the sole incoming edge X-held, no new task can be scheduled
	// against the victim (noteHistSibling reads the referencer under its
	// latch); a task already pending or running defers the free.
	if t.refsChild(tailPid) {
		o.Release(&prev)
		t.Stats.GCDeferredFrees.Add(1)
		return 0, nil
	}
	tail, err := o.Acquire(tailPid, latch.X, 0)
	if err != nil {
		o.Release(&prev)
		return 0, err
	}
	if !tail.N.Retired || tail.N.HistSib != storage.NilPage || tail.N.Len() != 0 {
		o.Release(&tail, &prev)
		return 0, nil
	}

	err = o.Atomic(func(aa *txn.Txn) error {
		o.Hold(&prev, &tail)
		lsn := aa.LogUpdate(t.store.Pool.StoreID, uint64(prev.Pid()), KindCutHist, encCutHist(prev.N))
		applyCutHist(prev.N)
		prev.F.MarkDirty(lsn)
		if err := t.store.Free(aa, &o.Tr, tailPid); err != nil {
			return err
		}
		return t.store.Pool.Probe(storage.FPConsolidate)
	})
	if err != nil {
		return 0, err
	}
	t.Stats.GCFreedPages.Add(1)
	return 1, nil
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
// first, S-latched one at a time — coupled along the edge under Reclaim
// (pitree.Kernel.Step).
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
