package core

import (
	"errors"

	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
)

// errAbandoned ends a consolidating action whose last re-test, made with
// the action already begun, found nothing to do: the action is aborted
// empty and the attempt counts as a no-op.
var errAbandoned = errors.New("core: consolidation abandoned")

// freeNode de-allocates the X-latched victim as part of aa, marking it
// dead first under strategy (b): the bumped state identifier lets saved-
// path verification prove the de-allocation happened (§5.2.2(b)).
func (t *Tree) freeNode(o *opCtx, aa *txn.Txn, victim *nref) error {
	if t.opts.DeallocIsUpdate {
		lsn := aa.LogUpdate(t.store.Pool.StoreID, uint64(victim.Pid()), KindMarkDead, nil)
		victim.N.Dead = true
		victim.F.MarkDirty(lsn)
	}
	return t.store.Free(aa, &o.Tr, victim.Pid())
}

// consolidate attempts to absorb an under-utilized node into an adjacent
// node at the same level (§3.3, §5): contents always move from the
// contained node into its containing node, the contained node's index
// term is deleted from their (single, shared) parent, and the contained
// node is de-allocated — all in ONE atomic action spanning two levels.
//
// The preconditions of §3.3 are re-tested under latches before anything
// changes: both nodes must be referenced by index terms in the same
// parent node, and the contained node only by that parent (B-link nodes
// never have multiple parents, so the second condition is structural
// here; the multi-attribute tree in internal/spatial has to check its
// multi-parent marks).
func (t *Tree) consolidate(task consolidateTask) {
	if !t.opts.Consolidation {
		return
	}
	t.Stats.ConsolidateTries.Add(1)
	_ = t.kern.RetryLoop(nil, func(o *opCtx) error {
		parent, err := t.descendTo(o, task.low, task.level+1, latch.U, false, nil)
		if err != nil {
			if errors.Is(err, errLevelGone) {
				return nil
			}
			return err
		}

		// Locate the task's index term; its node is the merge seed.
		i, exact := parent.N.search(task.low)
		if !exact || parent.N.entry(i).Child != task.pid {
			o.Release(&parent)
			return nil // already consolidated or never posted: obsolete
		}
		// Promote the parent before latching any child (§4.1.1 promotion
		// rule); the whole batched sweep below runs under this one X hold,
		// which is what amortizes the parent pin+latch over several merges.
		o.Promote(&parent)

		// Batched sweep: starting one term left of the seed, try adjacent
		// pairs under the single parent hold. A committed merge keeps the
		// index in place (the removed term shifted its successor in); a
		// skipped pair moves right. Both the merge count and the probe
		// count are bounded so one sweep cannot monopolize the parent.
		budget := mergeBatch
		merges, probes := 0, 0
		idx := i - 1
		if idx < 0 {
			idx = 0
		}
		for idx+1 < parent.N.Len() && merges < budget && probes < 2*budget {
			probes++
			merged, stop, err := t.tryMerge(o, &parent, idx, idx+1)
			if err != nil {
				o.Release(&parent)
				return err
			}
			if stop {
				break
			}
			if merged {
				merges++
			} else {
				idx++
			}
		}

		parentEntries := parent.N.Len()
		parentIsRoot := parent.Pid() == t.root
		parentPid := parent.Pid()
		parentLow := keys.Clone(parent.N.Low)
		parentLevel := parent.N.Level
		// A sweep cut short — batch budget, probe cap, or move-lock
		// contention — may leave qualifying pairs behind, and nothing
		// re-triggers them: the drained leaves' deletes are done, so without
		// a continuation the remainder is stranded until the next structure
		// change happens to land under this parent (under churn: never).
		// Re-seed a task at the stopping position; a task only reschedules
		// after freeing at least one node, so the chain terminates.
		if merges > 0 && idx+1 < parent.N.Len() {
			e := parent.N.entry(idx)
			t.scheduleConsolidate(consolidateTask{level: task.level, low: keys.Clone(e.Key), pid: e.Child})
		}
		o.Release(&parent)

		if merges == 0 {
			return nil
		}
		if merges > 1 {
			t.Stats.MergeBatches.Add(1)
		}
		// Escalate (§5: "Consolidation of index terms can lead to further
		// node consolidation, escalating tree changes to the next level").
		if parentIsRoot {
			if parentEntries == 1 {
				t.scheduleRootShrink()
			}
		} else if parentEntries < minEntries(t.opts.IndexCapacity) {
			t.scheduleConsolidate(consolidateTask{level: parentLevel, low: parentLow, pid: parentPid})
		}
		return nil
	})
}

// tryMerge merges parent's children at term positions bIdx (container)
// and cIdx (contained) if every §3.3 precondition still holds. It reports
// whether a merge was committed and whether the caller's sweep should
// stop (move-lock contention: the action's pages are busy and further
// pairs under this parent will likely hit the same transactions). The
// parent stays latched in every case — the caller owns its release — so
// one parent visit can try several pairs.
func (t *Tree) tryMerge(o *opCtx, parent *nref, bIdx, cIdx int) (merged, stop bool, err error) {
	// The terms are read as views: cEntry's key is logged (copied) before
	// its term is deleted, the last use of either.
	bEntry := parent.N.entry(bIdx)
	cEntry := parent.N.entry(cIdx)
	level := parent.N.Level - 1
	capacity := t.opts.IndexCapacity
	if level == 0 {
		capacity = t.opts.LeafCapacity
	}

	// Latch-and-promote strictly TOP-DOWN, honoring the §4.1.1 promotion
	// rule: each node is promoted to X while no higher-ordered latch is
	// held, so the coupled readers the promotion waits out can always
	// drain downward through latches we have not taken yet. (Promoting
	// the parent while already holding a child's U latch deadlocks with a
	// reader that holds parent-S and waits for that child — the exact
	// cycle the rule exists to prevent.) The caller promoted the parent.
	b, err := o.Acquire(bEntry.Child, latch.U, level)
	if err != nil {
		return false, true, err
	}
	structOK := !b.N.Dead && b.N.Right == cEntry.Child &&
		!b.N.High.Unbounded && keys.Equal(b.N.High.Key, cEntry.Key)
	if !structOK {
		o.Release(&b)
		return false, false, nil
	}
	o.Promote(&b)
	c, err := o.Acquire(cEntry.Child, latch.U, level)
	if err != nil {
		o.Release(&b)
		return false, true, err
	}
	threshold := minEntries(capacity)
	ok := !c.N.Dead && keys.Equal(c.N.Low, cEntry.Key) &&
		b.N.Len()+c.N.Len() <= capacity &&
		(b.N.Len() < threshold || c.N.Len() < threshold)
	if !ok {
		o.Release(&c, &b)
		return false, false, nil
	}
	o.Promote(&c)

	bLen, cLen := b.N.Len(), c.N.Len()
	// An index container's last own term, read while it is latched: the
	// action releases b, and the cascade below starts from this junction.
	var junction consolidateTask
	if level > 0 {
		j := b.N.entry(bLen - 1)
		junction = consolidateTask{level: level - 1, low: keys.Clone(j.Key), pid: j.Child}
	}
	err = o.Atomic(func(aa *txn.Txn) error {
		o.Hold(&b, &c)
		if level == 0 && t.binding.PageOriented() {
			// Records move between pages: the move lock must exclude every
			// transaction with undoable updates on either page. TryLock only —
			// holding three latches while waiting for locks would break the
			// No-Wait rule; contention simply defers the consolidation.
			if !aa.TryLock(t.pageLockName(b.Pid()), lock.MV) ||
				!aa.TryLock(t.pageLockName(c.Pid()), lock.MV) {
				return errAbandoned
			}
		}
		lsn := aa.LogUpdate(t.store.Pool.StoreID, uint64(b.Pid()), KindConsolidateMove, encConsolidateMove(c.Pid(), encNodeImage(c.N)))
		b.N.absorb(c.N)
		b.N.High = c.N.High
		b.N.Right = c.N.Right
		b.F.MarkDirty(lsn)

		if err := t.freeNode(o, aa, &c); err != nil {
			return err
		}
		if err := t.store.Pool.Probe(storage.FPConsolidate); err != nil {
			return err
		}
		// The parent is changed last, once nothing can fail any more: it
		// stays latched by the caller's sweep, so an abort's undo — which
		// X-latches every page it compensates — must never reach it.
		lsn = aa.LogUpdate(t.store.Pool.StoreID, uint64(parent.Pid()), KindRemoveIndexTerm, encTerm(cEntry.Key, cEntry.Child))
		parent.N.recs.Delete(cIdx)
		parent.F.MarkDirty(lsn)
		return nil
	})
	if err != nil {
		if err == errAbandoned {
			err = nil
		}
		return false, true, err
	}
	t.Stats.Consolidations.Add(1)
	if level == 0 {
		t.Stats.NoteLeafUtil(bLen, bLen+cLen, capacity)
		t.Stats.NoteLeafUtil(cLen, -1, capacity)
	} else {
		// Downward cascade, the counterpart of the upward escalation: the
		// absorbing index node now holds the absorbed node's child terms
		// adjacent to its own, so children separated by the old node
		// boundary can pair up for the first time. Nothing else re-triggers
		// them — their deletes are long done — so under sustained churn
		// each index merge would otherwise strand one under-filled child
		// per junction. Seed a task at the junction's left term.
		t.scheduleConsolidate(junction)
	}
	return true, false, nil
}

// shrinkRoot reduces tree height by absorbing the root's single remaining
// child, when that child is the only node of its level. The root page
// itself never moves and is never de-allocated (§5.2.2 depends on that),
// so the absorption rewrites the root in place.
func (t *Tree) shrinkRoot() {
	if !t.opts.Consolidation {
		return
	}
	_ = t.kern.RetryLoop(nil, func(o *opCtx) error {
		root, err := o.Acquire(t.root, latch.U, maxLevel)
		if err != nil {
			return err
		}
		if root.N.IsLeaf() || root.N.Len() != 1 {
			o.Release(&root)
			return nil
		}
		childPid := root.N.entry(0).Child
		child, err := o.Acquire(childPid, latch.U, root.N.Level-1)
		if err != nil {
			o.Release(&root)
			return err
		}
		if child.N.Dead || child.N.Right != storage.NilPage || !child.N.High.Unbounded {
			o.Release(&child, &root)
			return nil
		}
		// Top-down promotion per §4.1.1: the child's U latch would block
		// the root promotion's reader drain, so the root must be X before
		// the child is latched for good. Drop the child, promote the root,
		// re-latch and re-verify the child.
		o.Release(&child)
		o.Promote(&root)
		if root.N.Len() != 1 || root.N.entry(0).Child != childPid {
			o.Release(&root)
			return nil
		}
		err = o.Atomic(func(aa *txn.Txn) error {
			o.Hold(&root)
			if root.N.Level == 1 && t.binding.PageOriented() && !aa.TryLock(t.pageLockName(childPid), lock.MV) {
				return errAbandoned
			}
			child, err := o.Acquire(childPid, latch.U, root.N.Level-1)
			if err != nil {
				return err
			}
			o.Hold(&child)
			if child.N.Dead || child.N.Right != storage.NilPage || !child.N.High.Unbounded {
				return errAbandoned
			}
			o.Promote(&child)

			absorbed := child.N
			lsn := aa.LogUpdate(t.store.Pool.StoreID, uint64(t.root), KindRootShrink, encRootShrink(absorbed, root.N))
			root.N.Level = absorbed.Level
			root.N.recs = absorbed.recs.Clone()
			root.N.High = absorbed.High
			root.N.Right = absorbed.Right
			root.F.MarkDirty(lsn)
			if err := t.freeNode(o, aa, &child); err != nil {
				return err
			}
			return t.store.Pool.Probe(storage.FPConsolidate)
		})
		if err != nil {
			if err == errAbandoned {
				err = nil
			}
			return err
		}
		t.Stats.RootShrinks.Add(1)
		return nil
	})
}
