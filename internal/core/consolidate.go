package core

import (
	"errors"

	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
)

// markDead marks the X-latched victim dead as part of aa under strategy
// (b): the bumped state identifier lets saved-path verification prove the
// de-allocation happened (§5.2.2(b)).
func (t *Tree) markDead(aa *txn.Txn, victim *nref) {
	if t.opts.DeallocIsUpdate {
		aa.LogUpdate(victim.F, KindMarkDead, nil)
		victim.N.Dead = true
	}
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
// and cIdx (contained) if every §3.3 precondition still holds, as the
// kernel's consolidation action (pitree.Kernel.Absorb). It reports whether
// a merge was committed and whether the caller's sweep should stop
// (move-lock contention: the action's pages are busy and further pairs
// under this parent will likely hit the same transactions). The parent
// stays latched in every case — the caller owns its release — so one
// parent visit can try several pairs.
func (t *Tree) tryMerge(o *opCtx, parent *nref, bIdx, cIdx int) (merged, stop bool, err error) {
	m := &merge{t: t, parent: parent, bIdx: bIdx, cIdx: cIdx, level: parent.N.Level - 1}
	m.capacity = t.capacity(m.level)
	freed, err := t.kern.Absorb(o, m)
	if err != nil || m.busy {
		return false, true, err
	}
	if !freed {
		return false, false, nil
	}
	t.Stats.Consolidations.Add(1)
	if m.level == 0 {
		t.Stats.NoteLeafUtil(m.bLen, m.merged, m.capacity)
		t.Stats.NoteLeafUtil(m.cLen, -1, m.capacity)
	} else {
		// Downward cascade, the counterpart of the upward escalation: the
		// absorbing index node now holds the absorbed node's child terms
		// adjacent to its own, so children separated by the old node
		// boundary can pair up for the first time. Nothing else re-triggers
		// them — their deletes are long done — so under sustained churn
		// each index merge would otherwise strand one under-filled child
		// per junction. Seed a task at the junction's left term.
		t.scheduleConsolidate(m.junction)
	}
	return true, false, nil
}

// merge is tryMerge's side of the consolidation action (pitree.Absorber):
// the contained node c, named by the parent's term cIdx, moves into its
// containing node b, term bIdx, and c's term leaves the parent — last,
// since the parent stays latched by the caller's sweep. The terms are
// read as views: the parent is X-latched throughout, and cIdx's key is
// logged (copied) before its term is deleted, the last use of either.
type merge struct {
	t               *Tree
	parent          *nref
	bIdx, cIdx      int
	level, capacity int

	b nref
	// bLen and cLen are b's and c's fills (t.fill), merged b's once it
	// has taken c in.
	bLen, cLen, merged int
	// junction is an index container's last own term, read while it is
	// latched: the cascade starts from it.
	junction consolidateTask
	// busy: a move lock was not free; the sweep stops.
	busy bool
}

// Survivors latches b U, re-tests that its side pointer and high key
// still lead to c, and promotes it — top-down under the X parent, so
// coupled readers drain downward through latches not yet taken (§4.1.1).
func (m *merge) Survivors(o *opCtx) (victim storage.PageID, level int, err error) {
	bEntry, cEntry := m.parent.N.entry(m.bIdx), m.parent.N.entry(m.cIdx)
	if m.b, err = o.Acquire(bEntry.Child, latch.U, m.level); err != nil {
		return storage.NilPage, 0, err
	}
	o.Hold(&m.b)
	if m.b.N.Dead || m.b.N.Right != cEntry.Child || m.b.N.High.Unbounded || !keys.Equal(m.b.N.High.Key, cEntry.Key) {
		return storage.NilPage, 0, nil
	}
	o.Promote(&m.b)
	return cEntry.Child, m.level, nil
}

// Victim: c still starts at its term's key, and together the two fit in
// one node of which at least one is under-utilized.
func (m *merge) Victim(c *Node) bool {
	t, b := m.t, m.b.N
	m.bLen, m.cLen = t.fill(b), t.fill(c)
	// b takes c's records, and c's high bound for its own.
	grow := c.recs.Size() + len(c.High.Key) - len(b.High.Key)
	m.merged = m.bLen + m.cLen
	if t.byBytes(m.level) {
		m.merged = m.bLen + grow
	}
	threshold := minEntries(m.capacity)
	return !c.Dead && keys.Equal(c.Low, m.parent.N.entry(m.cIdx).Key) &&
		m.merged <= m.capacity && t.kern.Fits(b, grow) && (m.bLen < threshold || m.cLen < threshold)
}

func (m *merge) Cut(aa *txn.Txn, c *nref) (bool, error) {
	t, b := m.t, &m.b
	if m.level == 0 && t.binding.PageOriented() {
		// Records move between pages: the move lock must exclude every
		// transaction with undoable updates on either page. TryLock only —
		// holding three latches while waiting for locks would break the
		// No-Wait rule; contention simply defers the consolidation.
		if !aa.TryLock(t.pageLockName(b.Pid()), lock.MV) || !aa.TryLock(t.pageLockName(c.Pid()), lock.MV) {
			m.busy = true
			return false, nil
		}
	}
	if m.level > 0 {
		j := b.N.entry(m.bLen - 1)
		m.junction = consolidateTask{level: m.level - 1, low: keys.Clone(j.Key), pid: j.Child}
	}
	aa.LogUpdate(b.F, KindConsolidateMove, encConsolidateMove(c.Pid(), encNodeImage(c.N)))
	b.N.absorb(c.N)
	b.N.High = c.N.High
	b.N.Right = c.N.Right
	t.markDead(aa, c)
	return true, nil
}

// Last removes c's term from the parent.
func (m *merge) Last(aa *txn.Txn) {
	e := m.parent.N.entry(m.cIdx)
	aa.LogUpdate(m.parent.F, KindRemoveIndexTerm, appendTerm(nil, e.Key, e.Child))
	m.parent.N.recs.Delete(m.cIdx)
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
		freed, err := t.kern.Absorb(o, &rootShrink{t: t})
		if freed {
			t.Stats.RootShrinks.Add(1)
		}
		return err
	})
}

// rootShrink is shrinkRoot's side of the consolidation action
// (pitree.Absorber): the root, the one survivor, takes its only child's
// contents in place.
type rootShrink struct {
	t    *Tree
	root nref
}

// Survivors latches the root U and promotes it once it has one term: X
// before the child is latched at all, per §4.1.1.
func (s *rootShrink) Survivors(o *opCtx) (victim storage.PageID, level int, err error) {
	if s.root, err = o.Acquire(s.t.root, latch.U, maxLevel); err != nil {
		return storage.NilPage, 0, err
	}
	o.Hold(&s.root)
	if s.root.N.IsLeaf() || s.root.N.Len() != 1 {
		return storage.NilPage, 0, nil
	}
	o.Promote(&s.root)
	return s.root.N.entry(0).Child, s.root.N.Level - 1, nil
}

// Victim: the child is the only node of its level.
func (*rootShrink) Victim(child *Node) bool {
	return !child.Dead && child.Right == storage.NilPage && child.High.Unbounded
}

func (s *rootShrink) Cut(aa *txn.Txn, child *nref) (bool, error) {
	t, root := s.t, &s.root
	if child.N.IsLeaf() && t.binding.PageOriented() && !aa.TryLock(t.pageLockName(child.Pid()), lock.MV) {
		return false, nil
	}
	aa.LogUpdate(root.F, KindRootShrink, encRootShrink(child.N, root.N))
	root.N.Level = child.N.Level
	root.N.recs = child.N.recs.Clone()
	root.N.High = child.N.High
	root.N.Right = child.N.Right
	t.markDead(aa, child)
	return true, nil
}

func (*rootShrink) Last(*txn.Txn) {}
