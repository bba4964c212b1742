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

// consolidate attempts to absorb under-utilized nodes into adjacent
// nodes at the same level (§3.3, §5): contents always move from the
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
//
// The task names an index term. A sweep tries it with the term before it
// as the container, then moves right along the parent, one action per
// pair, each latching the parent afresh (merge.Survivors).
func (t *Tree) consolidate(task consolidateTask) {
	if !t.opts.Consolidation {
		return
	}
	t.Stats.ConsolidateTries.Add(1)
	m := &merge{t: t, c: task, capacity: t.capacity(task.level)}
	merges := 0
	_ = t.kern.RetryLoop(nil, func(o *opCtx) error {
		n, err := m.sweep(o, mergeBatch-merges)
		merges += n
		return err
	})
	if merges == 0 {
		return
	}
	if merges > 1 {
		t.Stats.MergeBatches.Add(1)
	}
	// A sweep cut short — batch budget, probe cap, a failed parent re-test
	// or move-lock contention — may leave qualifying pairs behind, and
	// nothing re-triggers them: the drained leaves' deletes are done, so
	// without a continuation the remainder is stranded until the next
	// structure change happens to land under this parent (under churn:
	// never). Re-seed a task at the stopping position; a task only
	// reschedules after freeing at least one node, so the chain terminates.
	if m.c.pid != storage.NilPage {
		t.scheduleConsolidate(m.c)
	}
	// Escalate (§5: "Consolidation of index terms can lead to further
	// node consolidation, escalating tree changes to the next level"),
	// from the parent as the last merge left it.
	if m.up.pid == t.root {
		if m.upLen == 1 {
			t.scheduleRootShrink()
		}
	} else if m.upLen < minEntries(t.opts.IndexCapacity) {
		t.scheduleConsolidate(m.up)
	}
}

// merge is consolidate's side of the consolidation action
// (pitree.Absorber), one pair per action: the contained node c, named by
// the parent's term cIdx, moves into its containing node b, term cIdx-1,
// and c's term leaves the parent. The parent, b and c are held to the
// action's end, so an abort's undo finds every page it compensates
// latched already. The terms are read as views: the parent is X-latched
// throughout, and cIdx's key is logged (copied) before its term is
// deleted, the last use of either.
type merge struct {
	t        *Tree
	capacity int
	// c is the pair to try next, by its contained term; NilPage when the
	// sweep reached the parent's last term. next is the term after the
	// pair being tried, read under the parent's latch.
	c, next consolidateTask
	// stop: the parent no longer holds c's term, or a move lock was not
	// free; the sweep ends.
	stop bool

	parent, b nref
	cIdx      int
	// bLen and cLen are b's and c's fills (t.fill), merged b's once it
	// has taken c in.
	bLen, cLen, merged int
	// junction is an index container's last own term, read while it is
	// latched: the cascade starts from it.
	junction consolidateTask
	// up is the parent as a consolidation task, and upLen its terms, as
	// the last merge left them: the escalation starts from it.
	up    consolidateTask
	upLen int
}

// sweep tries m's pairs left to right, one consolidation action each
// (pitree.Kernel.Absorb), until budget merges, twice as many tries, the
// parent's last term or a stop. A committed merge keeps the container
// (the removed term's successor shifted in); a skipped pair moves right.
// It returns the merges committed, and leaves m.c at the pair it did not
// try.
func (m *merge) sweep(o *opCtx, budget int) (merges int, err error) {
	t := m.t
	for probes := 0; m.c.pid != storage.NilPage && merges < budget && probes < 2*budget; probes++ {
		freed, err := t.kern.Absorb(o, m)
		if err != nil || m.stop {
			return merges, err
		}
		if freed {
			merges++
			t.Stats.Consolidations.Add(1)
			if m.c.level == 0 {
				t.Stats.NoteLeafUtil(m.bLen, m.merged, m.capacity)
				t.Stats.NoteLeafUtil(m.cLen, -1, m.capacity)
			} else {
				// Downward cascade, the counterpart of the upward
				// escalation: the absorbing index node now holds the
				// absorbed node's child terms adjacent to its own, so
				// children separated by the old node boundary can pair up
				// for the first time. Nothing else re-triggers them —
				// their deletes are long done — so under sustained churn
				// each index merge would otherwise strand one under-filled
				// child per junction. Seed a task at the junction's left
				// term.
				t.scheduleConsolidate(m.junction)
			}
		}
		m.c = m.next
	}
	return merges, nil
}

// Survivors re-finds the parent by a descent to c's key — a parent
// remembered by page id cannot be proven allocated (§5.2.2, strategy (a))
// — latches it U, and re-tests that it still holds c's term after
// another; it promotes the parent before latching b U, re-tests that b's
// side pointer and high key still lead to c, and promotes b — top-down,
// so coupled readers drain downward through latches not yet taken
// (§4.1.1).
func (m *merge) Survivors(o *opCtx) (victim storage.PageID, level int, err error) {
	t, level := m.t, m.c.level
	m.stop = true
	if m.parent, err = t.descendTo(o, m.c.low, level+1, latch.U, false, nil); err != nil {
		if errors.Is(err, errLevelGone) {
			err = nil
		}
		return storage.NilPage, 0, err
	}
	o.Hold(&m.parent)
	p := m.parent.N
	i, exact := p.search(m.c.low)
	if !exact || p.entry(i).Child != m.c.pid || p.Len() < 2 {
		return storage.NilPage, 0, nil
	}
	m.stop = false
	// The task's term may be the parent's first: it is then the container.
	m.cIdx = max(i, 1)
	m.next = consolidateTask{}
	if m.cIdx+1 < p.Len() {
		e := p.entry(m.cIdx + 1)
		m.next = consolidateTask{level: level, low: keys.Clone(e.Key), pid: e.Child}
	}
	o.Promote(&m.parent)
	bEntry, cEntry := p.entry(m.cIdx-1), p.entry(m.cIdx)
	if m.b, err = o.Acquire(bEntry.Child, latch.U, level); err != nil {
		return storage.NilPage, 0, err
	}
	o.Hold(&m.b)
	if m.b.N.Dead || m.b.N.Right != cEntry.Child || m.b.N.High.Unbounded || !keys.Equal(m.b.N.High.Key, cEntry.Key) {
		return storage.NilPage, 0, nil
	}
	o.Promote(&m.b)
	return cEntry.Child, level, nil
}

// Victim: c still starts at its term's key, and together the two fit in
// one node of which at least one is under-utilized.
func (m *merge) Victim(c *Node) bool {
	t, b := m.t, m.b.N
	m.bLen, m.cLen = t.fill(b), t.fill(c)
	// b takes c's records, and c's high bound for its own.
	grow := c.recs.Size() + len(c.High.Key) - len(b.High.Key)
	m.merged = m.bLen + m.cLen
	if t.byBytes(m.c.level) {
		m.merged = m.bLen + grow
	}
	threshold := minEntries(m.capacity)
	return !c.Dead && keys.Equal(c.Low, m.parent.N.entry(m.cIdx).Key) &&
		m.merged <= m.capacity && t.kern.Fits(b, grow) && (m.bLen < threshold || m.cLen < threshold)
}

func (m *merge) Cut(aa *txn.Txn, c *nref) (bool, error) {
	t, b, p := m.t, &m.b, &m.parent
	if m.c.level == 0 && t.binding.PageOriented() {
		// Records move between pages: the move lock must exclude every
		// transaction with undoable updates on either page. TryLock only —
		// holding three latches while waiting for locks would break the
		// No-Wait rule; contention ends the sweep.
		if !aa.TryLock(t.pageLockName(b.Pid()), lock.MV) || !aa.TryLock(t.pageLockName(c.Pid()), lock.MV) {
			m.stop = true
			return false, nil
		}
	}
	if m.c.level > 0 {
		j := b.N.entry(m.bLen - 1)
		m.junction = consolidateTask{level: m.c.level - 1, low: keys.Clone(j.Key), pid: j.Child}
	}
	aa.LogUpdate(b.F, KindConsolidateMove, encConsolidateMove(c.Pid(), encNodeImage(c.N)))
	b.N.absorb(c.N)
	b.N.High = c.N.High
	b.N.Right = c.N.Right
	e := p.N.entry(m.cIdx)
	aa.LogUpdate(p.F, KindRemoveIndexTerm, appendTerm(nil, e.Key, e.Child))
	p.N.recs.Delete(m.cIdx)
	t.markDead(aa, c)
	m.up = consolidateTask{level: p.N.Level, low: keys.Clone(p.N.Low), pid: p.Pid()}
	m.upLen = p.N.Len()
	return true, nil
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
