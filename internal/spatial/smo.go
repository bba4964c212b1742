package spatial

import (
	"sort"

	"repro/internal/latch"
	"repro/internal/pitree"
	"repro/internal/storage"
)

// postTask asks for the index term describing child (responsible for
// rect) to be posted at parentLevel, in the parent on the search path of
// rect's low corner. Other parents of a clipped child are updated when
// their own search paths traverse the sibling pointer (§3.2.2).
//
// A task with absorb set instead requests one background consolidation
// pass (Options.Reclaim): all such requests collapse into a single
// pending task, since a pass sweeps every candidate anyway.
type postTask struct {
	parentLevel int
	child       storage.PageID
	rect        Rect
	absorb      bool
}

// Completing-action kinds, for the kernel queue's duplicate folding.
const (
	taskPost uint8 = iota + 1
	taskAbsorb
)

func (t postTask) key() pitree.TaskKey {
	if t.absorb {
		return pitree.TaskKey{Kind: taskAbsorb}
	}
	return pitree.TaskKey{Kind: taskPost, Level: t.parentLevel, Pid: t.child}
}

// completer is the kernel's completion queue carrying this tree's tasks.
type completer = pitree.Queue[postTask]

func newCompleter(t *Tree) *completer {
	return pitree.NewQueue(pitree.QueueConfig[postTask]{
		Run: t.run,
		// Absorb passes are maintenance: paced so background consolidation
		// never convoys foreground writers.
		Paced:    func(task postTask) bool { return task.absorb },
		Governor: t.opts.Governor,
		Workers:  t.opts.CompletionWorkers,
		Sync:     t.opts.SyncCompletion,
	})
}

// schedule queues a completing action; safe under latches.
func (t *Tree) schedule(task postTask) {
	if t.opts.NoCompletion {
		return
	}
	if t.comp.Schedule(task.key(), task) {
		t.Stats.PostsScheduled.Add(1)
	}
}

// refsChild reports whether a level-1 posting task referencing pid is
// queued or running. Data-node postings are the only tasks that can name
// a reclaimable page; the absorber defers freeing while one is live,
// because a running postTerm may be about to latch the page.
func (t *Tree) refsChild(pid storage.PageID) bool {
	return t.comp.Refs(postTask{parentLevel: 1, child: pid}.key())
}

// run dispatches one completing task: an absorb pass or a term posting.
func (t *Tree) run(task postTask) {
	if task.absorb {
		_, _ = t.absorbPass()
		return
	}
	t.postTerm(task)
}

// notePendingSib schedules the posting for a sibling term crossed during
// a traversal (lazy completion). The delegated rectangle IS the sibling's
// responsibility.
func (t *Tree) notePendingSib(n *Node, sib SibTerm) {
	t.schedule(postTask{parentLevel: n.Level + 1, child: sib.Pid, rect: sib.Rect})
}

// choosePlane picks a split hyperplane for the X-latched node: the wider
// axis first, at the median boundary coordinate of the node's contents,
// falling back to the other axis and then the geometric midpoint. ok is
// false only when the direct region cannot be cut (unit-width on both
// axes).
func choosePlane(n *Node) (alongX bool, coord uint64, ok bool) {
	d := n.Direct
	tryAxis := func(alongX bool) (uint64, bool) {
		lo, hi := d.Y0, d.Y1
		if alongX {
			lo, hi = d.X0, d.X1
		}
		if hi-lo < 2 {
			return 0, false
		}
		var cands []uint64
		seen := map[uint64]bool{}
		add := func(c uint64) {
			if c > lo && c < hi && !seen[c] {
				seen[c] = true
				cands = append(cands, c)
			}
		}
		for _, e := range n.Entries {
			if n.IsData() {
				if alongX {
					add(e.P.X)
				} else {
					add(e.P.Y)
				}
			} else {
				if alongX {
					add(e.Rect.X0)
					add(e.Rect.X1)
				} else {
					add(e.Rect.Y0)
					add(e.Rect.Y1)
				}
			}
		}
		if len(cands) == 0 {
			return lo + (hi-lo)/2, true // geometric midpoint
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
		return cands[len(cands)/2], true
	}
	wideX := d.X1-d.X0 >= d.Y1-d.Y0
	if c, ok := tryAxis(wideX); ok {
		return wideX, c, true
	}
	if c, ok := tryAxis(!wideX); ok {
		return !wideX, c, true
	}
	return false, 0, false
}

// splitNodeAction splits the U-latched data node as an independent
// atomic action: half of its direct region is delegated to a fresh
// sibling via a sibling term (§3.2.1), and the posting of the sibling's
// index term is scheduled as a separate action (step 6).
func (t *Tree) splitNodeAction(o *opCtx, leaf *nref) error {
	aa := t.tm.BeginAtomicAction()
	o.Promote(leaf)
	n := leaf.N
	alongX, coord, ok := choosePlane(n)
	if !ok {
		o.Release(leaf)
		_ = aa.Abort()
		t.Stats.SoftOverflows.Add(1)
		return nil
	}
	pre := n.clone()
	sibPid, err := t.store.Alloc(aa, &o.Tr)
	if err != nil {
		o.Release(leaf)
		_ = aa.Abort()
		return err
	}
	entries, off, clipped := splitOffContents(pre, alongX, coord)
	sib := &Node{Level: n.Level, Direct: off, Entries: entries}
	if err := t.logFormat(o, aa, sibPid, sib); err != nil {
		o.Release(leaf)
		_ = aa.Abort()
		return err
	}
	lsn := aa.LogUpdate(t.store.Pool.StoreID, uint64(leaf.Pid()), KindSplitOff, encSplitOff(alongX, coord, sibPid, pre))
	applySplitOff(n, alongX, coord, sibPid)
	leaf.F.MarkDirty(lsn)
	t.Stats.DataSplits.Add(1)
	t.Stats.ClippedTerms.Add(int64(clipped))

	cerr := aa.Commit()
	o.Release(leaf)
	if cerr != nil {
		return cerr
	}
	t.schedule(postTask{parentLevel: 1, child: sibPid, rect: off})
	return nil
}

// postTerm is the completing atomic action: post the child's index term
// in the parent on the search path of the child's low corner, splitting
// the parent (with clipping) or growing the root as needed. Latches are
// retained until the action commits.
func (t *Tree) postTerm(task postTask) {
	_ = t.kern.RetryLoop(nil, func(o *opCtx) error {
		// A task scheduled from a stale optimistic snapshot can name a
		// page the absorber already freed; posting a term for it (or for
		// whatever the recycled page now holds) would corrupt the index.
		if _, dead := t.deadPages.Load(task.child); dead {
			t.Stats.PostsNoop.Add(1)
			return nil
		}
		corner := Point{X: task.rect.X0, Y: task.rect.Y0}
		node, err := t.descend(o, corner, task.parentLevel, latch.U, false)
		if err != nil {
			if err == errLevelGone {
				t.Stats.PostsNoop.Add(1)
				return nil
			}
			return err
		}
		if _, posted := node.N.termFor(task.child); posted {
			t.Stats.PostsNoop.Add(1)
			o.Release(&node)
			return nil
		}

		aa := t.tm.BeginAtomicAction()
		var held []nref
		releaseAll := func() {
			o.Release(&node)
			for i := len(held) - 1; i >= 0; i-- {
				o.Release(&held[i])
			}
			held = nil
		}
		o.Promote(&node)

		for len(node.N.Entries) >= t.opts.IndexCapacity {
			alongX, coord, ok := choosePlane(node.N)
			if !ok || (node.Pid() != t.root && !splitHelps(node.N, alongX, coord)) {
				// No cut reduces this node (heavy clipping keeps spanning
				// terms in both halves): grow past nominal capacity
				// rather than split unproductively.
				t.Stats.SoftOverflows.Add(1)
				break
			}
			if node.Pid() == t.root {
				next, err := t.growRootAction(o, aa, &node, alongX, coord, corner)
				if err != nil {
					releaseAll()
					_ = aa.Abort()
					return err
				}
				held = append(held, node)
				node = next
				continue
			}
			pre := node.N.clone()
			sibPid, err := t.store.Alloc(aa, &o.Tr)
			if err != nil {
				releaseAll()
				_ = aa.Abort()
				return err
			}
			entries, off, clipped := splitOffContents(pre, alongX, coord)
			sib := &Node{Level: node.N.Level, Direct: off, Entries: entries}
			if err := t.logFormat(o, aa, sibPid, sib); err != nil {
				releaseAll()
				_ = aa.Abort()
				return err
			}
			lsn := aa.LogUpdate(t.store.Pool.StoreID, uint64(node.Pid()), KindSplitOff, encSplitOff(alongX, coord, sibPid, pre))
			applySplitOff(node.N, alongX, coord, sibPid)
			node.F.MarkDirty(lsn)
			t.Stats.IndexSplits.Add(1)
			t.Stats.ClippedTerms.Add(int64(clipped))
			t.schedule(postTask{parentLevel: node.N.Level + 1, child: sibPid, rect: off})
			if off.Contains(corner) {
				next, err := o.Acquire(sibPid, latch.X, node.N.Level)
				if err != nil {
					releaseAll()
					_ = aa.Abort()
					return err
				}
				held = append(held, node)
				node = next
			}
		}

		term := Entry{Rect: task.rect, Child: task.child}
		lsn := aa.LogUpdate(t.store.Pool.StoreID, uint64(node.Pid()), KindPostTerm, encTerm(term))
		node.N.Entries = append(node.N.Entries, term)
		node.F.MarkDirty(lsn)
		err = aa.Commit()
		releaseAll()
		if err != nil {
			return err
		}
		t.Stats.PostsPerformed.Add(1)
		return nil
	})
}

// logFormat creates and logs a fresh node image under the action.
func (t *Tree) logFormat(o *opCtx, aa storage.UpdateLogger, pid storage.PageID, n *Node) error {
	return o.Format(aa, pid, n, n.Level, KindFormat, encNodeImage(n))
}

// growRootAction raises the tree height: the root's contents move to two
// new nodes split by the hyperplane, the lower node carrying a sibling
// term for the upper, and the root becomes an index node one level up
// with a term for each half. Returns the half containing corner,
// X-latched.
func (t *Tree) growRootAction(o *opCtx, aa storage.UpdateLogger, root *nref, alongX bool, coord uint64, corner Point) (nref, error) {
	n := root.N
	pre := n.clone()
	pidB, err := t.store.Alloc(aa, &o.Tr)
	if err != nil {
		return nref{}, err
	}
	pidA, err := t.store.Alloc(aa, &o.Tr)
	if err != nil {
		return nref{}, err
	}
	entriesB, off, clippedB := splitOffContents(pre, alongX, coord)
	nodeB := &Node{Level: pre.Level, Direct: off, Entries: entriesB}

	var kept Rect
	if alongX {
		kept, _ = pre.Direct.SplitX(coord)
	} else {
		kept, _ = pre.Direct.SplitY(coord)
	}
	nodeA := &Node{Level: pre.Level, Direct: kept, Sibs: append([]SibTerm(nil), pre.Sibs...)}
	nodeA.Sibs = append(nodeA.Sibs, SibTerm{Rect: off, Pid: pidB})
	for _, e := range pre.Entries {
		switch {
		case !e.Rect.Intersects(off):
			nodeA.Entries = append(nodeA.Entries, e)
		case !e.Rect.Intersects(kept):
		default:
			c := e
			c.Clipped = true
			nodeA.Entries = append(nodeA.Entries, c)
		}
	}
	if err := t.logFormat(o, aa, pidB, nodeB); err != nil {
		return nref{}, err
	}
	if err := t.logFormat(o, aa, pidA, nodeA); err != nil {
		return nref{}, err
	}

	termA := Entry{Rect: kept, Child: pidA}
	termB := Entry{Rect: off, Child: pidB}
	lsn := aa.LogUpdate(t.store.Pool.StoreID, uint64(root.Pid()), KindRootGrow, encRootGrow(termA, termB, pre))
	n.Level++
	n.Entries = []Entry{termA, termB}
	n.Direct = FullSpace()
	n.Sibs = nil
	root.F.MarkDirty(lsn)
	t.Stats.RootGrowths.Add(1)
	t.Stats.ClippedTerms.Add(int64(clippedB))

	pid := pidA
	if off.Contains(corner) {
		pid = pidB
	}
	return o.Acquire(pid, latch.X, pre.Level)
}
