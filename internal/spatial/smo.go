package spatial

import (
	"sort"

	"repro/internal/latch"
	"repro/internal/pitree"
	"repro/internal/storage"
	"repro/internal/txn"
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

// taskAbsorb is the kind of an absorb pass in the kernel queue; a
// posting's key is pitree.PostKey, the one Absorb asks the queue about.
const taskAbsorb = pitree.TaskPost + 1

func (t postTask) key() pitree.TaskKey {
	if t.absorb {
		return pitree.TaskKey{Kind: taskAbsorb}
	}
	return pitree.PostKey(t.parentLevel, t.child)
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

// run dispatches one completing task: an absorb pass or a term posting.
func (t *Tree) run(task postTask) {
	if task.absorb {
		_, _ = t.absorbPass()
		return
	}
	// Completing actions are best-effort: the intermediate state is
	// well-formed and a later traversal rediscovers an unposted sibling.
	posted, err := t.kern.Post(&termPost{t: t, task: task})
	switch {
	case err != nil:
		t.Stats.PostsFailed.Add(1)
	case posted:
		t.Stats.PostsPerformed.Add(1)
	default:
		t.Stats.PostsNoop.Add(1)
	}
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
		for i := 0; i < n.Len(); i++ {
			if n.IsData() {
				if p := n.pointAt(i); alongX {
					add(p.X)
				} else {
					add(p.Y)
				}
			} else {
				if r, _ := n.termAt(i); alongX {
					add(r.X0)
					add(r.X1)
				} else {
					add(r.Y0)
					add(r.Y1)
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
// sibling via a sibling term (§3.2.1).
func (t *Tree) splitNodeAction(o *opCtx, leaf *nref) error {
	if leaf.N.Len() == 0 {
		// Its sibling terms leave no room for the point, and a split
		// would only add one more.
		o.Release(leaf)
		return pitree.ErrRecordTooLarge
	}
	alongX, coord, ok := choosePlane(leaf.N)
	if !ok {
		o.Release(leaf)
		t.Stats.SoftOverflows.Add(1)
		return nil
	}
	o.Promote(leaf)
	return o.Atomic(func(aa *txn.Txn) error {
		o.Hold(leaf)
		_, _, err := t.splitOff(o, aa, leaf, alongX, coord)
		return err
	})
}

// splitOff delegates the part of the X-latched node's direct region
// beyond the hyperplane to a fresh sibling, as part of the action aa: the
// one split of a data node and of an index node alike (an index node's
// spanning terms are clipped into both halves, §3.2.2). The posting of the
// sibling's index term, a separate action (§3.2.1 step 6), is queued when
// and only when aa commits: a completing action must never post a term
// for a page whose creation is then undone. Returns the sibling's page
// and region.
func (t *Tree) splitOff(o *opCtx, aa *txn.Txn, node *nref, alongX bool, coord uint64) (storage.PageID, Rect, error) {
	n := node.N
	sibPid, err := t.store.Alloc(aa, &o.Tr)
	if err != nil {
		return storage.NilPage, Rect{}, err
	}
	// The sibling's contents are copied out while the node is still whole:
	// the node changes only once its own record is logged, after a format
	// that can fail.
	entries, off, clipped := splitOffContents(n, alongX, coord)
	sib := &Node{Level: n.Level, Direct: off, recs: entries}
	if err := t.kern.Format(o, aa, sibPid, sib); err != nil {
		return storage.NilPage, Rect{}, err
	}
	aa.LogUpdate(node.F, KindSplitOff, encSplitOff(alongX, coord, sibPid, splitFates(n, alongX, coord)))
	applySplitOff(n, alongX, coord, sibPid)
	if n.IsData() {
		t.Stats.DataSplits.Add(1)
	} else {
		t.Stats.IndexSplits.Add(1)
	}
	t.Stats.ClippedTerms.Add(int64(clipped))
	up := postTask{parentLevel: n.Level + 1, child: sibPid, rect: off}
	aa.OnCommit(func() { t.schedule(up) })
	return sibPid, off, nil
}

// termPost is the tree's side of the kernel's posting action
// (pitree.Poster), the completing atomic action: post the child's index
// term in the parent on the search path of the child's low corner,
// splitting the parent (with clipping) or growing the root as needed.
type termPost struct {
	t    *Tree
	task postTask
}

func (p *termPost) corner() Point { return Point{X: p.task.rect.X0, Y: p.task.rect.Y0} }

func (p *termPost) Search(o *opCtx) (nref, error) {
	return p.t.descend(o, p.corner(), p.task.parentLevel, latch.U, false)
}

// Verify: a task scheduled from a stale optimistic snapshot can name a
// page the absorber has since freed, and the store may have handed the
// page to a new node; the kernel re-tests it latched
// (pitree.Kernel.Responsible), so a term is posted only for a child
// responsible for the task's rectangle.
func (p *termPost) Verify(o *opCtx, node *nref) (bool, error) {
	if _, posted := node.N.termFor(p.task.child); posted {
		return false, nil
	}
	return p.t.kern.Responsible(o, p.task.child, p.task.parentLevel-1, func(n *Node) bool {
		return coveredBy(p.task.rect, n)
	})
}

// Full: the fan-out is reached, or the term would not fit in the page.
func (p *termPost) Full(n *Node) bool {
	return n.Len() >= p.t.opts.IndexCapacity || !p.t.kern.Fits(n, termBytes)
}

func (p *termPost) Split(o *opCtx, aa *txn.Txn, node *nref) (storage.PageID, error) {
	t := p.t
	alongX, coord, ok := choosePlane(node.N)
	if !ok || (node.Pid() != t.root && !splitHelps(node.N, alongX, coord)) {
		// No cut reduces this node (heavy clipping keeps spanning terms
		// in both halves): grow past the fan-out rather than split
		// unproductively — but never past the page.
		if !t.kern.Fits(node.N, termBytes) {
			return storage.NilPage, pitree.ErrRecordTooLarge
		}
		t.Stats.SoftOverflows.Add(1)
		return storage.NilPage, nil
	}
	kept, sib, off, err := node.Pid(), storage.NilPage, Rect{}, error(nil)
	if node.Pid() == t.root {
		kept, sib, off, err = t.splitRoot(o, aa, node, alongX, coord)
	} else {
		sib, off, err = t.splitOff(o, aa, node, alongX, coord)
	}
	if err != nil || !off.Contains(p.corner()) {
		return kept, err
	}
	return sib, nil
}

func (p *termPost) Apply(_ *opCtx, aa *txn.Txn, node *nref) error {
	term := Entry{Rect: p.task.rect, Child: p.task.child}
	aa.LogUpdate(node.F, KindPostTerm, appendTerm(nil, term))
	node.N.insertAt(node.N.Len(), term)
	return nil
}

// splitRoot splits the X-latched root at the hyperplane without moving it:
// its contents go to two new nodes — B, the sibling a split there would
// create, and A, what that split would leave behind, sibling term for B
// included — and the kernel grows the root in place over a term for each
// (pitree.Kernel.Grow). It returns A's page, B's page and B's region.
func (t *Tree) splitRoot(o *opCtx, aa *txn.Txn, root *nref, alongX bool, coord uint64) (pidA, pidB storage.PageID, off Rect, err error) {
	if pidB, err = t.store.Alloc(aa, &o.Tr); err == nil {
		pidA, err = t.store.Alloc(aa, &o.Tr)
	}
	if err != nil {
		return storage.NilPage, storage.NilPage, Rect{}, err
	}
	entries, off, clipped := splitOffContents(root.N, alongX, coord)
	b := &Node{Level: root.N.Level, Direct: off, recs: entries}
	a := root.N.clone()
	applySplitOff(a, alongX, coord, pidB)
	terms := appendTerm(appendTerm(nil, Entry{Rect: a.Direct, Child: pidA}), Entry{Rect: off, Child: pidB})
	if err := t.kern.Grow(o, aa, root, pidA, pidB, a, b, terms); err != nil {
		return storage.NilPage, storage.NilPage, Rect{}, err
	}
	t.Stats.RootGrowths.Add(1)
	t.Stats.ClippedTerms.Add(int64(clipped))
	return pidA, pidB, off, nil
}
