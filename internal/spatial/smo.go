package spatial

import (
	"sort"

	"repro/internal/latch"
	"repro/internal/pitree"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
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
		return t.kern.Split(o, aa, leaf, &planeCut{t: t, alongX: alongX, coord: coord})
	})
}

// planeCut is the tree's one split (pitree.Cut), of a data node and of an
// index node alike: the part of the node's direct region beyond the
// hyperplane is delegated to a fresh sibling through a sibling term
// (§3.2.1), an index node's spanning terms clipped into both halves
// (§3.2.2). The record (KindSplitOff) carries the plane, the sibling and
// the index terms' fates; its undo absorbs the sibling back
// (KindAbsorbSib).
type planeCut struct {
	t      *Tree
	alongX bool
	coord  uint64
	// Set by Sibling: the node's level, the clipped terms and the
	// sibling's region.
	level, clipped int
	off            Rect
}

func (*planeCut) Kind() wal.Kind { return KindSplitOff }

func (c *planeCut) Sibling(n *Node, sib storage.PageID) (*Node, []byte) {
	kept, off := n.Direct.Split(c.alongX, c.coord)
	entries, clipped := splitPick(n, kept, off, true)
	c.level, c.clipped, c.off = n.Level, clipped, off
	return &Node{Level: n.Level, Direct: off, recs: entries}, encSplitOff(c.alongX, c.coord, sib, splitFates(n, c.alongX, c.coord))
}

func (*planeCut) Apply(n *Node, payload []byte) error {
	alongX, coord, sib, _, err := decSplitOff(payload)
	if err == nil {
		applySplitOff(n, alongX, coord, sib)
	}
	return err
}

func (*planeCut) Undo(payload []byte, sibling func(storage.PageID) (*Node, []byte, error)) (storage.Compensation, error) {
	alongX, coord, pid, fates, err := decSplitOff(payload)
	var sib *Node
	var ret returning
	if err == nil {
		sib, _, err = sibling(pid)
	}
	if err == nil {
		ret, err = unsplitOff(fates, sib)
	}
	return storage.Compensation{Kind: KindAbsorbSib, Payload: encAbsorbSib(alongX, coord, pid, ret)}, err
}

func (c *planeCut) Done(_, _ *Node, grew bool) {
	st := &c.t.Stats
	switch {
	case grew:
		st.RootGrowths.Add(1)
	case c.level == 0:
		st.DataSplits.Add(1)
	default:
		st.IndexSplits.Add(1)
	}
	st.ClippedTerms.Add(int64(c.clipped))
}

// Post queues the posting of the sibling's index term, a separate action
// (§3.2.1 step 6).
func (c *planeCut) Post(_, sib storage.PageID) {
	c.t.schedule(postTask{parentLevel: c.level + 1, child: sib, rect: c.off})
}

// termPost is the tree's side of the kernel's posting action
// (pitree.Poster), the completing atomic action: post the child's index
// term in the parent on the search path of the child's low corner,
// splitting the parent (with clipping; the root grows in place) as needed.
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

// Key is the posting's search key: the child's low corner.
func (p *termPost) Key() Point { return p.corner() }

// Split chooses a plane that reduces the node. When none does (heavy
// clipping keeps spanning terms in both halves) the node grows past the
// fan-out rather than split unproductively — but never past the page.
// The root always splits: it grows in place.
func (p *termPost) Split(node *nref) (pitree.Cut[*Node], error) {
	t := p.t
	alongX, coord, ok := choosePlane(node.N)
	if ok && (node.Pid() == t.root || splitHelps(node.N, alongX, coord)) {
		return &planeCut{t: t, alongX: alongX, coord: coord}, nil
	}
	if !t.kern.Fits(node.N, termBytes) {
		return nil, pitree.ErrRecordTooLarge
	}
	t.Stats.SoftOverflows.Add(1)
	return nil, nil
}

func (p *termPost) Apply(_ *opCtx, aa *txn.Txn, node *nref) error {
	term := Entry{Rect: p.task.rect, Child: p.task.child}
	aa.LogUpdate(node.F, KindPostTerm, appendTerm(nil, term))
	node.N.insertAt(node.N.Len(), term)
	return nil
}
