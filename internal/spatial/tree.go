package spatial

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/enc"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/maint"
	"repro/internal/pitree"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Options configure one spatial tree.
type Options struct {
	// DataCapacity, when set (minimum 4), caps a data node at that many
	// points: small-node tests use it. At 0, the default, a data node is
	// full when the new point would not fit in its page
	// (pitree.Kernel.Fits). Either way a node never outgrows its page.
	DataCapacity int
	// IndexCapacity is an index node's fan-out in terms (default 64,
	// minimum 4); an index node also splits before it outgrows its page.
	IndexCapacity int
	// SyncCompletion and NoCompletion mirror the other trees'
	// lazy-completion controls.
	SyncCompletion bool
	NoCompletion   bool
	// PessimisticDescent disables the optimistic (version-validated)
	// interior navigation, forcing every descent through the latched
	// path. For comparison runs and targeted tests.
	PessimisticDescent bool
	// Reclaim makes empty data nodes mortal: a data node whose points are
	// all gone is re-absorbed by the sibling that delegated it and its
	// page returned to the store's free-space map (see absorb.go). The
	// pure-CNS one-latch-at-a-time discipline is selectively upgraded to
	// latch coupling on the edges a free can cut.
	Reclaim bool
	// Governor, if set, paces background absorb passes so maintenance
	// never convoys foreground writers. Nil means unpaced.
	Governor *maint.Governor
}

func (o Options) normalized() Options {
	if o.DataCapacity < 0 {
		o.DataCapacity = 0
	} else if o.DataCapacity > 0 && o.DataCapacity < 4 {
		o.DataCapacity = 4
	}
	if o.IndexCapacity <= 0 {
		o.IndexCapacity = 64
	}
	if o.IndexCapacity < 4 {
		o.IndexCapacity = 4
	}
	return o
}

// Stats counts spatial tree events.
type Stats struct {
	Inserts        atomic.Int64
	Deletes        atomic.Int64
	Searches       atomic.Int64
	RegionQueries  atomic.Int64
	DataSplits     atomic.Int64
	IndexSplits    atomic.Int64
	RootGrowths    atomic.Int64
	SideTraversals atomic.Int64
	PostsScheduled atomic.Int64
	PostsPerformed atomic.Int64
	PostsNoop      atomic.Int64
	PostsFailed    atomic.Int64 // posting actions ended by an error
	ClippedTerms   atomic.Int64
	SoftOverflows  atomic.Int64
	Restarts       atomic.Int64

	// Optimistic descent counters: hits are interior-node visits served
	// from a validated snapshot without latching; retries are snapshot
	// refreshes or validation failures; fallbacks are whole descents
	// abandoned to the latched path.
	OptimisticHits      atomic.Int64
	OptimisticRetries   atomic.Int64
	OptimisticFallbacks atomic.Int64

	// Consolidation (Options.Reclaim) counters: Absorbs counts freed
	// empty data nodes; AbsorbMultiParent counts absorbs refused by the
	// §3.3 constraint (a clipped term marks a possibly multi-parent
	// child); AbsorbDeferred counts absorbs put off because the victim's
	// term is unposted or a completion task still names it.
	Absorbs           atomic.Int64
	AbsorbMultiParent atomic.Int64
	AbsorbDeferred    atomic.Int64
}

// Tree is one multi-attribute Π-tree. Nodes are immortal by default (no
// consolidation is performed), so the CNS invariant governs traversals;
// under Options.Reclaim, empty data nodes are absorbed and freed, and the
// edges that can be cut are traversed with latch coupling instead.
type Tree struct {
	Name string

	// lockSpace is the tree's lock namespace, derived once from Name.
	lockSpace uint32

	store   *storage.Store
	tm      *txn.Manager
	lm      *lock.Manager
	binding *Binding
	opts    Options
	root    storage.PageID
	kern    *pitree.Kernel[*Node, Point]
	comp    *completer

	// absorbMu serializes absorb passes (background task vs on-demand
	// RunConsolidation): concurrent passes would race to absorb the same
	// victim and the loser's abort would re-post terms the winner removed.
	absorbMu sync.Mutex

	Stats Stats
}

// ErrPointExists reports a duplicate insert.
var ErrPointExists = errors.New("spatial: point already exists")

// ErrPointNotFound reports a missing point.
var ErrPointNotFound = errors.New("spatial: point not found")

// Create builds a new spatial tree: a level-1 root over one data node
// covering the full space.
func Create(store *storage.Store, tm *txn.Manager, lm *lock.Manager, b *Binding, name string, opts Options) (*Tree, error) {
	t := &Tree{Name: name, lockSpace: lock.SpaceID("spatial", name), store: store, tm: tm, lm: lm, binding: b, opts: opts.normalized()}
	rootPid, err := pitree.Create(store, tm, name, 2, &nodeKinds, func(pids []storage.PageID) []*Node {
		root := &Node{Level: 1, Direct: FullSpace()}
		root.setEntries(Entry{Rect: FullSpace(), Child: pids[1]})
		return []*Node{root, {Level: 0, Direct: FullSpace()}}
	})
	if err != nil {
		return nil, err
	}
	t.start(rootPid)
	return t, nil
}

// Open attaches to an existing spatial tree after restart.
func Open(store *storage.Store, tm *txn.Manager, lm *lock.Manager, b *Binding, name string, opts Options) (*Tree, error) {
	rootPid, err := store.Root(name)
	if err != nil {
		return nil, err
	}
	t := &Tree{Name: name, lockSpace: lock.SpaceID("spatial", name), store: store, tm: tm, lm: lm, binding: b, opts: opts.normalized()}
	t.start(rootPid)
	return t, nil
}

// Close drains pending completions (nothing scheduled is discarded, so a
// close-then-reopen never finds a posting or absorb silently dropped),
// stops the workers, and drops the cached root pin.
func (t *Tree) Close() {
	t.comp.CloseDrain()
	t.kern.Close()
}

// DrainCompletions blocks until scheduled completing actions ran.
func (t *Tree) DrainCompletions() { t.comp.Drain() }

// Options returns the normalized options.
func (t *Tree) Options() Options { return t.opts }

func (t *Tree) recLockName(p Point) lock.Name {
	return lock.PointName(t.lockSpace, p.X, p.Y)
}

// --- protocol kernel binding -------------------------------------------------

// The operation context, latched node reference, restart sentinels and
// rank ceiling are the kernel's.
type (
	opCtx = pitree.Op[*Node]
	nref  = pitree.Ref[*Node]
)

const maxLevel = pitree.MaxLevel

var (
	errRetry     = pitree.ErrRetry
	errLevelGone = pitree.ErrLevelGone
)

// space is the spatial tree's side of the kernel contract: points routed
// through rectangles, with any number of sibling terms per node. Nodes
// carry no dead mark — an absorbed node is unlinked under latches before
// its page is freed, and coupling keeps readers off it.
type space struct{ t *Tree }

func (space) Level(n *Node) int       { return n.Level }
func (space) Dead(*Node) bool         { return false }
func (space) Clone(n *Node) *Node     { return n.clone() }
func (space) Writable(*Node) bool     { return true }
func (space) EncodedSize(n *Node) int { return n.EncodedSize() }

// Route sends a point outside the direct region through the sibling term
// that was delegated it; the Side route's Tag is that term's index.
func (space) Route(n *Node, p Point, stop bool) pitree.Route {
	if !n.Direct.Contains(p) {
		i, ok := n.routeSib(p)
		if !ok {
			return pitree.Route{Kind: pitree.Restart}
		}
		return pitree.Route{Kind: pitree.Side, Pid: n.Sibs[i].Pid, Tag: i}
	}
	if stop {
		return pitree.Route{Kind: pitree.Here}
	}
	child, ok := n.chooseChild(p)
	if !ok {
		return pitree.Route{Kind: pitree.Restart}
	}
	return pitree.Route{Kind: pitree.Child, Pid: child}
}

// Edge counts a side traversal and schedules the posting of the sibling
// term it crossed (lazy completion, §5.1); the tree saves no paths.
func (s space) Edge(n *Node, f *storage.Frame, r pitree.Route, sched bool, _ any) {
	if r.Kind != pitree.Side {
		return
	}
	s.t.Stats.SideTraversals.Add(1)
	if sched {
		s.t.notePendingSib(n, n.Sibs[r.Tag])
	}
}

// Links: the sibling terms, oldest first, then an index node's children
// in posting order.
func (space) Links(n *Node, fn func(storage.PageID, int)) {
	for _, s := range n.Sibs {
		fn(s.Pid, -1)
	}
	for i := 0; !n.IsData() && i < n.Len(); i++ {
		_, child := n.termAt(i)
		fn(child, i)
	}
}

// start binds the tree to its root: the kernel, the completion queue and
// the recovery binding.
func (t *Tree) start(root storage.PageID) {
	t.root = root
	t.comp = newCompleter(t)
	t.kern = pitree.New[*Node, Point](pitree.Config{
		Name:  "spatial",
		Store: t.store,
		TM:    t.tm,
		Root:  root,
		// Pure CNS holds one latch at a time; the target is immortal.
		// Under Reclaim the absorber holds an edge's source X while it
		// frees the target, so edges couple: it cannot free a page between
		// a reader's pointer load and its latch acquisition.
		Couple:              t.opts.Reclaim,
		Pessimistic:         t.opts.PessimisticDescent,
		Tasks:               t.comp,
		Deferred:            &t.Stats.AbsorbDeferred,
		Restarts:            &t.Stats.Restarts,
		OptimisticHits:      &t.Stats.OptimisticHits,
		OptimisticRetries:   &t.Stats.OptimisticRetries,
		OptimisticFallbacks: &t.Stats.OptimisticFallbacks,
	}, space{t}, &nodeKinds)
	t.binding.Bind(t.store.Pool.StoreID, t)
}

// descend walks to the node at stopLevel whose directly contained region
// includes p, latched in finalMode. Side traversals through sibling
// terms schedule completing postings when sched is true.
func (t *Tree) descend(o *opCtx, p Point, stopLevel int, finalMode latch.Mode, sched bool) (nref, error) {
	return t.kern.Descend(o, p, stopLevel, finalMode, sched, nil)
}

// --- public operations ---------------------------------------------------------

// Insert adds a point with its value; ErrPointExists on duplicates. With
// a nil transaction the insert runs as its own atomic action.
func (t *Tree) Insert(tx *txn.Txn, p Point, value []byte) error {
	if err := t.kern.Admit(pointSize(value)); err != nil {
		return err
	}
	t.Stats.Inserts.Add(1)
	return t.kern.Update(tx, 1, nil, &pointWrite{t: t, p: p, value: value})
}

// Delete removes a point; ErrPointNotFound if absent.
func (t *Tree) Delete(tx *txn.Txn, p Point) error {
	t.Stats.Deletes.Add(1)
	return t.kern.Update(tx, 1, nil, &pointWrite{t: t, p: p, del: true})
}

// pointWrite is the tree's side of the kernel's leaf update action
// (pitree.LeafWriter) for one point: an insert, or with del a removal —
// and, with undo, of its Compensate.
type pointWrite struct {
	t     *Tree
	p     Point
	value []byte
	del   bool
	// undo marks a compensation (§4.2): a point already as the undo would
	// leave it is skipped, not refused.
	undo bool
	// emptied: the removal left the leaf with no points and no siblings.
	emptied bool
}

func (w *pointWrite) Key(int) Point          { return w.p }
func (w *pointWrite) LockName(int) lock.Name { return w.t.recLockName(w.p) }
func (w *pointWrite) Trace() any             { return nil }

// Need: an insert needs the point's bytes, a removal none.
func (w *pointWrite) Need(*Node, int) int {
	if w.del {
		return 0
	}
	return pointSize(w.value)
}

// Full: an insert splits the leaf first when its need would not fit, or
// under an entry cap when the leaf is at it — unless the point is already
// there and Apply will refuse it; a removal needs no room.
func (w *pointWrite) Full(n *Node, i int) bool {
	need := w.Need(n, i)
	if need == 0 {
		return false
	}
	if c := w.t.opts.DataCapacity; (c == 0 || n.Len() < c) && w.t.kern.Fits(n, need) {
		return false
	}
	_, dup := n.findPoint(w.p)
	return !dup
}

// Reserve: a spatial write is a run of one point, for which the kernel
// reserves nothing.
func (w *pointWrite) Reserve(*Node, int) {}

func (w *pointWrite) Split(o *opCtx, leaf nref) error { return w.t.splitNodeAction(o, &leaf) }

// Next: a compensation is one item.
func (w *pointWrite) Next(*Node, int) bool { return false }

// miss is Apply's answer for a point found in the wrong state: err, or no
// change for a compensation.
func (w *pointWrite) miss(err error) (txn.GroupUpdate, error) {
	if w.undo {
		err = nil
	}
	return txn.GroupUpdate{}, err
}

func (w *pointWrite) Apply(leaf nref, _ int) (txn.GroupUpdate, error) {
	n := leaf.N
	i, found := n.findPoint(w.p)
	if !w.del {
		if found {
			return w.miss(ErrPointExists)
		}
		e := Entry{P: w.p, Value: enc.NilIfEmpty(w.value)}
		n.insertAt(i, e)
		return txn.GroupUpdate{Kind: KindInsertPoint, Payload: appendPoint(nil, e)}, nil
	}
	if !found {
		return w.miss(ErrPointNotFound)
	}
	up := txn.GroupUpdate{Kind: KindRemovePoint, Payload: appendPoint(nil, n.entry(i))}
	n.recs.Delete(i)
	w.emptied = n.Len() == 0 && len(n.Sibs) == 0
	return up, nil
}

func (w *pointWrite) After(int) {
	if w.emptied && w.t.opts.Reclaim {
		// The leaf may now be absorbable; schedule a background pass. If
		// this delete belongs to a transaction that later aborts, logical
		// undo re-inserts the point through a fresh descent, so absorbing
		// under an uncommitted delete is safe.
		w.t.schedule(postTask{absorb: true})
	}
}

// Search returns the value stored at p.
func (t *Tree) Search(tx *txn.Txn, p Point) ([]byte, bool, error) {
	t.Stats.Searches.Add(1)
	var val []byte
	var found bool
	err := t.kern.RetryLoop(tx, func(o *opCtx) error {
		leaf, err := t.descend(o, p, 0, latch.S, true)
		if err != nil {
			return err
		}
		if err := o.LockDance(tx, &leaf, t.recLockName(p), lock.S); err != nil {
			return err
		}
		if i, ok := leaf.N.findPoint(p); ok {
			val = append([]byte(nil), leaf.N.entry(i).Value...)
			found = true
		} else {
			val, found = nil, false
		}
		o.Release(&leaf)
		return nil
	})
	return val, found, err
}

// RegionQuery calls fn for every point in q, with a copy of its value.
// Visits are latch-consistent per node; nodes reachable through multiple
// (clipped) parents are visited once. Under Options.Reclaim the holder of each edge stays
// S-latched while its children are visited (DFS latch coupling), so a
// collected data-node pid cannot be freed before its visit; pure CNS
// releases each node before recursing.
func (t *Tree) RegionQuery(q Rect, fn func(p Point, v []byte) bool) error {
	t.Stats.RegionQueries.Add(1)
	o := t.kern.NewOp(nil)
	defer o.Done()
	seen := make(map[storage.PageID]bool)
	var visit func(pid storage.PageID, level int) (bool, error)
	visit = func(pid storage.PageID, level int) (bool, error) {
		if seen[pid] {
			return true, nil
		}
		seen[pid] = true
		r, err := o.Acquire(pid, latch.S, level)
		if err != nil {
			return false, err
		}
		// Collect what to do before releasing the latch (CNS: children
		// are immortal, so the collected pids stay valid).
		type kid struct {
			pid   storage.PageID
			level int
		}
		var kids []kid
		type hit struct {
			p Point
			v []byte
		}
		var hits []hit
		for _, s := range r.N.Sibs {
			if s.Rect.Intersects(q) {
				kids = append(kids, kid{s.Pid, r.N.Level})
			}
		}
		if r.N.IsData() {
			for i := 0; i < r.N.Len(); i++ {
				if p := r.N.pointAt(i); q.Contains(p) {
					hits = append(hits, hit{p, append([]byte(nil), r.N.entry(i).Value...)})
				}
			}
		} else {
			for i := 0; i < r.N.Len(); i++ {
				if rect, child := r.N.termAt(i); rect.Intersects(q) {
					kids = append(kids, kid{child, r.N.Level - 1})
				}
			}
		}
		if !t.opts.Reclaim {
			o.Release(&r)
		} else {
			defer o.Release(&r)
		}
		for _, h := range hits {
			if !fn(h.p, h.v) {
				return false, nil
			}
		}
		for _, k := range kids {
			cont, err := visit(k.pid, k.level)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	_, err := visit(t.root, maxLevel)
	return err
}
