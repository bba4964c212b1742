package core

import (
	"errors"
	"sync/atomic"

	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/maint"
	"repro/internal/pitree"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Options configure one Π-tree.
type Options struct {
	// LeafCapacity, when set (minimum 4), caps a leaf at that many
	// entries: small-node tests use it. At 0, the default, a leaf is full
	// when the write's record would not fit in its page
	// (pitree.Kernel.Fits). Either way a leaf never outgrows its page.
	LeafCapacity int
	// IndexCapacity is an index node's fan-out in terms (default 64,
	// minimum 4); an index node also splits before it outgrows its page.
	IndexCapacity int
	// Consolidation selects the CP invariant (§5.2.2): nodes may be
	// consolidated and de-allocated, so traversals latch-couple and
	// postings verify. When false the CNS invariant (§5.2.1) holds: nodes
	// are immortal, one latch at a time suffices, and saved state is
	// trusted.
	Consolidation bool
	// DeallocIsUpdate selects strategy (b) of §5.2.2: de-allocation bumps
	// the victim's state identifier, so re-traversals may start from the
	// remembered parent. With strategy (a) re-traversals start at the
	// root, which never moves and is never de-allocated.
	DeallocIsUpdate bool
	// SyncCompletion starts no background completion workers: a
	// completing atomic action an operation schedules waits in the queue
	// and runs only when DrainCompletions or Close is called, on the
	// calling goroutine. Deterministic tests use it.
	SyncCompletion bool
	// NoCompletion suppresses all scheduled completions; experiment T5
	// uses it to hold the tree in intermediate states.
	NoCompletion bool
	// RecordMoveLocks selects the record-set realization of the move
	// lock (§4.2.2) for INDEPENDENT data-node splits under page-oriented
	// undo: the splitting action MV-locks each record to be moved rather
	// than the whole page. Waiting for one of those locks releases the
	// node latch, and the retried split re-examines the node — the
	// paper's "no change, different locks required, or even that the
	// move is no longer required" outcomes fall out of the retry.
	// In-transaction splits and consolidations keep the page-granule
	// lock ("once granted, no update activity can alter the locking
	// required. This one lock is sufficient.").
	RecordMoveLocks bool
	// IndexHold, when set, records hold durations of U/X latches on index
	// nodes (levels >= 1) for experiment T6.
	IndexHold *latch.HoldTimer
	// PessimisticDescent disables the optimistic (version-validated)
	// interior descent, forcing every traversal onto the fully latched
	// path. Comparison benchmarks and targeted tests use it; leave false
	// for normal operation.
	PessimisticDescent bool
	// Governor paces background consolidation work against foreground
	// load. Nil means unpaced (every scheduled merge runs immediately).
	// Several trees may share one governor: the budget is then a global
	// maintenance budget for the engine.
	Governor *maint.Governor
}

// mergeBatch bounds how many adjacent-pair merges one consolidation
// task may commit, each its own action, before it hands the rest of its
// parent to a continuation task.
const mergeBatch = 4

// minEntries is the fill below which a node of the given capacity is
// considered for consolidation (CP mode only): a quarter full.
func minEntries(capacity int) int { return capacity / 4 }

// byBytes reports whether nodes of level are sized in bytes: leaves with
// no entry cap. Index nodes keep their fan-out.
func (t *Tree) byBytes(level int) bool { return level == 0 && t.opts.LeafCapacity == 0 }

// capacity is a node of level's capacity in the unit fill measures it in:
// the page's room in bytes, or the entry cap.
func (t *Tree) capacity(level int) int {
	switch {
	case t.byBytes(level):
		return t.kern.Room()
	case level == 0:
		return t.opts.LeafCapacity
	}
	return t.opts.IndexCapacity
}

// fill is how full n is: its encoded bytes, or its entries.
func (t *Tree) fill(n *Node) int {
	if t.byBytes(n.Level) {
		return n.EncodedSize()
	}
	return n.Len()
}

func (o Options) normalized() Options {
	if o.IndexCapacity <= 0 {
		o.IndexCapacity = 64
	}
	if o.LeafCapacity < 0 {
		o.LeafCapacity = 0
	} else if o.LeafCapacity > 0 && o.LeafCapacity < 4 {
		o.LeafCapacity = 4
	}
	if o.IndexCapacity < 4 {
		o.IndexCapacity = 4
	}
	return o
}

// Stats counts tree events; all fields are atomically updated and may be
// read concurrently.
type Stats struct {
	Searches       atomic.Int64
	Inserts        atomic.Int64
	Deletes        atomic.Int64
	Updates        atomic.Int64
	LeafSplits     atomic.Int64
	IndexSplits    atomic.Int64
	RootGrowths    atomic.Int64
	SideTraversals atomic.Int64
	// PostsScheduled counts the postings the completion queue accepted; a
	// crossing whose posting is already queued adds nothing, as in tsb and
	// spatial.
	PostsScheduled    atomic.Int64
	PostAttempts      atomic.Int64
	PostsPerformed    atomic.Int64
	PostsAlreadyDone  atomic.Int64
	PostsObsolete     atomic.Int64
	PostsSuppressedMV atomic.Int64
	PostsFailed       atomic.Int64 // posting actions ended by an error
	Consolidations    atomic.Int64
	ConsolidateTries  atomic.Int64
	RootShrinks       atomic.Int64
	PathVerifyHits    atomic.Int64
	PathVerifyMisses  atomic.Int64
	Restarts          atomic.Int64 // operation-level retries
	InTxnSplits       atomic.Int64 // page-oriented splits inside the updating txn
	MoveLockWaits     atomic.Int64
	// Optimistic-descent counters: interior-node visits served from a
	// validated published snapshot (hits), visits that had to refresh the
	// snapshot under a brief S latch or failed post-fetch validation
	// (retries), and whole descents abandoned to the latched path
	// (fallbacks).
	OptimisticHits      atomic.Int64
	OptimisticRetries   atomic.Int64
	OptimisticFallbacks atomic.Int64
	// MergeBatches counts consolidation tasks that committed more than one
	// merge under a single parent hold.
	MergeBatches atomic.Int64
	// BatchOps counts leaf-runs applied by the vectorized MultiGet /
	// MultiPut / MultiDelete paths (one count per single-descent,
	// single-latch group). LeafVisitsSaved counts the descents those runs
	// avoided relative to per-key operations (run length minus one, summed).
	BatchOps        atomic.Int64
	LeafVisitsSaved atomic.Int64
	// UtilHist is a leaf-utilization histogram: bucket i counts leaves
	// whose fill — encoded bytes over the page's room, or entries over
	// the entry cap — is in [i/8, (i+1)/8), with bucket 8 for
	// exactly-full. Maintained incrementally at every mutation that
	// changes a leaf's fill — this is the utilization signal the
	// consolidation scheduler reads without sweeping the tree. Counts are
	// relative to the tree state at Open (a freshly created tree starts
	// exact), so an opened tree's buckets are deltas, not absolutes.
	UtilHist [9]atomic.Int64
}

// utilBucket maps an entry count to its histogram bucket.
func utilBucket(n, capacity int) int {
	if capacity <= 0 {
		return 0
	}
	b := n * 8 / capacity
	if b < 0 {
		b = 0
	}
	if b > 8 {
		b = 8
	}
	return b
}

// NoteLeafUtil moves one leaf between utilization buckets: old and new
// are fills, in capacity's unit, with a negative value meaning the leaf does not
// exist on that side (created when old < 0, dropped when new < 0).
func (s *Stats) NoteLeafUtil(old, newCount, capacity int) {
	if old >= 0 && newCount >= 0 && utilBucket(old, capacity) == utilBucket(newCount, capacity) {
		return // most single-entry changes stay in their bucket
	}
	if old >= 0 {
		s.UtilHist[utilBucket(old, capacity)].Add(-1)
	}
	if newCount >= 0 {
		s.UtilHist[utilBucket(newCount, capacity)].Add(1)
	}
}

// StatsSnapshot is a plain-value copy of Stats.
type StatsSnapshot struct {
	Searches, Inserts, Deletes, Updates                int64
	LeafSplits, IndexSplits, RootGrowths               int64
	SideTraversals                                     int64
	PostsScheduled, PostAttempts, PostsPerformed       int64
	PostsAlreadyDone, PostsObsolete, PostsSuppressedMV int64
	PostsFailed                                        int64
	Consolidations, ConsolidateTries, RootShrinks      int64
	PathVerifyHits, PathVerifyMisses                   int64
	Restarts, InTxnSplits, MoveLockWaits               int64
	OptimisticHits, OptimisticRetries                  int64
	OptimisticFallbacks                                int64
	MergeBatches                                       int64
	BatchOps, LeafVisitsSaved                          int64
	UtilHist                                           [9]int64
}

// Snapshot returns a copy of all counters.
func (s *Stats) Snapshot() StatsSnapshot {
	var hist [9]int64
	for i := range s.UtilHist {
		hist[i] = s.UtilHist[i].Load()
	}
	return StatsSnapshot{
		MergeBatches: s.MergeBatches.Load(), UtilHist: hist,
		BatchOps: s.BatchOps.Load(), LeafVisitsSaved: s.LeafVisitsSaved.Load(),
		Searches: s.Searches.Load(), Inserts: s.Inserts.Load(), Deletes: s.Deletes.Load(), Updates: s.Updates.Load(),
		LeafSplits: s.LeafSplits.Load(), IndexSplits: s.IndexSplits.Load(), RootGrowths: s.RootGrowths.Load(),
		SideTraversals: s.SideTraversals.Load(),
		PostsScheduled: s.PostsScheduled.Load(), PostAttempts: s.PostAttempts.Load(), PostsPerformed: s.PostsPerformed.Load(),
		PostsAlreadyDone: s.PostsAlreadyDone.Load(), PostsObsolete: s.PostsObsolete.Load(), PostsSuppressedMV: s.PostsSuppressedMV.Load(),
		PostsFailed:    s.PostsFailed.Load(),
		Consolidations: s.Consolidations.Load(), ConsolidateTries: s.ConsolidateTries.Load(), RootShrinks: s.RootShrinks.Load(),
		PathVerifyHits: s.PathVerifyHits.Load(), PathVerifyMisses: s.PathVerifyMisses.Load(),
		Restarts: s.Restarts.Load(), InTxnSplits: s.InTxnSplits.Load(), MoveLockWaits: s.MoveLockWaits.Load(),
		OptimisticHits: s.OptimisticHits.Load(), OptimisticRetries: s.OptimisticRetries.Load(),
		OptimisticFallbacks: s.OptimisticFallbacks.Load(),
	}
}

// Tree is one Π-tree (B-link instance). All methods are safe for
// concurrent use by multiple goroutines and transactions.
type Tree struct {
	// Name identifies the tree in its store's root directory and in lock
	// names.
	Name string

	// lockSpace is the tree's lock namespace, derived once from Name so
	// building a lock.Name on the hot path is allocation-free.
	lockSpace uint32

	store   *storage.Store
	tm      *txn.Manager
	lm      *lock.Manager
	binding *Binding
	opts    Options
	root    storage.PageID
	kern    *pitree.Kernel[*Node, keys.Key]
	comp    *completer

	// Stats are the tree's event counters.
	Stats Stats
}

// ErrKeyExists is returned by Insert for a duplicate key.
var ErrKeyExists = errors.New("core: key already exists")

// ErrKeyNotFound is returned by Update and Delete for a missing key.
var ErrKeyNotFound = errors.New("core: key not found")

// Create builds a new, empty Π-tree named name in store (bootstrapping
// the store's meta page if needed) and returns it ready for use. The
// whole creation is one atomic action.
func Create(store *storage.Store, tm *txn.Manager, lm *lock.Manager, b *Binding, name string, opts Options) (*Tree, error) {
	t := &Tree{
		Name:      name,
		lockSpace: lock.SpaceID("pitree", name),
		store:     store,
		tm:        tm,
		lm:        lm,
		binding:   b,
		opts:      opts.normalized(),
	}
	rootPid, err := pitree.Create(store, tm, name, 1, &nodeKinds, func([]storage.PageID) []*Node {
		return []*Node{{Level: 0, High: keys.Inf, Right: storage.NilPage}}
	})
	if err != nil {
		return nil, err
	}
	t.start(rootPid)
	t.Stats.NoteLeafUtil(-1, 0, t.capacity(0))
	return t, nil
}

// Open attaches to an existing tree named name in store, e.g. after a
// restart.
func Open(store *storage.Store, tm *txn.Manager, lm *lock.Manager, b *Binding, name string, opts Options) (*Tree, error) {
	rootPid, err := store.Root(name)
	if err != nil {
		return nil, err
	}
	t := &Tree{
		Name:      name,
		lockSpace: lock.SpaceID("pitree", name),
		store:     store,
		tm:        tm,
		lm:        lm,
		binding:   b,
		opts:      opts.normalized(),
	}
	t.start(rootPid)
	return t, nil
}

// Close drains every pending completing action (no scheduled structure
// change is silently dropped — a close-then-reopen must never replay
// against half-merged nodes), stops the background workers, and waits
// for in-flight actions to finish. It also drops the cached root pin.
func (t *Tree) Close() {
	t.comp.CloseDrain()
	t.kern.Close()
}

// DrainCompletions blocks until every scheduled completing action has been
// processed. Tests and experiments use it to reach a quiescent state.
func (t *Tree) DrainCompletions() {
	t.comp.Drain()
}

// Options returns the tree's normalized options.
func (t *Tree) Options() Options { return t.opts }

// Store returns the underlying store (verifier and tests use it).
func (t *Tree) Store() *storage.Store { return t.store }

// --- lock names ----------------------------------------------------------

func (t *Tree) recLockName(k keys.Key) lock.Name {
	return lock.KeyName(t.lockSpace, k)
}

func (t *Tree) pageLockName(pid storage.PageID) lock.Name {
	return lock.PageName(t.lockSpace, uint64(pid))
}

// --- protocol kernel binding -------------------------------------------------

// The operation context, latched node reference, restart sentinels and
// rank ceiling are the kernel's; the aliases keep the tree's own code
// reading in its own terms.
type (
	opCtx = pitree.Op[*Node]
	nref  = pitree.Ref[*Node]
)

const maxLevel = pitree.MaxLevel

var (
	errRetry     = pitree.ErrRetry
	errLevelGone = pitree.ErrLevelGone
)

// space is the B-link tree's side of the kernel contract: a
// one-dimensional key space with one side pointer per node.
type space struct{ t *Tree }

func (space) Level(n *Node) int       { return n.Level }
func (space) Dead(n *Node) bool       { return n.Dead }
func (space) Clone(n *Node) *Node     { return n.clone() }
func (space) Writable(*Node) bool     { return true }
func (space) EncodedSize(n *Node) int { return n.EncodedSize() }

// Route sends keys at or above High through the side pointer and keys
// below Low back to the root: those cannot be reached by following right
// pointers, so the structure changed under the traversal.
func (space) Route(n *Node, key keys.Key, stop bool) pitree.Route {
	if n.Low != nil && keys.Compare(key, n.Low) < 0 {
		return pitree.Route{Kind: pitree.Restart}
	}
	if !n.High.ContainsBelow(key) {
		if n.Right == storage.NilPage {
			return pitree.Route{Kind: pitree.Restart}
		}
		return pitree.Route{Kind: pitree.Side, Pid: n.Right}
	}
	if stop {
		return pitree.Route{Kind: pitree.Here}
	}
	e, ok := n.childFor(key)
	if !ok {
		return pitree.Route{Kind: pitree.Restart}
	}
	return pitree.Route{Kind: pitree.Child, Pid: e.Child}
}

// Edge saves the path on the way down (§5.2) and, on a side traversal,
// counts it and schedules the sibling's posting (§5.1).
func (s space) Edge(n *Node, f *storage.Frame, r pitree.Route, sched bool, trace any) {
	path, _ := trace.(*Path)
	if r.Kind == pitree.Child {
		path.set(n.Level, f.ID, f.PageLSN())
		return
	}
	s.t.Stats.SideTraversals.Add(1)
	if sched {
		s.t.noteIncomplete(n, f.ID, path)
	}
}

// Links: the side pointer, then an index node's children in key order.
func (space) Links(n *Node, fn func(storage.PageID, int)) {
	if n.Right != storage.NilPage {
		fn(n.Right, -1)
	}
	for i := 0; n.Level > 0 && i < n.Len(); i++ {
		fn(n.entry(i).Child, i)
	}
}

// start binds the tree to its root: the kernel, the completion queue and
// the recovery binding all need the root's page ID.
func (t *Tree) start(root storage.PageID) {
	t.root = root
	// Page-granule IX lock marks a transaction as an updater of a leaf,
	// which is what a later move lock must wait for (§4.2.2); only
	// page-oriented undo needs it.
	var pageLock func(storage.PageID) lock.Name
	if t.binding.PageOriented() {
		pageLock = t.pageLockName
	}
	t.kern = pitree.New[*Node, keys.Key](pitree.Config{
		Name:                "core",
		Store:               t.store,
		TM:                  t.tm,
		Root:                root,
		PageLock:            pageLock,
		MoveLockWaits:       &t.Stats.MoveLockWaits,
		Couple:              t.opts.Consolidation,
		Pessimistic:         t.opts.PessimisticDescent,
		IndexHold:           t.opts.IndexHold,
		Restarts:            &t.Stats.Restarts,
		OptimisticHits:      &t.Stats.OptimisticHits,
		OptimisticRetries:   &t.Stats.OptimisticRetries,
		OptimisticFallbacks: &t.Stats.OptimisticFallbacks,
	}, space{t}, &nodeKinds)
	t.comp = newCompleter(t)
	t.binding.Bind(t.store.Pool.StoreID, t)
}

// descendTo walks from the root to the node at stopLevel whose directly
// contained space includes key, latched in finalMode, remembering the
// path when one is passed. Side-pointer traversals schedule lazy
// completion when sched is true (§5.1).
func (t *Tree) descendTo(o *opCtx, key keys.Key, stopLevel int, finalMode latch.Mode, sched bool, path *Path) (nref, error) {
	var trace any
	if path != nil {
		trace = path
	}
	return t.kern.Descend(o, key, stopLevel, finalMode, sched, trace)
}

// --- saved paths -----------------------------------------------------------

// pathEntry remembers a traversed node and its state identifier at visit
// time (§5.2: search key, nodes on the path, and their state ids).
type pathEntry struct {
	pid storage.PageID
	lsn wal.LSN
}

// maxPathLevels bounds the levels a saved path remembers. A posting at a
// level above it starts from the root, as one whose parent was not on the
// path does.
const maxPathLevels = 16

// Path is the remembered root-to-target path indexed by level. It is a
// value: a posting task and a split's cut each hold their own copy, so
// saving and copying one allocates nothing.
type Path struct {
	byLevel [maxPathLevels]pathEntry // pid NilPage: level not visited
}

func (p *Path) set(level int, pid storage.PageID, lsn wal.LSN) {
	if level < maxPathLevels {
		p.byLevel[level] = pathEntry{pid: pid, lsn: lsn}
	}
}

func (p *Path) get(level int) (pathEntry, bool) {
	if level >= maxPathLevels {
		return pathEntry{}, false
	}
	e := p.byLevel[level]
	return e, e.pid != storage.NilPage
}

// noteIncomplete schedules the completing atomic action for a detected
// intermediate state: cur has a sibling not yet posted in the parent (or
// the parent simply was not on our search path). Move-locked splits are
// skipped: their posting must await the updating transaction's commit
// (§4.2.2). A crossing whose posting is already queued — nearly every
// one — copies nothing and allocates nothing; one that finds it running
// queues it again, since the run may have read the parent before the
// split it must post (pitree.Queue).
func (t *Tree) noteIncomplete(n *Node, pid storage.PageID, path *Path) {
	if t.opts.NoCompletion {
		return
	}
	if n.High.Unbounded || n.Right == storage.NilPage {
		return
	}
	if t.binding.PageOriented() && t.lm.MoveLocked(t.pageLockName(pid)) {
		t.Stats.PostsSuppressedMV.Add(1)
		return
	}
	p := postTask{level: n.Level + 1, sep: n.High.Key, newPid: n.Right}
	if t.comp.ScheduleFunc(postKey(p), func() task {
		p.sep = keys.Clone(p.sep)
		if path != nil {
			p.path = *path
		}
		return task{kind: taskPost, post: p}
	}) {
		t.Stats.PostsScheduled.Add(1)
	}
}
