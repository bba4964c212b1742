package tsb

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/enc"
	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/maint"
	"repro/internal/pitree"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Options configure one TSB tree.
type Options struct {
	// DataCapacity, when set (minimum 4), caps a data node at that many
	// versions: small-node tests use it. At 0, the default, a data node
	// is full when the new version would not fit in its page
	// (pitree.Kernel.Fits). Either way a node never outgrows its page.
	DataCapacity int
	// IndexCapacity is an index node's fan-out in terms (default 64,
	// minimum 4); an index node also splits before it outgrows its page.
	IndexCapacity int
	// SyncCompletion and NoCompletion mirror the core tree's
	// lazy-completion controls.
	SyncCompletion bool
	NoCompletion   bool
	// PessimisticDescent disables the optimistic (version-validated)
	// interior navigation, forcing every descent through the latched
	// path. For comparison runs and targeted tests.
	PessimisticDescent bool
	// GC enables version garbage collection. A full current node first
	// drops the versions a later version of their key starting below the
	// transaction manager's visibility horizon supersedes (a prune), and
	// splits only if it is still full. Every committed time split
	// schedules a sweep of that leaf's history chain through the
	// completion machinery, retiring nodes whose whole time range lies
	// below the horizon and then freeing the pages of the chain's retired
	// tail (reclaim.go), so sustained churn reaches a steady-state store
	// size. Either way an as-of read below the horizon may find the
	// versions it asks for reclaimed. RunGC sweeps the whole tree on
	// demand, retiring and freeing alike, regardless of this flag.
	GC bool
	// Governor, when non-nil, paces background chain maintenance (GC
	// sweeps and page reclamation) through the shared maintenance budget;
	// a nil governor admits immediately.
	Governor *maint.Governor
}

func (o Options) normalized() Options {
	if o.DataCapacity < 0 {
		o.DataCapacity = 0
	} else if o.DataCapacity > 0 && o.DataCapacity < 4 {
		o.DataCapacity = 4
	}
	if o.IndexCapacity < 4 {
		if o.IndexCapacity <= 0 {
			o.IndexCapacity = 64
		} else {
			o.IndexCapacity = 4
		}
	}
	return o
}

// Stats counts TSB events.
type Stats struct {
	Puts           atomic.Int64
	Gets           atomic.Int64
	TimeSplits     atomic.Int64
	KeySplits      atomic.Int64
	IndexSplits    atomic.Int64
	RootGrowths    atomic.Int64
	KeySibWalks    atomic.Int64
	HistSibWalks   atomic.Int64
	PostsScheduled atomic.Int64
	PostsPerformed atomic.Int64
	PostsNoop      atomic.Int64
	PostsFailed    atomic.Int64 // posting actions ended by an error
	ClippedTerms   atomic.Int64
	SoftOverflows  atomic.Int64
	Restarts       atomic.Int64

	// Batched access-path counters: BatchOps counts leaf-runs applied by
	// MultiGet/MultiPut/MultiDelete (one per single-descent, single-latch
	// group); LeafVisitsSaved sums the descents those runs avoided (run
	// length minus one).
	BatchOps        atomic.Int64
	LeafVisitsSaved atomic.Int64

	// Optimistic descent counters: hits are interior-node visits served
	// from a validated snapshot without latching; retries are snapshot
	// refreshes or validation failures; fallbacks are whole descents
	// abandoned to the latched path.
	OptimisticHits      atomic.Int64
	OptimisticRetries   atomic.Int64
	OptimisticFallbacks atomic.Int64

	// Snapshot-read and version-GC counters. GCReclaimedVersions counts
	// version slots dropped from retired nodes; GCRetiredNodes counts the
	// nodes. SnapshotHistWalks counts history-sibling steps taken by
	// snapshot point reads chasing invisible versions.
	SnapshotGets        atomic.Int64
	SnapshotScans       atomic.Int64
	SnapshotHistWalks   atomic.Int64
	GCPasses            atomic.Int64
	GCRetiredNodes      atomic.Int64
	GCReclaimedVersions atomic.Int64
	GCRemovedTerms      atomic.Int64
	// Prunes counts prune actions; PrunedVersions, the versions dropped.
	Prunes         atomic.Int64
	PrunedVersions atomic.Int64

	// Page-reclamation counters (reclaim.go). GCFreedPages counts
	// chain tails whose pages were returned to the free-space map;
	// GCSharedSkips, tails kept because their incoming edge is (possibly)
	// multi-referenced; GCTermSkips, tails kept because a level-1 term
	// still references them; GCDeferredFrees, frees deferred because a
	// pending completion task still names the page.
	GCFreedPages    atomic.Int64
	GCSharedSkips   atomic.Int64
	GCTermSkips     atomic.Int64
	GCDeferredFrees atomic.Int64
}

// Tree is one TSB tree. Historical nodes never split, and the only node
// ever freed is a retired history-chain tail (reclaim.go); because one can
// be, latched edges couple (§5.2.2, the CP invariant).
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
	kern    *pitree.Kernel[*Node, point]
	comp    *completer
	clock   atomic.Uint64
	// gcMu serializes GC passes: two concurrent passes over one chain
	// would race to retire the same victim, and the loser's atomic-action
	// abort would re-post index terms the winner removed. Page reclamation
	// runs under it too, so while a reaper walks a chain the only possible
	// structure change is a split of the chain's current head.
	gcMu sync.Mutex

	Stats Stats
}

// ErrKeyNotFound reports a missing (or deleted-as-of) key.
var ErrKeyNotFound = errors.New("tsb: key not found")

// Create builds a new TSB tree: a level-1 index root over one data node
// covering all keys at all times. One atomic action.
func Create(store *storage.Store, tm *txn.Manager, lm *lock.Manager, b *Binding, name string, opts Options) (*Tree, error) {
	t := &Tree{Name: name, lockSpace: lock.SpaceID("tsb", name), store: store, tm: tm, lm: lm, binding: b, opts: opts.normalized()}
	rootPid, err := pitree.Create(store, tm, name, 2, &nodeKinds, func(pids []storage.PageID) []*Node {
		root := &Node{Level: 1, Rect: EntireRect()}
		root.setEntries(Entry{Child: pids[1], ChildRect: EntireRect()})
		return []*Node{root, {Level: 0, Rect: EntireRect()}}
	})
	if err != nil {
		return nil, err
	}
	t.start(rootPid)
	return t, nil
}

// Open attaches to an existing TSB tree after a restart. The version
// clock reseeds from the clock high water restart analysis reconstructed
// (the larger of the last checkpoint's persisted clock and the largest
// commit timestamp in the stable log) — NOT from the log's end LSN, which
// lives in a different space entirely: byte-offset LSNs run far ahead of
// version ticks, so seeding from EndLSN inflated post-restart timestamps
// by orders of magnitude. The analysis high water is exact: every
// surviving version's writer has a stamped commit record in the stable
// prefix (losers' versions are removed by undo before new work runs), so
// no timestamp can be reissued.
func Open(store *storage.Store, tm *txn.Manager, lm *lock.Manager, b *Binding, name string, opts Options) (*Tree, error) {
	rootPid, err := store.Root(name)
	if err != nil {
		return nil, err
	}
	t := &Tree{Name: name, lockSpace: lock.SpaceID("tsb", name), store: store, tm: tm, lm: lm, binding: b, opts: opts.normalized()}
	t.clock.Store(tm.RecoveredClockHW())
	t.start(rootPid)
	return t, nil
}

// Close drains every scheduled completion to commit (postings, GC
// sweeps, reclamation), stops the workers, and drops the cached root pin.
// Draining first means a close-then-reopen never recovers against a
// structure change that was scheduled but silently dropped.
func (t *Tree) Close() {
	t.comp.CloseDrain()
	t.kern.Close()
}

// DrainCompletions blocks until all scheduled completing actions ran.
func (t *Tree) DrainCompletions() { t.comp.Drain() }

// Now returns the tree's current logical time; versions written later get
// strictly larger timestamps.
func (t *Tree) Now() uint64 { return t.clock.Load() }

// tick returns a fresh, strictly increasing timestamp.
func (t *Tree) tick() uint64 { return t.clock.Add(1) }

// Options returns the normalized options.
func (t *Tree) Options() Options { return t.opts }

func (t *Tree) recLockName(k keys.Key) lock.Name { return lock.KeyName(t.lockSpace, k) }

// --- protocol kernel binding -------------------------------------------------

// The operation context, latched node reference, restart sentinels and
// rank ceiling are the kernel's.
type (
	opCtx = pitree.Op[*Node]
	nref  = pitree.Ref[*Node]
)

const maxLevel = pitree.MaxLevel

var (
	errRetry = pitree.ErrRetry
	// errLevelGone reports a descent target level above the current root;
	// the posting that wanted it is obsolete until the root grows, and
	// side traversals will reschedule it.
	errLevelGone = pitree.ErrLevelGone
)

// point is the TSB search key: a key at a time.
type point struct {
	key  keys.Key
	time uint64
}

// Side-route tags: which of a node's two side pointers a route follows.
const (
	viaKeySib = iota
	viaHistSib
)

// space is the TSB tree's side of the kernel contract: key × time
// rectangles, a key sibling at every level and a history sibling at the
// data level. Nodes carry no dead mark — a reclaimed tail is unlinked
// under latches before its page is freed, and coupling keeps readers off
// it.
type space struct{ t *Tree }

func (space) Level(n *Node) int   { return n.Level }
func (space) Dead(*Node) bool     { return false }
func (space) Clone(n *Node) *Node { return n.clone() }

// Writable: writes must land on a current node; an approximate descent
// that ends in history restarts (selection makes this rare).
func (space) EncodedSize(n *Node) int { return n.EncodedSize() }
func (space) Writable(n *Node) bool   { return n.Current() }

// Route follows the key sibling until the key range contains the key,
// then — at the data level only; index nodes span all time — the history
// sibling until the time range does. A missing history sibling means no
// history before the tree existed: land here. A history node's key range
// can be wider than the search path suggests; keys stay inside by
// construction.
func (space) Route(n *Node, p point, stop bool) pitree.Route {
	if !n.Rect.ContainsKey(p.key) {
		if (n.Rect.KeyLow != nil && keys.Compare(p.key, n.Rect.KeyLow) < 0) || n.KeySib == storage.NilPage {
			return pitree.Route{Kind: pitree.Restart}
		}
		return pitree.Route{Kind: pitree.Side, Pid: n.KeySib, Tag: viaKeySib}
	}
	if n.IsData() && p.time < n.Rect.TimeLow && n.HistSib != storage.NilPage {
		return pitree.Route{Kind: pitree.Side, Pid: n.HistSib, Tag: viaHistSib}
	}
	if stop {
		return pitree.Route{Kind: pitree.Here}
	}
	var e Entry
	var ok bool
	if n.Level == 1 {
		e, ok = n.chooseTerm(p.key, p.time)
	} else {
		e, ok = n.keyChildFor(p.key)
	}
	if !ok {
		return pitree.Route{Kind: pitree.Restart}
	}
	return pitree.Route{Kind: pitree.Child, Pid: e.Child}
}

// Edge counts a sibling walk and schedules the sibling's posting (lazy
// completion, §5.1); the tree saves no paths.
func (s space) Edge(n *Node, f *storage.Frame, r pitree.Route, sched bool, _ any) {
	if r.Kind != pitree.Side {
		return
	}
	if r.Tag == viaKeySib {
		s.t.Stats.KeySibWalks.Add(1)
		if sched {
			s.t.noteKeySibling(n)
		}
		return
	}
	s.t.Stats.HistSibWalks.Add(1)
	if sched {
		s.t.noteHistSibling(n)
	}
}

// Links: the key sibling, the history sibling, then an index node's
// children in term order.
func (space) Links(n *Node, fn func(storage.PageID, int)) {
	if n.KeySib != storage.NilPage {
		fn(n.KeySib, -1)
	}
	if n.HistSib != storage.NilPage {
		fn(n.HistSib, -1)
	}
	for i := 0; !n.IsData() && i < n.Len(); i++ {
		fn(n.childAt(i), i)
	}
}

// start binds the tree to its root: the kernel, the completion queue,
// the recovery binding and the version clock.
func (t *Tree) start(root storage.PageID) {
	t.root = root
	t.comp = newCompleter(t)
	t.kern = pitree.New[*Node, point](pitree.Config{
		Name:  "tsb",
		Store: t.store,
		TM:    t.tm,
		Root:  root,
		// Version GC frees retired history tails, so the target of a
		// history edge may have been freed — and its page recycled — and
		// edges couple (CP): the reaper removes a page's last reference
		// under the referencer's X latch before freeing, and a reader
		// holding the source while acquiring the target either passes
		// before the cut or finds the edge already gone.
		Couple:              true,
		Pessimistic:         t.opts.PessimisticDescent,
		Tasks:               t.comp,
		Deferred:            &t.Stats.GCDeferredFrees,
		Restarts:            &t.Stats.Restarts,
		OptimisticHits:      &t.Stats.OptimisticHits,
		OptimisticRetries:   &t.Stats.OptimisticRetries,
		OptimisticFallbacks: &t.Stats.OptimisticFallbacks,
	}, space{t}, &nodeKinds)
	t.binding.Bind(t.store.Pool.StoreID, t)
	t.tm.SetVersionClock(t.Now, t.tick)
}

// descend walks from the root to the node at stopLevel whose directly
// contained rectangle includes (k, time), latched in finalMode. Sibling
// traversals at any level schedule the corresponding completing posting
// when sched is true.
func (t *Tree) descend(o *opCtx, k keys.Key, time uint64, stopLevel int, finalMode latch.Mode, sched bool) (nref, error) {
	return t.kern.Descend(o, point{k, time}, stopLevel, finalMode, sched, nil)
}

// --- public operations -------------------------------------------------------

// Put writes a new version of key with value, timestamped now. With a nil
// transaction the put runs as its own atomic action.
func (t *Tree) Put(tx *txn.Txn, key keys.Key, value []byte) error {
	return t.write(tx, []keys.Key{key}, [][]byte{value}, false, false)
}

// Delete writes a tombstone version of key: as-of reads at earlier times
// still see the old versions.
func (t *Tree) Delete(tx *txn.Txn, key keys.Key) error {
	return t.write(tx, []keys.Key{key}, nil, true, false)
}

// leafWrite is the tree's side of the kernel's leaf update action
// (pitree.LeafWriter): every write is a run of new versions — tombstones
// when deleted — appended to the current leaf of their keys. The kernel
// restarts a descent that ends in a history node (space.Writable).
type leafWrite struct {
	t       *Tree
	ks      []keys.Key
	vals    [][]byte
	deleted bool
	batched bool // MultiPut / MultiDelete: runs are counted
	// writer stamps each version for snapshot visibility; atomic-action
	// puts (0) are atomic under the latch.
	writer wal.TxnID
}

func (t *Tree) write(tx *txn.Txn, ks []keys.Key, vals [][]byte, deleted, batched bool) error {
	w := &leafWrite{t: t, ks: ks, vals: vals, deleted: deleted, batched: batched}
	for i := range ks {
		// A node's bounds and an index term may each hold the key again.
		if err := t.kern.Admit(w.size(i) + len(ks[i])); err != nil {
			return err
		}
	}
	if tx != nil {
		w.writer = tx.ID
	}
	return t.kern.Update(tx, len(ks), w.less, w)
}

func (w *leafWrite) less(i, j int) bool       { return keys.Compare(w.ks[i], w.ks[j]) < 0 }
func (w *leafWrite) Key(i int) point          { return point{w.ks[i], NoEnd - 1} }
func (w *leafWrite) LockName(i int) lock.Name { return w.t.recLockName(w.ks[i]) }
func (w *leafWrite) Trace() any               { return nil }

// size is the encoded size of item i's version.
func (w *leafWrite) size(i int) int {
	if w.deleted {
		return versionSize(w.ks[i], nil)
	}
	return versionSize(w.ks[i], w.vals[i])
}

// Need: every write adds a version, so it needs the version's bytes.
func (w *leafWrite) Need(_ *Node, i int) int { return w.size(i) }

// Full: the version's bytes would not fit, or under an entry cap the leaf
// has no free slot.
func (w *leafWrite) Full(n *Node, i int) bool {
	if c := w.t.opts.DataCapacity; c > 0 && n.Len() >= c {
		return true
	}
	return !w.t.kern.Fits(n, w.Need(n, i))
}

func (w *leafWrite) Reserve(n *Node, bytes int) { n.recs.Reserve(bytes) }

func (w *leafWrite) Split(o *opCtx, leaf nref) error { return w.t.splitData(o, &leaf) }

// Apply gives each version its own strictly increasing timestamp and its
// own log record, so time splits, logical undo and snapshot visibility
// see a batched put exactly as they see single ones.
func (w *leafWrite) Apply(leaf nref, i int) (txn.GroupUpdate, error) {
	var value []byte
	if !w.deleted {
		value = w.vals[i]
	}
	// An empty key is stored as nil, as the put's redo decodes it.
	e := Entry{Key: enc.NilIfEmpty(w.ks[i]), Start: w.t.tick(), Value: enc.NilIfEmpty(value), Deleted: w.deleted, Txn: w.writer}
	// The version goes behind every version of its key the leaf holds: its
	// start is a fresh tick. The payload names the one before it, the
	// key's newest, before the insert moves the node's records. A nonzero
	// writer is the transaction the kernel logs the record under.
	at, dup := leaf.N.versionPos(e.Key, e.Start)
	var pred *Entry
	if at > 0 && keys.Equal(leaf.N.keyAt(at-1), e.Key) {
		p := leaf.N.entry(at - 1)
		pred = &p
	}
	payload := appendPut(make([]byte, 0, versionSize(e.Key, e.Value)), e, w.writer, pred)
	if !dup {
		leaf.N.insertAt(at, e)
	}
	w.t.Stats.Puts.Add(1)
	return txn.GroupUpdate{Kind: KindPut, Payload: payload}, nil
}

func (w *leafWrite) After(applied int) {
	if w.batched {
		w.t.Stats.BatchOps.Add(1)
		w.t.Stats.LeafVisitsSaved.Add(int64(applied - 1))
	}
}

// Get returns the current value of key.
func (t *Tree) Get(tx *txn.Txn, key keys.Key) ([]byte, bool, error) {
	return t.GetAsOf(tx, key, t.Now())
}

// GetAsOf returns the value of key as of time. Historical versions are
// immutable, so as-of reads below the current time need no locks; reads
// at the current time under a transaction take the record S lock.
func (t *Tree) GetAsOf(tx *txn.Txn, key keys.Key, time uint64) ([]byte, bool, error) {
	t.Stats.Gets.Add(1)
	var val []byte
	var found bool
	err := t.kern.RetryLoop(tx, func(o *opCtx) error {
		leaf, err := t.descend(o, key, time, 0, latch.S, true)
		if err != nil {
			return err
		}
		if time >= t.Now() {
			if err := o.LockDance(tx, &leaf, t.recLockName(key), lock.S); err != nil {
				return err
			}
		}
		val, found = nil, false
		if i, ok := leaf.N.searchVersion(key, time); ok {
			if e := leaf.N.entry(i); !e.Deleted {
				val, found = append([]byte(nil), e.Value...), true
			}
		}
		o.Release(&leaf)
		return nil
	})
	return val, found, err
}

// ScanAsOf calls fn for every key in [lo, hi) alive as of time, in key
// order. hi may be nil for an unbounded scan. Keys and values passed to fn
// are copies.
func (t *Tree) ScanAsOf(time uint64, lo, hi keys.Key, fn func(k keys.Key, v []byte) bool) error {
	return t.kern.Scan(nil, point{keys.Clone(lo), time}, hi, &keyScan{t: t, hi: hi, fn: fn, time: time})
}

// undoPut is the logical undo of a put (§4.2, §6) as Compensate's items.
// A time split after the put may have COPIED the version into a history
// node, so every copy goes, node by node down the history chain from the
// current node to the first that starts at or before the version: in node
// j item 2j re-carries what the removal needs and item 2j+1 removes the
// version, under one latch; the item after the last removal ends the undo
// with the terminal CLR.
//
// The re-carry keeps the carryover invariant snapshot reads depend on: a
// node holds, per key it knows, the newest version older than its
// TimeLow, so a key group that is empty, or whose oldest entry is at or
// above TimeLow, proves no older version exists anywhere. Removing a
// node's only below-TimeLow copy of the key (the doomed version, carried
// by a time split) would hide a committed predecessor in the chain from a
// lock-free snapshot reader, so the predecessor is re-carried under the
// same X latch. It is logged first: a crash between the two CLRs re-runs
// this undo, which finds the version beside its re-carried predecessor
// and only removes it (DESIGN.md §19).
type undoPut struct {
	t      *Tree
	e      Entry     // the version, by key and start
	txn    wal.TxnID // the put's transaction, which logs the re-carry
	at     []uint64  // at[j]: a time chain node j covers, its items' descent
	repair *Entry    // the predecessor the open node's re-carry inserts
	err    error     // Full's failure to fetch it, which Apply returns
}

func (u *undoPut) Key(i int) point { return point{u.e.Key, u.at[min(i/2, len(u.at)-1)]} }
func (u *undoPut) Trace() any      { return nil }

// Full: a re-carry item fetches the predecessor; a current node without
// room for it beside the version splits first (by key where it can: it
// carries the version, whose writer is rolling back).
func (u *undoPut) Full(n *Node, i int) bool {
	u.repair, u.err = nil, nil
	if i%2 != 0 || i/2 >= len(u.at) {
		return false
	}
	if _, ok := n.versionPos(u.e.Key, u.e.Start); ok {
		o := u.t.kern.NewOp(nil)
		u.repair, u.err = u.t.carryRepair(o, n, u.e)
		o.Done()
	}
	return u.repair != nil && n.Current() && !u.t.kern.Fits(n, versionSize(u.repair.Key, u.repair.Value))
}

func (u *undoPut) Split(o *opCtx, leaf nref) error { return u.t.splitData(o, &leaf) }

func (u *undoPut) Apply(leaf nref, i int) (txn.GroupUpdate, error) {
	_, found := leaf.N.versionPos(u.e.Key, u.e.Start)
	switch {
	case i/2 >= len(u.at) || i%2 == 1 && !found:
		return txn.GroupUpdate{}, nil
	case i%2 == 1:
		leaf.N.removeVersion(u.e.Key, u.e.Start)
		return txn.GroupUpdate{Kind: KindRemoveVersion, Payload: encVersionRef(u.e.Key, u.e.Start)}, nil
	case u.repair == nil:
		return txn.GroupUpdate{}, u.err
	}
	// Literal: the re-carried version is older than the node's newest one
	// of its key.
	leaf.N.insertVersion(*u.repair)
	return txn.GroupUpdate{Kind: KindPut, Payload: appendPut(nil, *u.repair, u.txn, nil)}, nil
}

// Next: after a removal the undo goes on to the node's history sibling if
// it starts after the version, else to the item that ends it.
func (u *undoPut) Next(n *Node, i int) bool {
	if i%2 == 1 && n.Rect.TimeLow > u.e.Start && n.HistSib != storage.NilPage {
		u.at = append(u.at, n.Rect.TimeLow-1)
	}
	return i/2 < len(u.at)
}

// carryRepair returns, if removing version e from n would break the
// carryover invariant, a clone of the predecessor to re-carry: the newest
// surviving version of e.Key older than e.Start. It walks the history
// chain from n with the stop rules snapshot reads use, latching S newer
// to older while n stays held (the order every chain walker follows) and
// latch-coupling, which serializes it against version GC's edge cut. An
// empty group, or one all at or above TimeLow, ends the walk: by induction
// that node's carryover proves nothing older exists (a retired node reads
// as empty, which is sound: retirement required every newer live node to
// carry the survivors' newest copies).
func (t *Tree) carryRepair(o *opCtx, n *Node, e Entry) (*Entry, error) {
	if e.Start >= n.Rect.TimeLow || n.HistSib == storage.NilPage {
		return nil, nil
	}
	lo, hi := keyGroup(n, e.Key)
	for i := lo; i < hi; i++ {
		if s := n.startAt(i); s < n.Rect.TimeLow && s != e.Start {
			return nil, nil // another below-TimeLow copy remains
		}
	}
	var prev nref
	for pid := n.HistSib; pid != storage.NilPage; {
		h, err := o.Acquire(pid, latch.S, 0)
		o.Release(&prev) // no-op on the first edge
		if err != nil {
			return nil, err
		}
		lo, hi := keyGroup(h.N, e.Key)
		for i := hi - 1; i >= lo; i-- {
			if h.N.startAt(i) < e.Start {
				out := h.N.entry(i) // a version, copied out of its node
				out.Key, out.Value = keys.Clone(out.Key), bytes.Clone(out.Value)
				o.Release(&h)
				return &out, nil
			}
		}
		if hi == lo || h.N.startAt(lo) >= h.N.Rect.TimeLow {
			o.Release(&h)
			return nil, nil
		}
		pid = h.N.HistSib
		prev = h
	}
	o.Release(&prev)
	return nil, nil
}
