package tsb

import (
	"slices"

	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/pitree"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// postTask asks for the index term describing a committed split to be
// posted at parentLevel: a rectangle term when the parent is level 1, a
// key-only term higher up. When gcHead is set the task is instead a GC
// sweep of the history chain hanging off that current node.
type postTask struct {
	parentLevel int
	child       storage.PageID
	rect        Rect
	gcHead      storage.PageID
}

// taskGC is the kind of a GC sweep in the kernel queue; a posting's key is
// pitree.PostKey, the one Absorb asks the queue about.
const taskGC = pitree.TaskPost + 1

func (t postTask) key() pitree.TaskKey {
	if t.gcHead != storage.NilPage {
		return pitree.TaskKey{Kind: taskGC, Pid: t.gcHead}
	}
	return pitree.PostKey(t.parentLevel, t.child)
}

// completer is the kernel's completion queue carrying this tree's tasks.
type completer = pitree.Queue[postTask]

func newCompleter(t *Tree) *completer {
	return pitree.NewQueue(pitree.QueueConfig[postTask]{
		Run: t.run,
		// Chain maintenance (GC + reclamation) is paced so background
		// sweeps never convoy foreground writers.
		Paced:    func(task postTask) bool { return task.gcHead != storage.NilPage },
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

// run dispatches one completing task: a GC chain sweep (retire, then
// free the retired tail) or a term posting.
func (t *Tree) run(task postTask) {
	if task.gcHead != storage.NilPage {
		_, _ = t.gcChain(task.gcHead)
		_, _ = t.reclaimChain(task.gcHead)
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

// noteKeySibling schedules posting for a key sibling discovered by a side
// traversal (lazy completion, §5.1). The sibling's current direct
// rectangle is read under its latch when posted; here the delegation
// boundary suffices.
func (t *Tree) noteKeySibling(n *Node) {
	if n.KeySib == storage.NilPage || n.Rect.KeyHigh.Unbounded {
		return
	}
	t.schedule(postTask{
		parentLevel: n.Level + 1,
		child:       n.KeySib,
		rect: Rect{
			KeyLow:   keys.Clone(n.Rect.KeyHigh.Key),
			KeyHigh:  keys.Inf, // refined at posting time for level-1 terms
			TimeLow:  n.Rect.TimeLow,
			TimeHigh: n.Rect.TimeHigh,
		},
	})
}

// noteHistSibling schedules posting for a history sibling.
func (t *Tree) noteHistSibling(n *Node) {
	if n.HistSib == storage.NilPage || !n.IsData() {
		return
	}
	t.schedule(postTask{
		parentLevel: 1,
		child:       n.HistSib,
		rect: Rect{
			KeyLow:   keys.Clone(n.Rect.KeyLow),
			KeyHigh:  n.Rect.KeyHigh,
			TimeLow:  0,
			TimeHigh: n.Rect.TimeLow,
		},
	})
}

// currentFraction is the time-vs-key split policy: when fewer than this
// fraction of a full data node's versions are alive, the node is
// time-split (history moves out); otherwise it is key-split.
const currentFraction = 0.67

// splitData splits the full, U-latched data node as an independent atomic
// action: a TIME split when enough of the node is history (dead
// versions), a KEY split otherwise (§2.2.2, Figure 1) — and a key split
// as well, where the node holds two keys, while it carries a version of
// a transaction still running. Under GC a node holding versions that no
// reader can see any more is pruned instead (prune). The latch is
// released on return; the caller retries its operation.
func (t *Tree) splitData(o *opCtx, leaf *nref) error {
	if t.opts.GC {
		if h := t.tm.VisibilityHorizon(); prunable(leaf.N, h) > 0 {
			return t.prune(o, leaf, h)
		}
	}
	o.Promote(leaf)
	cut := t.dataCut(leaf.N)
	return o.Atomic(func(aa *txn.Txn) error {
		o.Hold(leaf)
		return t.kern.Split(o, aa, leaf, cut)
	})
}

// dataCut chooses the split of the full data node n: by time at the
// clock's next tick, or by key at the median of its distinct keys.
func (t *Tree) dataCut(n *Node) *splitCut {
	keysIn := distinctKeys(n)
	distinct := len(keysIn)
	// Only history can leave a node of a single key.
	timeSplit := distinct < 2 || distinct <= int(float64(n.Len())*currentFraction) && distinct < n.Len()
	if timeSplit && (distinct == n.Len() || distinct >= 2 && t.carriesRunning(n)) {
		// Nothing would leave; or the history node would take a carried
		// version that a rollback replaces with its predecessor, which
		// may be larger, and a history node never splits to make room.
		// A key split (distinct >= 2 here).
		timeSplit = false
	}
	if timeSplit {
		return &splitCut{t: t, kind: KindTimeSplit}
	}
	return &splitCut{t: t, kind: KindKeySplit, k: medianKey(n, keysIn)}
}

// prune drops, as one atomic action, the versions of the U-latched data
// node that a later version of their key starting below the visibility
// horizon supersedes (KindPrune). A running transaction's begin clock
// bounds the horizon — an adopted restart loser's is 0 — so none of its
// versions is a superseding one.
func (t *Tree) prune(o *opCtx, leaf *nref, horizon uint64) error {
	o.Promote(leaf)
	return o.Atomic(func(aa *txn.Txn) error {
		o.Hold(leaf)
		aa.LogUpdate(leaf.F, KindPrune, encPrune(horizon))
		t.Stats.Prunes.Add(1)
		t.Stats.PrunedVersions.Add(int64(applyPrune(leaf.N, horizon)))
		return nil
	})
}

// carriesRunning reports whether n holds a version carried over from
// before its time low bound whose writer is still running: its rollback
// re-carries the predecessor into every node whose time range starts
// after the version (undoPut).
func (t *Tree) carriesRunning(n *Node) bool {
	for i := 0; i < n.Len(); i++ {
		if n.startAt(i) >= n.Rect.TimeLow {
			continue
		}
		if id := n.entry(i).Txn; id != 0 {
			if _, running := t.tm.Lookup(id); running {
				return true
			}
		}
	}
	return false
}

// distinctKeys returns a data node's distinct keys, in order, as views:
// the split that asked copies the one it keeps (medianKey).
func distinctKeys(n *Node) []keys.Key {
	var out []keys.Key
	for i := 0; i < n.Len(); i++ {
		if k := n.keyAt(i); i == 0 || !keys.Equal(n.keyAt(i-1), k) {
			out = append(out, k)
		}
	}
	return out
}

// splitCut is each of the tree's three splits (pitree.Cut), by its kind:
//
//   - KindTimeSplit: the data node's versions dead before the clock's next
//     tick leave for a new history node, which takes over the old history
//     edge ("new historic nodes contain copies of old history pointers",
//     Figure 1) — its shared mark too; the current node's edge to the new
//     node is fresh (applyTimeSplit clears its mark);
//   - KindKeySplit: the data node's versions from key k up go to a new
//     current node, which copies the history pointer ("the new node will
//     contain a copy of the history sibling pointer"): both halves now
//     reach the same chain, so both edges are marked shared (applyKeySplit
//     marks the trimmed half);
//   - KindIndexKeySplit: the index node's terms from k up go to a new
//     index node, level-1 terms spanning k CLIPPED into both halves
//     (§3.2.2).
//
// The undo (KindUnsplit) puts the node's header back and re-adds the
// entries that left.
type splitCut struct {
	t    *Tree
	kind wal.Kind
	k    keys.Key // a key split's boundary
	// Set by Sibling: the time split's time, the node's level, the clipped
	// terms and the sibling's rectangle, copied before the sibling goes live.
	ts      uint64
	level   int
	clipped int
	rect    Rect
}

func (c *splitCut) Kind() wal.Kind { return c.kind }

func (c *splitCut) Sibling(n *Node, pid storage.PageID) (*Node, []byte) {
	sib := &Node{Rect: cloneRect(n.Rect), HistSib: n.HistSib}
	var payload []byte
	switch c.kind {
	case KindTimeSplit:
		c.ts = c.t.tick()
		sib.Rect.TimeHigh, sib.HistShared, sib.recs = c.ts, n.HistShared, historyContents(n, c.ts)
		payload = encTimeSplit(c.ts, pid, n)
	case KindKeySplit:
		sib.Rect.KeyLow, sib.KeySib, sib.HistShared = keys.Clone(c.k), n.KeySib, n.HistSib != storage.NilPage
		sib.recs = n.recs.Slice(n.firstKeyAtOrAbove(c.k), n.Len())
		payload = encKeySplit(c.k, pid, n, nil)
	default:
		sib, c.clipped = indexSibling(n, c.k)
		payload = encKeySplit(c.k, pid, n, newlyClipped(n, c.k))
	}
	c.level, c.rect = n.Level, cloneRect(sib.Rect)
	return sib, payload
}

// decode reads a split record of c's kind.
func (c *splitCut) decode(p []byte) (k keys.Key, ts uint64, sib storage.PageID, old *Node, unclip []storage.PageID, err error) {
	if c.kind == KindTimeSplit {
		ts, sib, old, err = decTimeSplit(p)
	} else {
		k, sib, old, unclip, err = decKeySplit(p)
	}
	return k, ts, sib, old, unclip, err
}

func (c *splitCut) Apply(n *Node, payload []byte) error {
	k, ts, sib, _, _, err := c.decode(payload)
	switch {
	case err != nil:
	case c.kind == KindTimeSplit:
		applyTimeSplit(n, ts, sib)
	case c.kind == KindKeySplit:
		applyKeySplit(n, k, sib)
	default:
		applyIndexKeySplit(n, k, sib)
	}
	return err
}

// Undo re-adds what left: of a time split's history node all but the last
// version of each key (that one stayed, copied), of an index sibling all
// but the clipped copies, whose marks it clears.
func (c *splitCut) Undo(payload []byte, sibling func(storage.PageID) (*Node, []byte, error)) (storage.Compensation, error) {
	k, _, pid, old, unclip, err := c.decode(payload)
	var sib *Node
	if err == nil {
		sib, _, err = sibling(pid)
	}
	if err != nil {
		return storage.Compensation{}, err
	}
	readd := sib.recs
	switch c.kind {
	case KindTimeSplit:
		readd = timeSplitLeavers(sib)
	case KindIndexKeySplit:
		readd = indexSplitLeavers(sib, k)
	}
	return storage.Compensation{Kind: KindUnsplit, Payload: encUnsplit(old, readd, unclip)}, nil
}

func (c *splitCut) Done(_, _ *Node, grew bool) {
	st := &c.t.Stats
	switch {
	case grew:
		st.RootGrowths.Add(1)
	case c.kind == KindTimeSplit:
		st.TimeSplits.Add(1)
	case c.kind == KindKeySplit:
		st.KeySplits.Add(1)
	default:
		st.IndexSplits.Add(1)
	}
	st.ClippedTerms.Add(int64(c.clipped))
}

// Post queues the separate posting action (§3.2.1 step 6) and, after a time
// split under GC, a sweep of the history chain it just grew for nodes that
// fell below the visibility horizon.
func (c *splitCut) Post(node, sib storage.PageID) {
	c.t.schedule(postTask{parentLevel: c.level + 1, child: sib, rect: c.rect})
	if c.kind == KindTimeSplit && c.t.opts.GC {
		c.t.schedule(postTask{gcHead: node})
	}
}

// medianKey picks the median of a data node's distinct keys (strictly
// above its low bound, so both halves are non-empty).
func medianKey(n *Node, distinct []keys.Key) keys.Key {
	k := distinct[len(distinct)/2]
	if len(distinct) >= 2 && (n.Rect.KeyLow == nil || keys.Compare(k, n.Rect.KeyLow) > 0) {
		return keys.Clone(k)
	}
	return keys.Clone(distinct[len(distinct)-1])
}

// termPost is the tree's side of the kernel's posting action
// (pitree.Poster), the completing atomic action for TSB splits: post the
// index term describing task.child in the level task.parentLevel index
// node whose key range covers the child's low key — a rectangle term at
// level 1, a key-only term higher up. The kernel runs §5.3 with it:
// Search, Verify (posted-test, then the child re-tested latched), Space
// Test (an index key split with clipping, which grows the root in place),
// Update.
type termPost struct {
	t    *Tree
	task postTask
}

func (p *termPost) Search(o *opCtx) (nref, error) {
	return p.t.descend(o, p.task.rect.KeyLow, NoEnd-1, p.task.parentLevel, latch.U, false)
}

// Verify: version GC may have freed the child since the task was
// scheduled, and its page handed to a new node, so the kernel re-tests it
// latched (pitree.Kernel.Responsible): a term is posted only for the node
// the task describes.
func (p *termPost) Verify(o *opCtx, node *nref) (bool, error) {
	if _, posted := node.N.termFor(p.task.child); posted {
		return false, nil
	}
	return p.t.kern.Responsible(o, p.task.child, p.task.parentLevel-1, p.describes)
}

// describes reports whether n is the node the task describes: a node with
// the task's low key, and at level 0 a current node for a current task or
// a history node ending at the task's time bound. A side traversal may
// re-schedule posting for a node GC has since retired; its term is not
// resurrected. (The answer holds to the end of the action: retireNode
// latches the parent before it retires the child, and the reaper frees
// only a retired node.)
func (p *termPost) describes(n *Node) bool {
	r := p.task.rect
	switch {
	case !keys.Equal(n.Rect.KeyLow, r.KeyLow):
		return false
	case !n.IsData():
		return true
	case r.TimeHigh == NoEnd:
		return n.Current()
	}
	return n.Rect.TimeHigh == r.TimeHigh && !n.Retired
}

// Full: the fan-out is reached, or the term would not fit in the page. A
// level-1 term's key high bound is the task's; Apply re-tests the room
// with the one it posts.
func (p *termPost) Full(n *Node) bool {
	return n.Len() >= p.t.opts.IndexCapacity || !p.t.kern.Fits(n, p.size(n))
}

// size is the encoded size of the task's term in n.
func (p *termPost) size(n *Node) int {
	if n.Level == 1 {
		return termSize(p.task.rect)
	}
	return keyTermSize(p.task.rect.KeyLow)
}

// Key is the posting's search key: the child's low key, at the time of a
// current node.
func (p *termPost) Key() point { return point{key: p.task.rect.KeyLow, time: NoEnd - 1} }

// Split chooses an index key split at a boundary that puts a whole term on
// each side. With no usable boundary (e.g. the node is all history terms
// of one key range) it soft-overflows past the fan-out rather than make a
// complex index time split; documented simplification. Never past the page.
func (p *termPost) Split(node *nref) (pitree.Cut[*Node], error) {
	k, ok := p.t.indexSplitKey(node.N)
	if ok {
		return &splitCut{t: p.t, kind: KindIndexKeySplit, k: k}, nil
	}
	if !p.t.kern.Fits(node.N, p.size(node.N)) {
		return nil, pitree.ErrRecordTooLarge
	}
	p.t.Stats.SoftOverflows.Add(1)
	return nil, nil
}

func (p *termPost) Apply(o *opCtx, aa *txn.Txn, node *nref) error {
	task := p.task
	if node.N.Level == 1 {
		rect := task.rect
		if rect.TimeHigh == NoEnd {
			// A current node's term describes the node, not the task: a
			// key-sibling task rediscovered by a side traversal carries the
			// time bound of the node it was found FROM, which may have
			// time-split since the key split and then starts after the
			// sibling does (and an open key bound besides). And the node
			// goes on splitting: its rectangle is read under an S latch kept
			// until the term's action has committed.
			child, err := o.Acquire(task.child, latch.S, 0)
			if err != nil {
				return err
			}
			o.Hold(&child)
			rect = child.N.Rect
		}
		if !p.t.kern.Fits(node.N, termSize(rect)) {
			return pitree.ErrRecordTooLarge
		}
		term := Entry{Child: task.child, ChildRect: rect}
		aa.LogUpdate(node.F, KindPostTerm, appendTerm(nil, term))
		node.N.insertTerm(term)
	} else {
		aa.LogUpdate(node.F, KindPostKeyTerm, appendKeyTerm(nil, task.rect.KeyLow, task.child))
		node.N.insertKeyTerm(Entry{Key: task.rect.KeyLow, Child: task.child})
	}
	return nil
}

// indexSplitKey picks a key boundary that puts at least one whole term on
// each side: the median distinct boundary strictly above the node's low
// key. Level-1 boundaries come from term KeyLows; clipping handles terms
// that span the chosen key.
func (t *Tree) indexSplitKey(n *Node) (keys.Key, bool) {
	var bounds []keys.Key
	for i := 0; i < n.Len(); i++ {
		var b keys.Key
		if n.Level == 1 {
			b = n.rectAt(i).KeyLow
		} else {
			b = n.keyAt(i)
		}
		if b != nil && (n.Rect.KeyLow == nil || keys.Compare(b, n.Rect.KeyLow) > 0) {
			bounds = append(bounds, b)
		}
	}
	if len(bounds) == 0 {
		return nil, false
	}
	slices.SortFunc(bounds, keys.Compare)
	bounds = slices.CompactFunc(bounds, keys.Equal)
	return keys.Clone(bounds[len(bounds)/2]), true
}

// indexSibling builds the node an index key split of pre at k creates:
// the terms at or above k, with level-1 terms spanning k CLIPPED into both
// halves (§3.2.2).
func indexSibling(pre *Node, k keys.Key) (sib *Node, clipped int) {
	sib = &Node{
		Level:  pre.Level,
		Rect:   Rect{KeyLow: keys.Clone(k), KeyHigh: pre.Rect.KeyHigh, TimeLow: 0, TimeHigh: NoEnd},
		KeySib: pre.KeySib,
	}
	sib.Rect.KeyHigh.Key = keys.Clone(sib.Rect.KeyHigh.Key)
	if pre.Level != 1 {
		sib.recs = pre.recs.Slice(pre.firstKeyAtOrAbove(k), pre.Len())
		return sib, 0
	}
	var idx, spanning []int
	for i := 0; i < pre.Len(); i++ {
		r := pre.rectAt(i)
		if keys.Compare(r.KeyLow, k) < 0 {
			if !r.SpansKey(k) {
				continue
			}
			spanning = append(spanning, len(idx))
		}
		idx = append(idx, i)
	}
	sib.recs = pre.recs.Pick(idx)
	for _, i := range spanning {
		setClipped(&sib.recs, i, true)
	}
	return sib, len(spanning)
}
