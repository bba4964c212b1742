package tsb

import (
	"errors"

	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/pitree"
	"repro/internal/storage"
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

// Completing-action kinds, for the kernel queue's duplicate folding.
const (
	taskPost uint8 = iota + 1
	taskGC
)

func (t postTask) key() pitree.TaskKey {
	if t.gcHead != storage.NilPage {
		return pitree.TaskKey{Kind: taskGC, Pid: t.gcHead}
	}
	return pitree.TaskKey{Kind: taskPost, Level: t.parentLevel, Pid: t.child}
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
// queued or running. History-chain postings are the only tasks that can
// name a reclaimable page; the reaper defers freeing while one is live,
// because a running postTerm may be about to latch the page.
func (t *Tree) refsChild(pid storage.PageID) bool {
	return t.comp.Refs(postTask{parentLevel: 1, child: pid}.key())
}

// run dispatches one completing task: a GC chain sweep (plus page
// reclamation when enabled) or a term posting.
func (t *Tree) run(task postTask) {
	if task.gcHead != storage.NilPage {
		_, _ = t.gcChain(task.gcHead)
		if t.opts.Reclaim {
			_, _ = t.reclaimChain(task.gcHead)
		}
		return
	}
	t.postTerm(task)
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

// splitData splits the full, U-latched data node as an independent atomic
// action: a TIME split when enough of the node is history (dead
// versions), a KEY split otherwise (§2.2.2, Figure 1). The latch is
// released on return; the caller retries its operation.
func (t *Tree) splitData(o *opCtx, leaf *nref) error {
	aa := t.tm.BeginAtomicAction()
	o.Promote(leaf)
	n := leaf.N
	pre := n.clone()

	distinct := 0
	var prevKey keys.Key
	for _, e := range n.Entries {
		if prevKey == nil || !keys.Equal(prevKey, e.Key) {
			distinct++
			prevKey = e.Key
		}
	}

	timeSplit := distinct <= int(float64(len(n.Entries))*t.opts.CurrentFraction) && distinct < len(n.Entries)
	if distinct < 2 {
		timeSplit = true // single-key node: only history can leave
	}
	if timeSplit && distinct == len(n.Entries) {
		// Nothing would leave: forced to key split (distinct >= 2 here).
		timeSplit = false
	}

	newPid, err := t.store.Alloc(aa, &o.Tr)
	if err != nil {
		o.Release(leaf)
		_ = aa.Abort()
		return err
	}

	var newNode *Node
	var taskRect Rect
	if timeSplit {
		ts := t.tick()
		newNode = &Node{
			Level: 0,
			Rect: Rect{
				KeyLow:   keys.Clone(n.Rect.KeyLow),
				KeyHigh:  n.Rect.KeyHigh,
				TimeLow:  n.Rect.TimeLow,
				TimeHigh: ts,
			},
			// "New historic nodes contain copies of old history
			// pointers" (Figure 1). The edge's shared mark transfers with
			// it; the current node's replacement edge is fresh
			// (applyTimeSplit clears its mark).
			HistSib:    n.HistSib,
			HistShared: n.HistShared,
			Entries:    historyContents(pre, ts),
		}
		newNode.Rect.KeyHigh.Key = keys.Clone(newNode.Rect.KeyHigh.Key)
		taskRect = cloneRect(newNode.Rect)
		if err := t.formatNode(o, aa, newPid, newNode); err != nil {
			o.Release(leaf)
			_ = aa.Abort()
			return err
		}
		lsn := aa.LogUpdate(t.store.Pool.StoreID, uint64(leaf.Pid()), KindTimeSplit, encTimeSplit(ts, newPid, pre))
		applyTimeSplit(n, ts, newPid)
		leaf.F.MarkDirty(lsn)
		t.Stats.TimeSplits.Add(1)
	} else {
		k := t.medianKey(n)
		newNode = &Node{
			Level: 0,
			Rect: Rect{
				KeyLow:   keys.Clone(k),
				KeyHigh:  n.Rect.KeyHigh,
				TimeLow:  n.Rect.TimeLow,
				TimeHigh: NoEnd,
			},
			KeySib: n.KeySib,
			// "The new node will contain a copy of the history sibling
			// pointer": the new current node is responsible for the
			// entire history of its key space. Both halves now reach the
			// same chain, so both edges are marked shared (applyKeySplit
			// marks the trimmed half).
			HistSib:    n.HistSib,
			HistShared: n.HistSib != storage.NilPage,
		}
		newNode.Rect.KeyHigh.Key = keys.Clone(newNode.Rect.KeyHigh.Key)
		for _, e := range pre.Entries {
			if keys.Compare(e.Key, k) >= 0 {
				newNode.Entries = append(newNode.Entries, cloneEntry(e))
			}
		}
		taskRect = cloneRect(newNode.Rect)
		if err := t.formatNode(o, aa, newPid, newNode); err != nil {
			o.Release(leaf)
			_ = aa.Abort()
			return err
		}
		lsn := aa.LogUpdate(t.store.Pool.StoreID, uint64(leaf.Pid()), KindKeySplit, encKeySplit(k, newPid, pre))
		applyKeySplit(n, k, newPid)
		leaf.F.MarkDirty(lsn)
		t.Stats.KeySplits.Add(1)
	}

	// Commit before unlatching, then schedule the separate posting
	// action (§3.2.1 step 6).
	leafPid := leaf.Pid()
	cerr := aa.Commit()
	o.Release(leaf)
	if cerr != nil {
		return cerr
	}
	t.schedule(postTask{parentLevel: 1, child: newPid, rect: taskRect})
	if timeSplit && t.opts.GC {
		// The split just grew this leaf's history chain; sweep it for
		// nodes that fell below the visibility horizon.
		t.schedule(postTask{gcHead: leafPid})
	}
	return nil
}

// medianKey picks the median distinct key of a data node (strictly above
// its low bound, so both halves are non-empty).
func (t *Tree) medianKey(n *Node) keys.Key {
	var distinct []keys.Key
	for i, e := range n.Entries {
		if i == 0 || !keys.Equal(n.Entries[i-1].Key, e.Key) {
			distinct = append(distinct, e.Key)
		}
	}
	k := distinct[len(distinct)/2]
	if len(distinct) >= 2 && (n.Rect.KeyLow == nil || keys.Compare(k, n.Rect.KeyLow) > 0) {
		return keys.Clone(k)
	}
	return keys.Clone(distinct[len(distinct)-1])
}

// formatNode creates and logs a fresh node image under the action.
func (t *Tree) formatNode(o *opCtx, aa storage.UpdateLogger, pid storage.PageID, n *Node) error {
	return o.Format(aa, pid, n, n.Level, KindFormat, encNodeImage(n))
}

// postTerm is the completing atomic action for TSB splits: post the index
// term describing the child in the level task.parentLevel index node
// whose key range covers the child's low key. It follows §5.3 — Search,
// Verify (posted-test; under CNS the child's existence needs no
// verification, nodes are immortal), Space Test (index key split with
// clipping, or root growth), Update — with all latches retained until the
// action commits.
func (t *Tree) postTerm(task postTask) {
	if _, dead := t.deadPages.Load(task.child); dead {
		// The child was reclaimed (and its page possibly recycled as an
		// unrelated node) after this task was scheduled; latching it to
		// re-test would read the impostor. The reaper only frees a page
		// with no remaining terms and no pending task, so nothing is owed.
		t.Stats.PostsNoop.Add(1)
		return
	}
	_ = t.kern.RetryLoop(nil, func(o *opCtx) error {
		node, err := t.descend(o, task.rect.KeyLow, NoEnd-1, task.parentLevel, latch.U, false)
		if errors.Is(err, errLevelGone) {
			t.Stats.PostsNoop.Add(1)
			return nil
		}
		if err != nil {
			return err
		}

		if _, posted := node.N.termFor(task.child); posted {
			t.Stats.PostsNoop.Add(1)
			o.Release(&node)
			return nil
		}

		if task.parentLevel == 1 {
			// A side traversal may re-schedule posting for a node GC has
			// since retired; don't resurrect its term.
			child, err := o.Acquire(task.child, latch.S, 0)
			if err != nil {
				o.Release(&node)
				return err
			}
			retired := child.N.Retired
			if task.rect.TimeHigh == NoEnd {
				// A current node's term describes the node, not the task: a
				// key-sibling task rediscovered by a side traversal carries
				// the time bound of the node it was found FROM, which may
				// have time-split since the key split and then starts after
				// the sibling does (and an open key bound besides).
				task.rect = cloneRect(child.N.Rect)
			}
			o.Release(&child)
			if retired {
				t.Stats.PostsNoop.Add(1)
				o.Release(&node)
				return nil
			}
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

		// Space Test.
		for len(node.N.Entries) >= t.opts.IndexCapacity {
			k, ok := t.indexSplitKey(node.N)
			if !ok {
				// No usable boundary (e.g. the node is all history terms
				// of one key range): soft overflow rather than a complex
				// index time split; documented simplification.
				t.Stats.SoftOverflows.Add(1)
				break
			}
			if node.Pid() == t.root {
				next, err := t.growRoot(o, aa, &node, k, task.rect.KeyLow)
				if err != nil {
					releaseAll()
					_ = aa.Abort()
					return err
				}
				held = append(held, node)
				node = next
				continue
			}
			next, err := t.splitIndex(o, aa, &node, k, task.rect.KeyLow)
			if err != nil {
				releaseAll()
				_ = aa.Abort()
				return err
			}
			if next.F != nil {
				held = append(held, node)
				node = next
			}
		}

		if node.N.Level == 1 {
			term := Entry{Child: task.child, ChildRect: cloneRect(task.rect)}
			lsn := aa.LogUpdate(t.store.Pool.StoreID, uint64(node.Pid()), KindPostTerm, encTerm(term))
			node.N.insertTerm(term)
			node.F.MarkDirty(lsn)
		} else {
			lsn := aa.LogUpdate(t.store.Pool.StoreID, uint64(node.Pid()), KindPostKeyTerm, encKeyTerm(task.rect.KeyLow, task.child))
			node.N.insertKeyTerm(Entry{Key: keys.Clone(task.rect.KeyLow), Child: task.child})
			node.F.MarkDirty(lsn)
		}
		err = aa.Commit()
		releaseAll()
		if err != nil {
			return err
		}
		t.Stats.PostsPerformed.Add(1)
		return nil
	})
}

// indexSplitKey picks a key boundary that puts at least one whole term on
// each side: the median distinct boundary strictly above the node's low
// key. Level-1 boundaries come from term KeyLows; clipping handles terms
// that span the chosen key.
func (t *Tree) indexSplitKey(n *Node) (keys.Key, bool) {
	var bounds []keys.Key
	seen := map[string]bool{}
	for _, e := range n.Entries {
		var b keys.Key
		if n.Level == 1 {
			b = e.ChildRect.KeyLow
		} else {
			b = e.Key
		}
		if b == nil {
			continue
		}
		if n.Rect.KeyLow != nil && keys.Compare(b, n.Rect.KeyLow) <= 0 {
			continue
		}
		if !seen[string(b)] {
			seen[string(b)] = true
			bounds = append(bounds, b)
		}
	}
	if len(bounds) == 0 {
		return nil, false
	}
	sortKeys(bounds)
	return keys.Clone(bounds[len(bounds)/2]), true
}

func sortKeys(ks []keys.Key) {
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && keys.Compare(ks[j], ks[j-1]) < 0; j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
}

// splitIndex key-splits the X-latched index node at k inside the posting
// action, CLIPPING spanning level-1 terms into both halves (§3.2.2). It
// returns the half that covers searchKey X-latched (a zero nref when the
// original node still covers it), schedules the upper-level posting after
// the enclosing action commits via the completer (safe: the sibling is
// only reachable through the side pointer until then, and the whole
// action holds its latches to commit).
func (t *Tree) splitIndex(o *opCtx, aa storage.UpdateLogger, node *nref, k keys.Key, searchKey keys.Key) (nref, error) {
	n := node.N
	pre := n.clone()
	sibPid, err := t.store.Alloc(aa, &o.Tr)
	if err != nil {
		return nref{}, err
	}
	entries, clipped := indexSiblingEntries(pre, k)
	sib := &Node{
		Level: n.Level,
		Rect: Rect{
			KeyLow:   keys.Clone(k),
			KeyHigh:  pre.Rect.KeyHigh,
			TimeLow:  0,
			TimeHigh: NoEnd,
		},
		KeySib:  pre.KeySib,
		Entries: entries,
	}
	sib.Rect.KeyHigh.Key = keys.Clone(sib.Rect.KeyHigh.Key)
	if err := t.formatNode(o, aa, sibPid, sib); err != nil {
		return nref{}, err
	}
	lsn := aa.LogUpdate(t.store.Pool.StoreID, uint64(node.Pid()), KindIndexKeySplit, encKeySplit(k, sibPid, pre))
	applyIndexKeySplit(n, k, sibPid)
	node.F.MarkDirty(lsn)
	t.Stats.IndexSplits.Add(1)
	t.Stats.ClippedTerms.Add(int64(clipped))
	t.schedule(postTask{
		parentLevel: n.Level + 1,
		child:       sibPid,
		rect:        cloneRect(sib.Rect),
	})
	if keys.Compare(searchKey, k) >= 0 {
		return o.Acquire(sibPid, latch.X, n.Level)
	}
	return nref{}, nil
}

// growRoot raises the tree height: the root's contents move to two new
// nodes A (low half, side pointer to B) and B (high half), and the root
// becomes an index node one level up with two key terms. The root page
// never moves. Returns the half covering searchKey, X-latched.
func (t *Tree) growRoot(o *opCtx, aa storage.UpdateLogger, root *nref, k keys.Key, searchKey keys.Key) (nref, error) {
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
	entriesB, clippedB := indexSiblingEntries(pre, k)
	nodeB := &Node{
		Level:   pre.Level,
		Rect:    Rect{KeyLow: keys.Clone(k), KeyHigh: keys.Inf, TimeLow: 0, TimeHigh: NoEnd},
		Entries: entriesB,
	}
	nodeA := &Node{
		Level:  pre.Level,
		Rect:   Rect{KeyLow: nil, KeyHigh: keys.At(k), TimeLow: 0, TimeHigh: NoEnd},
		KeySib: pidB,
	}
	for _, e := range pre.Entries {
		if pre.Level == 1 {
			if keys.Compare(e.ChildRect.KeyLow, k) < 0 {
				c := cloneEntry(e)
				if e.ChildRect.SpansKey(k) {
					c.Clipped = true
				}
				nodeA.Entries = append(nodeA.Entries, c)
			}
		} else if keys.Compare(e.Key, k) < 0 {
			nodeA.Entries = append(nodeA.Entries, cloneEntry(e))
		}
	}
	if err := t.formatNode(o, aa, pidB, nodeB); err != nil {
		return nref{}, err
	}
	if err := t.formatNode(o, aa, pidA, nodeA); err != nil {
		return nref{}, err
	}

	termA := Entry{Key: nil, Child: pidA}
	termB := Entry{Key: keys.Clone(k), Child: pidB}
	lsn := aa.LogUpdate(t.store.Pool.StoreID, uint64(root.Pid()), KindRootGrow, encRootGrow(termA, termB, pre))
	n.Level++
	n.Entries = []Entry{termA, termB}
	n.Rect = EntireRect()
	n.KeySib = storage.NilPage
	n.HistSib = storage.NilPage
	root.F.MarkDirty(lsn)
	t.Stats.RootGrowths.Add(1)
	t.Stats.ClippedTerms.Add(int64(clippedB))

	pid := pidA
	if keys.Compare(searchKey, k) >= 0 {
		pid = pidB
	}
	return o.Acquire(pid, latch.X, pre.Level)
}
