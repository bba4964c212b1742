package core

import (
	"errors"
	"fmt"

	"repro/internal/enc"
	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Search looks up key and returns a copy of its value. With a non-nil
// transaction the record is read under an S lock held to transaction end
// (degree-3 reads); with nil it is a latched-only read.
func (t *Tree) Search(tx *txn.Txn, key keys.Key) (val []byte, found bool, err error) {
	return t.SearchInto(tx, key, nil)
}

// SearchInto is Search with caller-provided value storage: the record's
// value is appended to buf (which may be nil) and the result returned,
// so a caller reusing a scratch buffer across lookups pays no per-hit
// allocation. The returned slice aliases buf's array when it had
// capacity. Locking semantics match Search.
func (t *Tree) SearchInto(tx *txn.Txn, key keys.Key, buf []byte) (val []byte, found bool, err error) {
	t.Stats.Searches.Add(1)
	// The retry loop is written out instead of going through RetryLoop:
	// a closure there would capture key/buf/val and is the one heap
	// allocation left on the point-lookup path (see TestSearchIntoAllocs).
	for {
		o := t.kern.NewOp(tx)
		leaf, err := t.descendTo(o, key, 0, latch.S, true, nil)
		if err == nil {
			// errRetry here means the lock was waited for and is now held;
			// redo the descent under it.
			if err = o.LockDance(tx, &leaf, t.recLockName(key), lock.S); err == nil {
				if i, ok := leaf.N.search(key); ok {
					val = append(buf[:0], leaf.N.entry(i).Value...)
					found = true
				}
				o.Release(&leaf)
				o.Done()
				return val, found, nil
			}
		}
		o.Done()
		if errors.Is(err, errRetry) {
			t.Stats.Restarts.Add(1)
			continue
		}
		return nil, false, err
	}
}

// Insert adds key with value. It returns ErrKeyExists if the key is
// already present. With a nil transaction the insert runs as its own
// atomic action (non-transactional mode: no database locks, immediate
// commit).
func (t *Tree) Insert(tx *txn.Txn, key keys.Key, value []byte) error {
	t.Stats.Inserts.Add(1)
	return t.write(tx, opInsert, []keys.Key{key}, [][]byte{value})
}

// Update replaces the value of an existing key; ErrKeyNotFound otherwise.
func (t *Tree) Update(tx *txn.Txn, key keys.Key, value []byte) error {
	t.Stats.Updates.Add(1)
	return t.write(tx, opUpdate, []keys.Key{key}, [][]byte{value})
}

// Delete removes key; ErrKeyNotFound if absent. Under the CP invariant a
// leaf left under-utilized schedules a consolidation attempt (§5.1).
func (t *Tree) Delete(tx *txn.Txn, key keys.Key) error {
	t.Stats.Deletes.Add(1)
	return t.write(tx, opDelete, []keys.Key{key}, nil)
}

// writeOp says what a leaf write does with a key it finds or misses.
type writeOp uint8

const (
	opInsert writeOp = iota // ErrKeyExists if present
	opUpdate                // ErrKeyNotFound if absent
	opDelete                // ErrKeyNotFound if absent
	opUpsert                // MultiPut: insert or replace
	opRemove                // MultiDelete: an absent key is skipped
)

// batched: the Multi* operations count their runs, and count each key as
// what it turned out to be.
func (op writeOp) batched() bool { return op >= opUpsert }

// leafWrite is the tree's side of the kernel's leaf update action
// (pitree.LeafWriter): every write, single-key or batched, is the kernel's
// Update over ks with these hooks, and every logical undo its Compensate
// of one key.
type leafWrite struct {
	t    *Tree
	op   writeOp
	ks   []keys.Key
	vals [][]byte
	// undo marks a compensation (§4.2): a key already as the undo would
	// leave it is skipped, not refused, and only an insert needs room.
	undo bool
	// delta, in the logical undo of an update, stands for the one value
	// in vals: the inverse of the update's delta, applied to the value the
	// key holds now.
	delta *valueDelta
	// path is the current attempt's saved path, for the posting a split
	// schedules.
	path Path
	// cons is the consolidation a delete found worthwhile under the latch;
	// After schedules it once the run is committed.
	cons   consolidateTask
	shrunk bool
}

func (t *Tree) write(tx *txn.Txn, op writeOp, ks []keys.Key, vals [][]byte) error {
	for i := range vals {
		// A node's bounds and an index term may each hold the key again.
		if err := t.kern.Admit(leafSize(ks[i], vals[i]) + len(ks[i])); err != nil {
			return err
		}
	}
	w := &leafWrite{t: t, op: op, ks: ks, vals: vals}
	return t.kern.Update(tx, len(ks), w.less, w)
}

func (w *leafWrite) less(i, j int) bool       { return keys.Compare(w.ks[i], w.ks[j]) < 0 }
func (w *leafWrite) Key(i int) keys.Key       { return w.ks[i] }
func (w *leafWrite) LockName(i int) lock.Name { return w.t.recLockName(w.ks[i]) }

func (w *leafWrite) Trace() any {
	w.path = Path{}
	return &w.path
}

// Need: a write adds a new record's bytes, or a replaced one's growth; a
// delete adds none, nor does an insert of a key already there (Apply
// refuses it, or a compensation skips it).
func (w *leafWrite) Need(n *Node, i int) int {
	need := w.most(i)
	if need == 0 {
		return 0
	}
	if j, ok := n.search(w.ks[i]); ok {
		if w.op == opInsert {
			return 0
		}
		return max(need-len(n.recs.At(j)), 0)
	}
	return need
}

// most is the most bytes item i can need: a new record's, none for a
// delete.
func (w *leafWrite) most(i int) int {
	if w.op == opDelete || w.op == opRemove {
		return 0
	}
	return leafSize(w.ks[i], nil) + w.valueLen(i)
}

// Full: a write splits the leaf first when its need would not fit — the
// search Need makes is only paid near the leaf's room. Under an entry
// cap, any write to a leaf at the cap splits it as well, whether or not
// the write itself needs room — except a compensation, where only an
// insert does.
func (w *leafWrite) Full(n *Node, i int) bool {
	if c := w.t.opts.LeafCapacity; c > 0 && n.Len() >= c && (!w.undo || w.op == opInsert) {
		return true
	}
	return !w.t.kern.Fits(n, w.most(i)) && !w.t.kern.Fits(n, w.Need(n, i))
}

func (w *leafWrite) Reserve(n *Node, bytes int) { n.recs.Reserve(bytes) }

// valueLen is the length of the value item i writes.
func (w *leafWrite) valueLen(i int) int {
	if w.delta != nil {
		return w.delta.to
	}
	return len(w.vals[i])
}

func (w *leafWrite) Split(o *opCtx, leaf nref) error { return w.t.splitLeaf(o, &leaf, &w.path) }

// miss is Apply's answer for a key found in the wrong state: err, or no
// change for MultiDelete's absent key and for a compensation — repeating
// history makes that rare, and the undo chain moves past it all the same.
func (w *leafWrite) miss(err error) (txn.GroupUpdate, error) {
	if w.undo || w.op == opRemove {
		err = nil
	}
	return txn.GroupUpdate{}, err
}

func (w *leafWrite) Apply(leaf nref, i int) (txn.GroupUpdate, error) {
	t, n, k := w.t, leaf.N, w.ks[i]
	batched := w.op.batched()
	j, exists := n.search(k)
	before := t.fill(n)
	var up txn.GroupUpdate
	switch {
	case w.op == opDelete || w.op == opRemove:
		if !exists {
			return w.miss(ErrKeyNotFound)
		}
		up = txn.GroupUpdate{Kind: KindDeleteRecord, Payload: appendLeaf(nil, k, n.entry(j).Value)}
		n.recs.Delete(j)
		if batched {
			t.Stats.Deletes.Add(1)
		}
		w.cons, w.shrunk = t.consolidationFor(&leaf)
	case exists:
		if w.op == opInsert {
			return w.miss(ErrKeyExists)
		}
		if cur := n.entry(j).Value; w.delta != nil {
			var scratch [256]byte
			v, err := w.delta.apply(scratch[:0], cur)
			if err != nil {
				return txn.GroupUpdate{}, err
			}
			up = txn.GroupUpdate{Kind: KindUpdateRecord, Payload: appendDelta(nil, *w.delta)}
			n.setValue(j, enc.NilIfEmpty(v))
		} else {
			up = txn.GroupUpdate{Kind: KindUpdateRecord, Payload: appendUpdate(nil, k, cur, w.vals[i])}
			n.setValue(j, enc.NilIfEmpty(w.vals[i]))
		}
		if batched {
			t.Stats.Updates.Add(1)
		}
	default:
		if w.op == opUpdate {
			return w.miss(ErrKeyNotFound)
		}
		up = txn.GroupUpdate{Kind: KindInsertRecord, Payload: appendLeaf(nil, k, w.vals[i])}
		n.insertAt(j, Entry{Key: k, Value: enc.NilIfEmpty(w.vals[i])})
		if batched {
			t.Stats.Inserts.Add(1)
		}
	}
	t.Stats.NoteLeafUtil(before, t.fill(n), t.capacity(0))
	return up, nil
}

func (w *leafWrite) After(applied int) {
	if w.op.batched() {
		w.t.Stats.BatchOps.Add(1)
		w.t.Stats.LeafVisitsSaved.Add(int64(applied - 1))
	}
	if w.shrunk {
		w.shrunk = false
		w.t.scheduleConsolidate(w.cons)
	}
}

// splitLeaf splits the U-latched leaf. On return the latch is released
// (whatever the outcome) and the caller retries its operation.
//
// Mode selection (§4.2.1): with non-page-oriented (logical) undo, every
// split is an independent atomic action. With page-oriented undo the
// split is independent only if the triggering transaction has not updated
// anything on this leaf; otherwise the records to be moved include the
// transaction's own uncommitted updates, the move could not be undone
// independently, and the split must run inside the transaction, its move
// lock held to end of transaction and its index-term posting deferred to
// commit.
func (t *Tree) splitLeaf(o *opCtx, leaf *nref, path *Path) error {
	cut, err := t.cutOf(leaf.N, path)
	if err != nil {
		o.Release(leaf)
		return err
	}
	tx := o.Txn
	pageName := t.pageLockName(leaf.Pid())
	if t.binding.PageOriented() && tx != nil {
		if _, held := t.lm.HeldMode(tx.ID, pageName); held {
			cut.inTxn = true
			return t.splitLeafInTxn(o, leaf, cut, pageName)
		}
	}

	// Independent atomic action. It commits before the latch drops (see
	// pitree.Op.Atomic): the new sibling becomes reachable only once the
	// old node's latch is released, by which time the split's commit
	// record precedes anything a dependent action can log.
	return o.Atomic(func(aa *txn.Txn) error {
		if t.binding.PageOriented() {
			// A conflicting move lock forces the latch down before blocking
			// (No-Wait); the action is then abandoned and the retry
			// re-examines the (possibly changed) node.
			if t.opts.RecordMoveLocks {
				// Record-set realization (§4.2.2): MV-lock every record that
				// the split will move. A conflict means some transaction has
				// an undoable update on a to-be-moved record.
				for i := leaf.N.Len() / 2; i < leaf.N.Len(); i++ {
					if err := t.moveLockDance(o, aa, leaf, t.recLockName(leaf.N.keyAt(i))); err != nil {
						return err
					}
				}
			} else if err := t.moveLockDance(o, aa, leaf, pageName); err != nil {
				// Page-granule realization: one lock that waits for every
				// transaction updating records on this page.
				return err
			}
		}
		o.Hold(leaf)
		o.Promote(leaf)
		return t.kern.Split(o, aa, leaf, cut)
	})
}

// moveLockDance takes the MV lock on name for act under the No-Wait rule,
// counting the wait when the conflicting updaters had to be waited out
// (the latch is then gone and the split returns the error).
func (t *Tree) moveLockDance(o *opCtx, act *txn.Txn, leaf *nref, name lock.Name) error {
	err := o.LockDance(act, leaf, name, lock.MV)
	if err != nil {
		t.Stats.MoveLockWaits.Add(1)
	}
	return err
}

// splitLeafInTxn performs the split inside the updating transaction.
func (t *Tree) splitLeafInTxn(o *opCtx, leaf *nref, cut *halfCut, pageName lock.Name) error {
	tx := o.Txn
	// Upgrade our IX to the move lock; other updaters force the No-Wait
	// dance.
	if err := t.moveLockDance(o, tx, leaf, pageName); err != nil {
		return err
	}
	o.Promote(leaf)

	// Under the CNS invariant nodes are immortal: the new page must not
	// be freed even if tx aborts, because a concurrent traversal may
	// still hold its address with no latch coupling to protect it. The
	// allocation is wrapped in a nested top-level action so an abort
	// leaks the page instead of reclaiming it. Under CP, coupling makes
	// reclamation safe and the allocation stays in tx's undo chain.
	// §4.2.2: "The posting of the index term for splits cannot occur
	// until and unless T commits" — the kernel queues it on tx's commit.
	var nt txn.NestedToken
	useNTA := !t.opts.Consolidation
	if useNTA {
		nt = tx.BeginNested()
	}
	err := t.kern.Split(o, tx, leaf, cut)
	if useNTA {
		tx.CommitNested(nt)
	}
	o.Release(leaf)
	return err
}

// halfCut is the tree's one split (pitree.Cut): the node's entries from the
// middle one on go to the new sibling, whose index term — the separator and
// the new page — is the split record (KindSplitTruncate). Its undo takes the
// sibling back: a KindConsolidateMove of the sibling's image.
type halfCut struct {
	t *Tree
	// path is the saved path the sibling's posting starts from; inTxn marks
	// a split inside the updating transaction.
	path  Path
	inTxn bool
	// Set by Sibling: the node's level and fill, and the separator.
	level, before int
	sep           keys.Key
}

// cutOf returns the cut of the full node n, with a copy of the saved path
// (nil for none).
func (t *Tree) cutOf(n *Node, path *Path) (*halfCut, error) {
	if n.Len() < 2 {
		return nil, fmt.Errorf("core: split of a node with %d entries", n.Len())
	}
	c := &halfCut{t: t}
	if path != nil {
		c.path = *path
	}
	return c, nil
}

func (*halfCut) Kind() wal.Kind { return KindSplitTruncate }

func (c *halfCut) Sibling(n *Node, sib storage.PageID) (*Node, []byte) {
	mid := n.Len() / 2
	c.level, c.before, c.sep = n.Level, c.t.fill(n), keys.Clone(n.keyAt(mid))
	return &Node{Level: n.Level, Low: c.sep, High: n.High, Right: n.Right, recs: n.recs.Slice(mid, n.Len())}, appendTerm(nil, c.sep, sib)
}

func (*halfCut) Apply(n *Node, payload []byte) error {
	cut, err := decRecord(1, payload)
	if err != nil {
		return err
	}
	i, _ := n.search(cut.Key)
	n.recs = n.recs.Slice(0, i)
	n.High = keys.At(keys.Clone(cut.Key))
	n.Right = cut.Child
	return nil
}

func (*halfCut) Undo(payload []byte, sibling func(storage.PageID) (*Node, []byte, error)) (storage.Compensation, error) {
	cut, err := decRecord(1, payload)
	var img []byte
	if err == nil {
		_, img, err = sibling(cut.Child)
	}
	return storage.Compensation{Kind: KindConsolidateMove, Payload: encConsolidateMove(cut.Child, img)}, err
}

func (c *halfCut) Done(n, sib *Node, grew bool) {
	st := &c.t.Stats
	switch {
	case grew:
		st.RootGrowths.Add(1)
	case c.level > 0:
		st.IndexSplits.Add(1)
	default:
		st.LeafSplits.Add(1)
		if c.inTxn {
			st.InTxnSplits.Add(1)
		}
	}
	if c.level == 0 {
		// The leaf's entries are in two leaves now (at the root, two new ones).
		st.NoteLeafUtil(c.before, c.t.fill(n), c.t.capacity(0))
		st.NoteLeafUtil(-1, c.t.fill(sib), c.t.capacity(0))
	}
}

// Post queues the posting of the sibling's term one level up (§3.2.1 step
// 6: "Posting occurs in a separate atomic action from the action that
// performs the split").
func (c *halfCut) Post(_, sib storage.PageID) {
	if c.t.opts.NoCompletion {
		return
	}
	c.t.schedulePost(postTask{level: c.level + 1, sep: c.sep, newPid: sib, path: c.path})
}

// consolidationFor reports the consolidation attempt worth scheduling
// for the latched non-root node r, if it is now under-utilized (CP
// invariant only).
func (t *Tree) consolidationFor(r *nref) (consolidateTask, bool) {
	if !t.opts.Consolidation || t.opts.NoCompletion || r.Pid() == t.root ||
		t.fill(r.N) >= minEntries(t.capacity(r.N.Level)) {
		return consolidateTask{}, false
	}
	return consolidateTask{level: r.N.Level, low: keys.Clone(r.N.Low), pid: r.Pid()}, true
}

// RangeScan calls fn for each key in [lo, hi) in order, stopping early if
// fn returns false. hi may be nil for an unbounded scan. The scan is the
// kernel's leaf walk (pitree.Kernel.Scan): latch-consistent per leaf, and
// with a non-nil transaction every record is S-locked to transaction end
// and its value read under the lock, so fn never sees a value an
// uncommitted writer left; what was delivered is repeatable, and there is
// no phantom protection. Keys and values passed to fn are copies.
func (t *Tree) RangeScan(tx *txn.Txn, lo, hi keys.Key, fn func(k keys.Key, v []byte) bool) error {
	return t.kern.Scan(tx, keys.Clone(lo), &rangeScan{t: t, hi: hi, fn: fn})
}

// rangeScan is RangeScan's side of the kernel's leaf walk
// (pitree.Scanner): batch holds copies of one leaf's records in the range.
type rangeScan struct {
	t     *Tree
	hi    keys.Key
	fn    func(k keys.Key, v []byte) bool
	batch []Entry
}

func (s *rangeScan) Collect(leaf nref, cursor keys.Key) (int, keys.Key, storage.PageID, bool) {
	n := leaf.N
	s.batch = s.batch[:0]
	first, _ := n.search(cursor)
	for i := first; i < n.Len(); i++ {
		e := n.entry(i)
		if s.hi != nil && keys.Compare(e.Key, s.hi) >= 0 {
			return len(s.batch), nil, storage.NilPage, false
		}
		s.batch = append(s.batch, Entry{Key: keys.Clone(e.Key), Value: append([]byte(nil), e.Value...)})
	}
	if n.High.Unbounded || (s.hi != nil && keys.Compare(n.High.Key, s.hi) >= 0) {
		return len(s.batch), nil, storage.NilPage, false
	}
	return len(s.batch), keys.Clone(n.High.Key), n.Right, true
}

func (s *rangeScan) LockName(i int) lock.Name { return s.t.recLockName(s.batch[i].Key) }

func (s *rangeScan) Emit() (bool, error) {
	for _, e := range s.batch {
		if !s.fn(e.Key, e.Value) {
			return false, nil
		}
	}
	return true, nil
}
