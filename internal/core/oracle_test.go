package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/enc"
	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// appendEntries puts es behind n's entries, in the order given.
func appendEntries(n *Node, es ...Entry) {
	for _, e := range es {
		n.recs.Insert(n.Len(), appendEntry(nil, n.Level, e))
	}
}

// entriesOf returns views of all of n's entries.
func entriesOf(n *Node) []Entry {
	var es []Entry
	for i := 0; i < n.Len(); i++ {
		es = append(es, n.entry(i))
	}
	return es
}

// oracleNode is the node as it was decoded before it kept its records
// encoded — one struct per entry — with the field-by-field codec of that
// time: the reference the page format is held to.
type oracleNode struct {
	Level   int
	Low     keys.Key
	High    keys.Bound
	Right   storage.PageID
	Dead    bool
	Entries []Entry
}

func oracleEncodeNode(w *enc.Writer, n *oracleNode) {
	w.U16(uint16(n.Level))
	w.Bool(n.Dead)
	w.Bytes32(n.Low)
	w.Bool(n.High.Unbounded)
	w.Bytes32(n.High.Key)
	w.U64(uint64(n.Right))
	w.U32(uint32(len(n.Entries)))
	for _, e := range n.Entries {
		w.Bytes32(e.Key)
		w.Bytes32(e.Value)
		w.U64(uint64(e.Child))
	}
}

func oracleDecodeNode(r *enc.Reader) (*oracleNode, error) {
	n := &oracleNode{}
	n.Level = int(r.U16())
	n.Dead = r.Bool()
	n.Low = r.Bytes32()
	n.High.Unbounded = r.Bool()
	n.High.Key = r.Bytes32()
	n.Right = storage.PageID(r.U64())
	cnt := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if cnt > r.Remaining()/(4+4+8) {
		return nil, enc.ErrTruncated
	}
	n.Entries = make([]Entry, 0, cnt)
	for i := 0; i < cnt; i++ {
		e := Entry{Key: r.Bytes32(), Value: r.Bytes32()}
		e.Child = storage.PageID(r.U64())
		if r.Err() != nil {
			return nil, r.Err()
		}
		n.Entries = append(n.Entries, e)
	}
	return n, r.Err()
}

// sameBytes reports whether a and b are equal, nil-ness included.
func sameBytes(a, b []byte) bool { return bytes.Equal(a, b) && (a == nil) == (b == nil) }

// TestImageByteIdentity: seeded random nodes of both levels — nil, empty
// and unbounded keys, nil and empty values, a dead flag — encoded by the
// old codec (the oracle, every field in every entry) and by the node codec
// (each level's fields only) read the same, header and entries field by
// field; the node's image is smaller by exactly what the level leaves out,
// 8 bytes a leaf entry (the child) and 4 an index term (the nil value); and
// it decodes and re-encodes to itself, also after every record was taken
// out of the buffer and put back in random order.
func TestImageByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	blob := func(max int) []byte {
		switch rng.Intn(6) {
		case 0:
			return nil
		case 1:
			return []byte{}
		}
		b := make([]byte, 1+rng.Intn(max))
		rng.Read(b)
		return b
	}
	for i := 0; i < 500; i++ {
		o := &oracleNode{Level: rng.Intn(3), Low: blob(12), Right: storage.PageID(rng.Intn(1000)), Dead: rng.Intn(8) == 0}
		o.High = keys.Bound{Unbounded: rng.Intn(3) == 0, Key: blob(12)}
		for j, cnt := 0, rng.Intn(40); j < cnt; j++ {
			e := Entry{Key: blob(24)}
			if o.Level == 0 {
				e.Value = blob(120)
			} else {
				e.Child = storage.PageID(rng.Uint64())
			}
			o.Entries = append(o.Entries, e)
		}
		var w enc.Writer
		oracleEncodeNode(&w, o)
		old := w.Bytes()
		od, err := oracleDecodeNode(enc.NewReader(old))
		if err != nil {
			t.Fatalf("node %d: oracle decode: %v", i, err)
		}

		built := &Node{Level: o.Level, Low: o.Low, High: o.High, Right: o.Right, Dead: o.Dead}
		appendEntries(built, o.Entries...)
		img, _ := (Codec{}).AppendPage(nil, built)
		if saved, per := len(old)-len(img), []int{8, 4}[min(o.Level, 1)]; saved != per*len(o.Entries) {
			t.Fatalf("node %d (level %d, %d entries): the image is %d bytes smaller, want %d", i, o.Level, len(o.Entries), saved, per*len(o.Entries))
		}
		dec, err := (Codec{}).DecodePage(bytes.Clone(img))
		if err != nil {
			t.Fatalf("node %d: decode: %v", i, err)
		}
		n := dec.(*Node)
		if n.Level != od.Level || n.Dead != od.Dead || n.Right != od.Right || !sameBytes(n.Low, od.Low) ||
			n.High.Unbounded != od.High.Unbounded || !sameBytes(n.High.Key, od.High.Key) {
			t.Fatalf("node %d: header %v, the oracle reads %+v", i, n, od)
		}
		if n.Len() != len(od.Entries) {
			t.Fatalf("node %d: %d entries, the oracle reads %d", i, n.Len(), len(od.Entries))
		}
		for j, want := range od.Entries {
			if e := n.entry(j); !sameBytes(e.Key, want.Key) || !sameBytes(e.Value, want.Value) || e.Child != want.Child {
				t.Fatalf("node %d entry %d: %+v, the oracle reads %+v", i, j, e, want)
			}
		}
		if got, _ := (Codec{}).AppendPage(nil, n); !bytes.Equal(got, img) {
			t.Fatalf("node %d: image\n%x re-encodes as\n%x", i, img, got)
		}
		// Scramble the buffer — every record out and back in, in random
		// order, so physical and logical order part and holes open — and
		// the image must not change.
		for _, j := range rng.Perm(n.Len()) {
			rec := bytes.Clone(n.recs.At(j))
			n.recs.Delete(j)
			n.recs.Insert(j, rec)
		}
		if got, _ := (Codec{}).AppendPage(nil, n); !bytes.Equal(got, img) {
			t.Fatalf("node %d: after delete and re-insert of every record the image is\n%x, want\n%x", i, got, img)
		}
		if n.recs.Size() != len(img)-len(headerOf(t, img)) {
			t.Fatalf("node %d: Size %d, image holds %d bytes of records", i, n.recs.Size(), len(img)-len(headerOf(t, img)))
		}
	}
}

// headerOf returns the part of img in front of its records.
func headerOf(t *testing.T, img []byte) []byte {
	t.Helper()
	r := enc.NewReader(img)
	r.U16()
	r.Bool()
	r.Bytes32()
	r.Bool()
	r.Bytes32()
	r.U64()
	r.U32()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return img[:len(img)-r.Remaining()]
}

// The split as splitNode and splitRoot wrote it before Kernel.Split
// (internal/core/ops.go): the node's upper half, from its middle entry on,
// went to the sibling, and the split record was the sibling's index term;
// its undo, through the sibling image, a consolidate move of that image. At
// the root the upper half went to B and the lower to A, side pointer to B.
// The reference the kernel's split is held to (TestSplitLogIdentity).

func oracleSplit(pre *Node, newPid storage.PageID) (image, payload []byte) {
	count := pre.Len()
	mid := count / 2
	sep := keys.Clone(pre.keyAt(mid))
	upper := &Node{Level: pre.Level, Low: sep, High: pre.High, Right: pre.Right, recs: pre.recs.Slice(mid, count)}
	return encNodeImage(upper), appendTerm(nil, sep, newPid)
}

// oracleUnsplit is the payload of the consolidate move that undid the
// split whose sibling's image and record are given.
func oracleUnsplit(image, payload []byte) []byte {
	cut, err := decRecord(1, payload)
	if err != nil {
		panic(err)
	}
	var w enc.Writer
	w.U64(uint64(cut.Child))
	return append(w.Bytes(), image...)
}

// oracleRootSplit returns the images of the root pre's halves on pidA and
// pidB and the growth record over them.
func oracleRootSplit(pre *Node, pidA, pidB storage.PageID) (imageA, imageB, grow []byte) {
	mid := pre.Len() / 2
	sep := keys.Clone(pre.keyAt(mid))
	b := &Node{Level: pre.Level, Low: sep, High: pre.High, Right: pre.Right, recs: pre.recs.Slice(mid, pre.Len())}
	a := &Node{Level: pre.Level, Low: keys.Clone(pre.Low), High: keys.At(b.Low), Right: pidB, recs: pre.recs.Slice(0, mid)}
	return encNodeImage(a), encNodeImage(b), oracleEncRootGrow(Entry{Key: pre.Low, Child: pidA}, Entry{Key: b.Low, Child: pidB}, pre)
}

// The growth record as kinds.go wrote it before Kernel.Grow: the grown
// root's two index terms, then the root's image as it was, which its undo
// restored. The reference the kernel's growth is held to
// (TestGrowLogIdentity).

func oracleEncRootGrow(termA, termB Entry, pre *Node) []byte {
	var w enc.Writer
	w.Reset(appendTerm(appendTerm(nil, termA.Key, termA.Child), termB.Key, termB.Child))
	encodeNode(&w, pre)
	return w.Bytes()
}

// oracleRestore is the payload of the restore that undid the growth b.
func oracleRestore(b []byte) []byte {
	r := enc.NewReader(b)
	r.Records(2, termLayout)
	pre, err := decodeNode(r)
	if err != nil {
		panic(err)
	}
	return encNodeImage(pre)
}

// The logical undo as PR 24 wrote it (internal/core/undo.go): one
// hand-written re-traversal per record kind, taking the rolling-back
// transaction directly instead of looking it up. The reference the
// kernel's Compensate is held to (TestCompensateCLRIdentity). Since log
// format 5 its update CLR carries the inverse of the update's delta.

func (t *Tree) oracleUndoDelete(rec *wal.Record, tx storage.CLRLogger, k keys.Key) error {
	return t.kern.RetryLoop(nil, func(o *opCtx) error {
		leaf, err := t.descendTo(o, k, 0, latch.U, false, nil)
		if err != nil {
			return err
		}
		i, ok := leaf.N.search(k)
		if !ok {
			o.Release(&leaf)
			tx.LogCLR(nil, 0, nil, rec.PrevLSN)
			return nil
		}
		o.Promote(&leaf)
		tx.LogCLR(leaf.F, KindDeleteRecord, appendLeaf(nil, k, leaf.N.entry(i).Value), rec.PrevLSN)
		leaf.N.recs.Delete(i)
		o.Release(&leaf)
		return nil
	})
}

func (t *Tree) oracleUndoInsert(rec *wal.Record, tx storage.CLRLogger, k keys.Key, v []byte) error {
	return t.kern.RetryLoop(nil, func(o *opCtx) error {
		path := new(Path)
		leaf, err := t.descendTo(o, k, 0, latch.U, false, path)
		if err != nil {
			return err
		}
		if leaf.N.Len() >= t.opts.LeafCapacity {
			if err := t.splitLeaf(o, &leaf, path); err != nil {
				return err
			}
			return errRetry
		}
		if _, dup := leaf.N.search(k); dup {
			o.Release(&leaf)
			tx.LogCLR(nil, 0, nil, rec.PrevLSN)
			return nil
		}
		o.Promote(&leaf)
		tx.LogCLR(leaf.F, KindInsertRecord, appendLeaf(nil, k, v), rec.PrevLSN)
		leaf.N.insertEntry(Entry{Key: k, Value: enc.NilIfEmpty(v)})
		o.Release(&leaf)
		return nil
	})
}

func (t *Tree) oracleUndoUpdate(rec *wal.Record, tx storage.CLRLogger, d valueDelta) error {
	inv := d.inverse()
	return t.kern.RetryLoop(nil, func(o *opCtx) error {
		leaf, err := t.descendTo(o, d.key, 0, latch.U, false, nil)
		if err != nil {
			return err
		}
		i, ok := leaf.N.search(d.key)
		if !ok {
			o.Release(&leaf)
			tx.LogCLR(nil, 0, nil, rec.PrevLSN)
			return nil
		}
		o.Promote(&leaf)
		v, err := inv.apply(nil, leaf.N.entry(i).Value)
		if err != nil {
			o.Release(&leaf)
			return err
		}
		tx.LogCLR(leaf.F, KindUpdateRecord, appendDelta(nil, inv), rec.PrevLSN)
		leaf.N.setValue(i, enc.NilIfEmpty(v))
		o.Release(&leaf)
		return nil
	})
}

// oracleRollback undoes tx's data records through the oracle, newest
// first, as txn's rollback walks the chain.
func (t *Tree) oracleRollback(log *wal.Log, tx *txn.Txn) error {
	for lsn := tx.LastLSN(); lsn != wal.NilLSN; {
		rec, err := log.Read(lsn)
		if err != nil {
			return err
		}
		switch rec.Kind {
		case KindInsertRecord:
			e, _ := decRecord(0, rec.Payload)
			err = t.oracleUndoDelete(&rec, tx, e.Key)
		case KindDeleteRecord:
			e, _ := decRecord(0, rec.Payload)
			err = t.oracleUndoInsert(&rec, tx, e.Key, e.Value)
		case KindUpdateRecord:
			d, _ := decUpdate(rec.Payload)
			err = t.oracleUndoUpdate(&rec, tx, d)
		}
		if err != nil {
			return err
		}
		lsn = rec.PrevLSN
	}
	return nil
}

// The free actions as they were written before Kernel.Absorb
// (internal/core/consolidate.go): each latches its victim, frees the page,
// probes the failpoint and commits on its own. The reference the kernel's
// Absorb is held to (TestFreeActionLogIdentity).

// errOracleAbandoned ends a consolidating action whose last re-test, made with
// the action already begun, found nothing to do: the action is aborted
// empty and the attempt counts as a no-op.
var errOracleAbandoned = errors.New("core: consolidation abandoned")

// oracleFreeNode de-allocates the X-latched victim as part of aa, marking it
// dead first under strategy (b): the bumped state identifier lets saved-
// path verification prove the de-allocation happened (§5.2.2(b)).
func (t *Tree) oracleFreeNode(o *opCtx, aa *txn.Txn, victim *nref) error {
	if t.opts.DeallocIsUpdate {
		aa.LogUpdate(victim.F, KindMarkDead, nil)
		victim.N.Dead = true
	}
	return t.store.Free(aa, &o.Tr, victim.Pid())
}

// oracleTryMerge merges parent's children at term positions bIdx (container)
// and cIdx (contained) if every §3.3 precondition still holds. It reports
// whether a merge was committed and whether the caller's sweep should
// stop (move-lock contention: the action's pages are busy and further
// pairs under this parent will likely hit the same transactions). The
// parent stays latched in every case — the caller owns its release — so
// one parent visit can try several pairs.
func (t *Tree) oracleTryMerge(o *opCtx, parent *nref, bIdx, cIdx int) (merged, stop bool, err error) {
	// The terms are read as views: cEntry's key is logged (copied) before
	// its term is deleted, the last use of either.
	bEntry := parent.N.entry(bIdx)
	cEntry := parent.N.entry(cIdx)
	level := parent.N.Level - 1
	capacity := t.opts.IndexCapacity
	if level == 0 {
		capacity = t.opts.LeafCapacity
	}

	// Latch-and-promote strictly TOP-DOWN, honoring the §4.1.1 promotion
	// rule: each node is promoted to X while no higher-ordered latch is
	// held, so the coupled readers the promotion waits out can always
	// drain downward through latches we have not taken yet. (Promoting
	// the parent while already holding a child's U latch deadlocks with a
	// reader that holds parent-S and waits for that child — the exact
	// cycle the rule exists to prevent.) The caller promoted the parent.
	b, err := o.Acquire(bEntry.Child, latch.U, level)
	if err != nil {
		return false, true, err
	}
	structOK := !b.N.Dead && b.N.Right == cEntry.Child &&
		!b.N.High.Unbounded && keys.Equal(b.N.High.Key, cEntry.Key)
	if !structOK {
		o.Release(&b)
		return false, false, nil
	}
	o.Promote(&b)
	c, err := o.Acquire(cEntry.Child, latch.U, level)
	if err != nil {
		o.Release(&b)
		return false, true, err
	}
	threshold := minEntries(capacity)
	ok := !c.N.Dead && keys.Equal(c.N.Low, cEntry.Key) &&
		b.N.Len()+c.N.Len() <= capacity &&
		(b.N.Len() < threshold || c.N.Len() < threshold)
	if !ok {
		o.Release(&c, &b)
		return false, false, nil
	}
	o.Promote(&c)

	bLen, cLen := b.N.Len(), c.N.Len()
	// An index container's last own term, read while it is latched: the
	// action releases b, and the cascade below starts from this junction.
	var junction consolidateTask
	if level > 0 {
		j := b.N.entry(bLen - 1)
		junction = consolidateTask{level: level - 1, low: keys.Clone(j.Key), pid: j.Child}
	}
	err = o.Atomic(func(aa *txn.Txn) error {
		o.Hold(&b, &c)
		if level == 0 && t.binding.PageOriented() {
			// Records move between pages: the move lock must exclude every
			// transaction with undoable updates on either page. TryLock only —
			// holding three latches while waiting for locks would break the
			// No-Wait rule; contention simply defers the consolidation.
			if !aa.TryLock(t.pageLockName(b.Pid()), lock.MV) ||
				!aa.TryLock(t.pageLockName(c.Pid()), lock.MV) {
				return errOracleAbandoned
			}
		}
		aa.LogUpdate(b.F, KindConsolidateMove, encConsolidateMove(c.Pid(), encNodeImage(c.N)))
		b.N.absorb(c.N)
		b.N.High = c.N.High
		b.N.Right = c.N.Right

		if err := t.oracleFreeNode(o, aa, &c); err != nil {
			return err
		}
		if err := t.store.Pool.Probe(storage.FPConsolidate); err != nil {
			return err
		}
		// The parent is changed last, once nothing can fail any more: it
		// stays latched by the caller's sweep, so an abort's undo — which
		// X-latches every page it compensates — must never reach it.
		aa.LogUpdate(parent.F, KindRemoveIndexTerm, appendTerm(nil, cEntry.Key, cEntry.Child))
		parent.N.recs.Delete(cIdx)
		return nil
	})
	if err != nil {
		if err == errOracleAbandoned {
			err = nil
		}
		return false, true, err
	}
	t.Stats.Consolidations.Add(1)
	if level == 0 {
		t.Stats.NoteLeafUtil(bLen, bLen+cLen, capacity)
		t.Stats.NoteLeafUtil(cLen, -1, capacity)
	} else {
		// Downward cascade, the counterpart of the upward escalation: the
		// absorbing index node now holds the absorbed node's child terms
		// adjacent to its own, so children separated by the old node
		// boundary can pair up for the first time. Nothing else re-triggers
		// them — their deletes are long done — so under sustained churn
		// each index merge would otherwise strand one under-filled child
		// per junction. Seed a task at the junction's left term.
		t.scheduleConsolidate(junction)
	}
	return true, false, nil
}

// oracleShrinkRoot reduces tree height by absorbing the root's single remaining
// child, when that child is the only node of its level. The root page
// itself never moves and is never de-allocated (§5.2.2 depends on that),
// so the absorption rewrites the root in place.
func (t *Tree) oracleShrinkRoot() {
	if !t.opts.Consolidation {
		return
	}
	_ = t.kern.RetryLoop(nil, func(o *opCtx) error {
		root, err := o.Acquire(t.root, latch.U, maxLevel)
		if err != nil {
			return err
		}
		if root.N.IsLeaf() || root.N.Len() != 1 {
			o.Release(&root)
			return nil
		}
		childPid := root.N.entry(0).Child
		child, err := o.Acquire(childPid, latch.U, root.N.Level-1)
		if err != nil {
			o.Release(&root)
			return err
		}
		if child.N.Dead || child.N.Right != storage.NilPage || !child.N.High.Unbounded {
			o.Release(&child, &root)
			return nil
		}
		// Top-down promotion per §4.1.1: the child's U latch would block
		// the root promotion's reader drain, so the root must be X before
		// the child is latched for good. Drop the child, promote the root,
		// re-latch and re-verify the child.
		o.Release(&child)
		o.Promote(&root)
		if root.N.Len() != 1 || root.N.entry(0).Child != childPid {
			o.Release(&root)
			return nil
		}
		err = o.Atomic(func(aa *txn.Txn) error {
			o.Hold(&root)
			if root.N.Level == 1 && t.binding.PageOriented() && !aa.TryLock(t.pageLockName(childPid), lock.MV) {
				return errOracleAbandoned
			}
			child, err := o.Acquire(childPid, latch.U, root.N.Level-1)
			if err != nil {
				return err
			}
			o.Hold(&child)
			if child.N.Dead || child.N.Right != storage.NilPage || !child.N.High.Unbounded {
				return errOracleAbandoned
			}
			o.Promote(&child)

			absorbed := child.N
			aa.LogUpdate(root.F, KindRootShrink, encRootShrink(absorbed, root.N))
			root.N.Level = absorbed.Level
			root.N.recs = absorbed.recs.Clone()
			root.N.High = absorbed.High
			root.N.Right = absorbed.Right
			if err := t.oracleFreeNode(o, aa, &child); err != nil {
				return err
			}
			return t.store.Pool.Probe(storage.FPConsolidate)
		})
		if err != nil {
			if err == errOracleAbandoned {
				err = nil
			}
			return err
		}
		t.Stats.RootShrinks.Add(1)
		return nil
	})
}
