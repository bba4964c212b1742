package spatial

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/enc"
	"repro/internal/latch"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// appendEntries puts es behind n's entries, in the order given.
func appendEntries(n *Node, es ...Entry) {
	for _, e := range es {
		n.insertAt(n.Len(), e)
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
	Direct  Rect
	Sibs    []SibTerm
	Entries []Entry
}

func oracleEncodeRect(w *enc.Writer, r Rect) {
	w.U64(r.X0)
	w.U64(r.Y0)
	w.U64(r.X1)
	w.U64(r.Y1)
}

func oracleEncodeNode(w *enc.Writer, n *oracleNode) {
	w.U16(uint16(n.Level))
	oracleEncodeRect(w, n.Direct)
	w.U32(uint32(len(n.Sibs)))
	for _, s := range n.Sibs {
		oracleEncodeRect(w, s.Rect)
		w.U64(uint64(s.Pid))
	}
	w.U32(uint32(len(n.Entries)))
	for _, e := range n.Entries {
		w.U64(e.P.X)
		w.U64(e.P.Y)
		w.Field(e.Value)
		oracleEncodeRect(w, e.Rect)
		w.U64(uint64(e.Child))
		w.Bool(e.Clipped)
	}
}

func oracleDecodeNode(r *enc.Reader) (*oracleNode, error) {
	n := &oracleNode{}
	n.Level = int(r.U16())
	n.Direct = decodeRect(r)
	ns := int(r.U32())
	if r.Err() != nil || ns > r.Remaining()/sibTermBytes {
		return nil, enc.ErrTruncated
	}
	for i := 0; i < ns; i++ {
		s := SibTerm{Rect: decodeRect(r)}
		s.Pid = storage.PageID(r.U64())
		n.Sibs = append(n.Sibs, s)
	}
	ne := int(r.U32())
	if r.Err() != nil || ne > r.Remaining()/(8+8+1+4*8+8+1) {
		return nil, enc.ErrTruncated
	}
	n.Entries = make([]Entry, 0, ne)
	for i := 0; i < ne; i++ {
		var e Entry
		e.P.X = r.U64()
		e.P.Y = r.U64()
		e.Value = r.Field()
		e.Rect = decodeRect(r)
		e.Child = storage.PageID(r.U64())
		e.Clipped = r.Bool()
		n.Entries = append(n.Entries, e)
	}
	return n, r.Err()
}

// TestImageByteIdentity: seeded random nodes of every level — nil and empty
// values, sibling terms, clipped terms — encoded by the old codec (the
// oracle, every field in every entry) and by the node codec (each level's
// fields only) read the same, header and entries field by field, through
// the entry view and through the level's single-field accessor; the node's
// image is smaller by exactly what the level leaves out, 41 bytes a point
// and 17 a term; and it decodes and re-encodes to itself, also after every
// record was taken out of the buffer and put back in random order.
func TestImageByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	rect := func() Rect { return Rect{X0: rng.Uint64(), Y0: rng.Uint64(), X1: rng.Uint64(), Y1: rng.Uint64()} }
	for i := 0; i < 500; i++ {
		o := &oracleNode{Level: rng.Intn(3), Direct: rect()}
		for j, cnt := 0, rng.Intn(4); j < cnt; j++ {
			o.Sibs = append(o.Sibs, SibTerm{Rect: rect(), Pid: storage.PageID(rng.Uint64())})
		}
		for j, cnt := 0, rng.Intn(40); j < cnt; j++ {
			e := Entry{Rect: rect(), Child: storage.PageID(rng.Uint64()), Clipped: rng.Intn(3) == 0}
			if o.Level == 0 {
				e = Entry{P: Point{X: rng.Uint64(), Y: rng.Uint64()}}
				switch rng.Intn(6) {
				case 0:
				case 1:
					e.Value = []byte{}
				default:
					e.Value = make([]byte, 1+rng.Intn(120))
					rng.Read(e.Value)
				}
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

		built := &Node{Level: o.Level, Direct: o.Direct, Sibs: o.Sibs}
		appendEntries(built, o.Entries...)
		img, _ := (Codec{}).AppendPage(nil, built)
		if saved, per := len(old)-len(img), []int{41, 17}[min(o.Level, 1)]; saved != per*len(o.Entries) {
			t.Fatalf("node %d (level %d, %d entries): the image is %d bytes smaller, want %d", i, o.Level, len(o.Entries), saved, per*len(o.Entries))
		}
		dec, err := (Codec{}).DecodePage(bytes.Clone(img))
		if err != nil {
			t.Fatalf("node %d: decode: %v", i, err)
		}
		n := dec.(*Node)
		if n.Level != od.Level || n.Direct != od.Direct || len(n.Sibs) != len(od.Sibs) {
			t.Fatalf("node %d: header %+v, the oracle reads %+v", i, n, od)
		}
		for j := range od.Sibs {
			if n.Sibs[j] != od.Sibs[j] {
				t.Fatalf("node %d: sibling term %d is %+v, the oracle reads %+v", i, j, n.Sibs[j], od.Sibs[j])
			}
		}
		if n.Len() != len(od.Entries) {
			t.Fatalf("node %d: %d entries, the oracle reads %d", i, n.Len(), len(od.Entries))
		}
		for j, want := range od.Entries {
			e := n.entry(j)
			if e.P != want.P || !bytes.Equal(e.Value, want.Value) || (e.Value == nil) != (want.Value == nil) ||
				e.Rect != want.Rect || e.Child != want.Child || e.Clipped != want.Clipped {
				t.Fatalf("node %d entry %d: %+v, the oracle reads %+v", i, j, e, want)
			}
			ok := n.Level == 0 && n.pointAt(j) == want.P
			if n.Level > 0 {
				r, c := n.termAt(j)
				ok = r == want.Rect && c == want.Child
			}
			if !ok {
				t.Fatalf("node %d entry %d: the level-%d accessor disagrees with the entry", i, j, n.Level)
			}
		}
		if got, _ := (Codec{}).AppendPage(nil, n); !bytes.Equal(got, img) {
			t.Fatalf("node %d: image\n%x re-encodes as\n%x", i, img, got)
		}
		for _, j := range rng.Perm(n.Len()) {
			rec := bytes.Clone(n.recs.At(j))
			n.recs.Delete(j)
			n.recs.Insert(j, rec)
		}
		if got, _ := (Codec{}).AppendPage(nil, n); !bytes.Equal(got, img) {
			t.Fatalf("node %d: after delete and re-insert of every record the image is\n%x, want\n%x", i, got, img)
		}
	}
}

// The logical undo as PR 24 wrote it (internal/spatial/tree.go): one
// hand-written re-traversal per record kind, taking the rolling-back
// transaction directly instead of looking it up. The reference the
// kernel's Compensate is held to (TestCompensateCLRIdentity).

func (t *Tree) oracleUndoInsert(rec *wal.Record, tx storage.CLRLogger, e Entry) error {
	return t.kern.RetryLoop(nil, func(o *opCtx) error {
		leaf, err := t.descend(o, e.P, 0, latch.U, false)
		if err != nil {
			return err
		}
		if i, ok := leaf.N.findPoint(e.P); ok {
			o.Promote(&leaf)
			tx.LogCLR(leaf.F, KindRemovePoint, appendPoint(nil, leaf.N.entry(i)), rec.PrevLSN)
			leaf.N.recs.Delete(i)
		} else {
			tx.LogCLR(nil, 0, nil, rec.PrevLSN)
		}
		o.Release(&leaf)
		return nil
	})
}

func (t *Tree) oracleUndoRemove(rec *wal.Record, tx storage.CLRLogger, e Entry) error {
	return t.kern.RetryLoop(nil, func(o *opCtx) error {
		leaf, err := t.descend(o, e.P, 0, latch.U, false)
		if err != nil {
			return err
		}
		if leaf.N.Len() >= t.opts.DataCapacity {
			if err := t.splitNodeAction(o, &leaf); err != nil {
				return err
			}
			return errRetry
		}
		if _, dup := leaf.N.findPoint(e.P); dup {
			o.Release(&leaf)
			tx.LogCLR(nil, 0, nil, rec.PrevLSN)
			return nil
		}
		o.Promote(&leaf)
		tx.LogCLR(leaf.F, KindInsertPoint, appendPoint(nil, e), rec.PrevLSN)
		leaf.N.insertPoint(Entry{P: e.P, Value: enc.NilIfEmpty(e.Value)})
		o.Release(&leaf)
		return nil
	})
}

// oracleRollback undoes tx's point records through the oracle, newest
// first, as txn's rollback walks the chain.
func (t *Tree) oracleRollback(log *wal.Log, tx *txn.Txn) error {
	for lsn := tx.LastLSN(); lsn != wal.NilLSN; {
		rec, err := log.Read(lsn)
		if err != nil {
			return err
		}
		e, err := decRecord(0, rec.Payload)
		if err != nil {
			return err
		}
		switch rec.Kind {
		case KindInsertPoint:
			err = t.oracleUndoInsert(&rec, tx, e)
		case KindRemovePoint:
			err = t.oracleUndoRemove(&rec, tx, e)
		}
		if err != nil {
			return err
		}
		lsn = rec.PrevLSN
	}
	return nil
}

// The growth record as kinds.go wrote it before Kernel.Grow: the grown
// root's two terms, then the root's image as it was, which its undo
// restored. The reference the kernel's growth is held to
// (TestGrowLogIdentity).

// The split as splitOff and splitRoot wrote it before Kernel.Split
// (internal/spatial/smo.go) at the plane choosePlane picks, and its undo as
// kinds.go built it from the sibling's image. The reference the kernel's
// split is held to (TestSplitLogIdentity).

// oracleSplitOff is the split of pre at its plane into sibPid: the
// sibling's image and the split record.
func oracleSplitOff(pre *Node, sibPid storage.PageID) (image, payload []byte) {
	alongX, coord, _ := choosePlane(pre)
	kept, off := pre.Direct.Split(alongX, coord)
	entries, _ := splitPick(pre, kept, off, true)
	var w enc.Writer
	w.Bool(alongX)
	w.U64(coord)
	w.U64(uint64(sibPid))
	w.Field(splitFates(pre, alongX, coord))
	return encNodeImage(&Node{Level: pre.Level, Direct: off, recs: entries}), w.Bytes()
}

// oracleUnsplit is the payload of the absorb that undid the split whose
// sibling's image and record are given.
func oracleUnsplit(image, payload []byte) []byte {
	alongX, coord, sibPid, fates, err := decSplitOff(payload)
	if err != nil {
		panic(err)
	}
	sib, err := decNodeImage(image)
	if err != nil {
		panic(err)
	}
	ret, err := unsplitOff(fates, sib)
	if err != nil {
		panic(err)
	}
	return encAbsorbSib(alongX, coord, sibPid, ret)
}

// oracleRootSplit returns the images of the root pre's halves on pidA and
// pidB and the growth record over them.
func oracleRootSplit(pre *Node, pidA, pidB storage.PageID) (imageA, imageB, grow []byte) {
	alongX, coord, _ := choosePlane(pre)
	kept, off := pre.Direct.Split(alongX, coord)
	entries, _ := splitPick(pre, kept, off, true)
	a := pre.clone()
	applySplitOff(a, alongX, coord, pidB)
	return encNodeImage(a), encNodeImage(&Node{Level: pre.Level, Direct: off, recs: entries}),
		oracleEncRootGrow(Entry{Rect: a.Direct, Child: pidA}, Entry{Rect: off, Child: pidB}, pre)
}

func oracleEncRootGrow(termA, termB Entry, pre *Node) []byte {
	var w enc.Writer
	w.Reset(appendTerm(appendTerm(nil, termA), termB))
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

// The absorb action as it was written before Kernel.Absorb
// (internal/spatial/absorb.go, with refsChild inlined): it latches its
// victim, frees the page, probes the failpoint and commits on its own. The
// reference the kernel's Absorb is held to (TestFreeActionLogIdentity).

// oracleAbsorbAction performs one absorb as an atomic action, re-verifying
// every condition under latches (parent U→X at level 1, then delegator
// U→X, then victim X — descending rank order; promotions happen before
// any lower latch is taken, §4.1.1, so coupled readers drain downward).
// Returns 1 if the victim's page was freed, 0 if any screen failed.
func (t *Tree) oracleAbsorbAction(c absorbCand) (int, error) {
	delegPid, victimPid := c.deleg, c.victim
	freed := 0
	err := t.kern.RetryLoop(nil, func(o *opCtx) error {
		freed = 0

		// The victim's sole parent lies on the search path of its term's
		// low corner: an unclipped term was never cut by its holder's
		// splits, so the rect sits inside the holder's direct region. A
		// delegated rect never changes, so the scan's copy locates it.
		corner := Point{X: c.rect.X0, Y: c.rect.Y0}
		parent, err := t.descend(o, corner, 1, latch.U, false)
		if err != nil {
			return err
		}
		i, ok := parent.N.termFor(victimPid)
		if !ok {
			// Unposted (completion pending) or already elsewhere: defer.
			o.Release(&parent)
			t.Stats.AbsorbDeferred.Add(1)
			return nil
		}
		term := parent.N.entry(i) // no Value: nothing of it aliases the node
		if term.Clipped {
			o.Release(&parent)
			t.Stats.AbsorbMultiParent.Add(1)
			return nil
		}
		if parent.N.Len() <= 1 {
			o.Release(&parent)
			return nil
		}
		survivor := false
		for j := 0; j < parent.N.Len(); j++ {
			if r, _ := parent.N.termAt(j); j != i && r.ContainsRect(term.Rect) {
				survivor = true
				break
			}
		}
		if !survivor {
			o.Release(&parent)
			t.Stats.AbsorbDeferred.Add(1)
			return nil
		}
		o.Promote(&parent)

		deleg, err := o.Acquire(delegPid, latch.U, 0)
		if err != nil {
			o.Release(&parent)
			return err
		}
		ns := len(deleg.N.Sibs)
		if ns == 0 || deleg.N.Sibs[ns-1].Pid != victimPid || deleg.N.Sibs[ns-1].Rect != term.Rect || !deleg.N.IsData() {
			o.Release(&deleg, &parent)
			return nil
		}
		// With the delegator still only U-latched no new task can commit a
		// read of its sibling term after this test... promotion to X comes
		// first, and scheduling from latched traversals needs the S latch
		// the X excludes. Tasks already scheduled (or running) are visible
		// in the pending set; a stale-snapshot schedule after the free
		// re-tests the page in termPost.Verify.
		if t.comp.Refs(postTask{parentLevel: 1, child: victimPid}.key()) {
			o.Release(&deleg, &parent)
			t.Stats.AbsorbDeferred.Add(1)
			return nil
		}
		o.Promote(&deleg)

		victim, err := o.Acquire(victimPid, latch.X, 0)
		if err != nil {
			o.Release(&deleg, &parent)
			return err
		}
		if !victim.N.IsData() || victim.N.Len() != 0 || len(victim.N.Sibs) != 0 {
			o.Release(&victim, &deleg, &parent)
			return nil
		}

		err = o.Atomic(func(aa *txn.Txn) error {
			o.Hold(&parent, &deleg, &victim)
			// The victim was split off along X iff it abuts the delegator's
			// direct region on the X side; undo cuts there again.
			alongX, coord := term.Rect.X0 == deleg.N.Direct.X1, term.Rect.Y0
			if alongX {
				coord = term.Rect.X0
			}
			aa.LogUpdate(deleg.F, KindAbsorbSib, encAbsorbSib(alongX, coord, victimPid, returning{}))
			if err := applyAbsorbSib(deleg.N, returning{}); err != nil {
				return err
			}
			aa.LogUpdate(parent.F, KindRemoveTerm, appendTerm(nil, term))
			parent.N.recs.Delete(i)
			if err := t.store.Free(aa, &o.Tr, victimPid); err != nil {
				return err
			}
			return t.store.Pool.Probe(storage.FPConsolidate)
		})
		if err != nil {
			return err
		}
		t.Stats.Absorbs.Add(1)
		freed = 1
		return nil
	})
	return freed, err
}
