package tsb

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/enc"
	"repro/internal/keys"
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
	hdr     Node // the header fields; its recs stay empty
	Entries []Entry
}

func oracleEncodeRect(w *enc.Writer, r Rect) {
	w.Field(r.KeyLow)
	w.Bool(r.KeyHigh.Unbounded)
	w.Field(r.KeyHigh.Key)
	w.U64(r.TimeLow)
	w.U64(r.TimeHigh)
}

func oracleEncodeNode(w *enc.Writer, n *oracleNode) {
	w.U16(uint16(n.hdr.Level))
	oracleEncodeRect(w, n.hdr.Rect)
	w.U64(uint64(n.hdr.KeySib))
	w.U64(uint64(n.hdr.HistSib))
	w.Bool(n.hdr.Retired)
	w.Bool(n.hdr.HistShared)
	w.U32(uint32(len(n.Entries)))
	for _, e := range n.Entries {
		w.Field(e.Key)
		w.U64(e.Start)
		w.Field(e.Value)
		w.Bool(e.Deleted)
		w.U64(uint64(e.Txn))
		w.U64(uint64(e.Child))
		oracleEncodeRect(w, e.ChildRect)
		w.Bool(e.Clipped)
	}
}

func oracleDecodeNode(r *enc.Reader) (*oracleNode, error) {
	n := &oracleNode{hdr: *decodeHeader(r)}
	cnt := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if cnt > r.Remaining()/(1+8+1+1+8+8+(1+1+1+8+8)+1) {
		return nil, enc.ErrTruncated
	}
	n.Entries = make([]Entry, 0, cnt)
	for i := 0; i < cnt; i++ {
		var e Entry
		e.Key = r.Field()
		e.Start = r.U64()
		e.Value = r.Field()
		e.Deleted = r.Bool()
		e.Txn = wal.TxnID(r.U64())
		e.Child = storage.PageID(r.U64())
		e.ChildRect = decodeRect(r)
		e.Clipped = r.Bool()
		n.Entries = append(n.Entries, e)
	}
	return n, r.Err()
}

func sameBytes(a, b []byte) bool { return bytes.Equal(a, b) && (a == nil) == (b == nil) }

func sameRect(a, b Rect) bool {
	return sameBytes(a.KeyLow, b.KeyLow) && a.KeyHigh.Unbounded == b.KeyHigh.Unbounded &&
		sameBytes(a.KeyHigh.Key, b.KeyHigh.Key) && a.TimeLow == b.TimeLow && a.TimeHigh == b.TimeHigh
}

// TestImageByteIdentity: seeded random nodes of every level — nil, empty
// and unbounded keys, tombstones, retired and shared marks, clipped terms —
// encoded by the old codec (the oracle, every field in every entry) and by
// the node codec (each level's fields only) read the same, header and
// entries field by field, through the entry view and through the level's
// single-field accessors; the node's image is smaller by exactly what the
// level leaves out, 28 bytes a version, 19 a level-1 term and 38 a key term;
// and it decodes and re-encodes to itself, also after every record was
// taken out of the buffer and put back in random order.
func TestImageByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
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
	rect := func() Rect {
		return Rect{KeyLow: blob(12), KeyHigh: keys.Bound{Unbounded: rng.Intn(3) == 0, Key: blob(12)}, TimeLow: rng.Uint64(), TimeHigh: rng.Uint64()}
	}
	for i := 0; i < 500; i++ {
		o := &oracleNode{hdr: Node{Level: rng.Intn(4), Rect: rect(), KeySib: storage.PageID(rng.Intn(99)), HistSib: storage.PageID(rng.Intn(99)),
			Retired: rng.Intn(8) == 0, HistShared: rng.Intn(2) == 0}}
		for j, cnt := 0, rng.Intn(30); j < cnt; j++ {
			var e Entry
			switch o.hdr.Level {
			case 0:
				e = Entry{Key: blob(24), Start: rng.Uint64(), Value: blob(120), Deleted: rng.Intn(6) == 0, Txn: wal.TxnID(rng.Intn(4))}
			case 1:
				e = Entry{Child: storage.PageID(rng.Uint64()), ChildRect: rect(), Clipped: rng.Intn(3) == 0}
			default:
				e = Entry{Key: blob(24), Child: storage.PageID(rng.Uint64())}
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

		built := o.hdr
		appendEntries(&built, o.Entries...)
		img, _ := (Codec{}).AppendPage(nil, &built)
		if saved, per := len(old)-len(img), []int{28, 19, 38}[min(o.hdr.Level, 2)]; saved != per*len(o.Entries) {
			t.Fatalf("node %d (level %d, %d entries): the image is %d bytes smaller, want %d", i, o.hdr.Level, len(o.Entries), saved, per*len(o.Entries))
		}
		dec, err := (Codec{}).DecodePage(bytes.Clone(img))
		if err != nil {
			t.Fatalf("node %d: decode: %v", i, err)
		}
		n := dec.(*Node)
		if h := od.hdr; n.Level != h.Level || !sameRect(n.Rect, h.Rect) || n.KeySib != h.KeySib || n.HistSib != h.HistSib ||
			n.Retired != h.Retired || n.HistShared != h.HistShared {
			t.Fatalf("node %d: header %+v, the oracle reads %+v", i, n, h)
		}
		if n.Len() != len(od.Entries) {
			t.Fatalf("node %d: %d entries, the oracle reads %d", i, n.Len(), len(od.Entries))
		}
		for j, want := range od.Entries {
			e := n.entry(j)
			if !sameBytes(e.Key, want.Key) || e.Start != want.Start || !sameBytes(e.Value, want.Value) || e.Deleted != want.Deleted ||
				e.Txn != want.Txn || e.Child != want.Child || !sameRect(e.ChildRect, want.ChildRect) || e.Clipped != want.Clipped {
				t.Fatalf("node %d entry %d: %+v, the oracle reads %+v", i, j, e, want)
			}
			var ok bool
			switch n.Level {
			case 0:
				ok = sameBytes(n.keyAt(j), want.Key) && n.startAt(j) == want.Start
			case 1:
				ok = n.childAt(j) == want.Child && sameRect(n.rectAt(j), want.ChildRect)
			default:
				ok = sameBytes(n.keyAt(j), want.Key) && n.childAt(j) == want.Child
			}
			if !ok {
				t.Fatalf("node %d entry %d: the level-%d accessors disagree with the entry", i, j, n.Level)
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

// The splits as splitDataIn, splitIndex and splitRoot wrote them before
// Kernel.Split (internal/tsb/split.go), and their undo as kinds.go's
// unsplit built it from the sibling's image. The reference the kernel's
// split is held to (TestSplitLogIdentity).

// oracleTimeSplit is the time split at ts of the data node pre into the
// history node hist: its image and the split record.
func oracleTimeSplit(pre *Node, ts uint64, hist storage.PageID) (image, payload []byte) {
	newNode := &Node{Level: 0, Rect: cloneRect(pre.Rect), HistSib: pre.HistSib}
	newNode.Rect.TimeHigh = ts
	newNode.HistShared = pre.HistShared
	newNode.recs = historyContents(pre, ts)
	var w enc.Writer
	w.U64(ts)
	w.U64(uint64(hist))
	encodeHeader(&w, pre)
	return encNodeImage(newNode), w.Bytes()
}

// oracleKeySplit is the key split of the data node pre at the median of
// its distinct keys into newPid.
func oracleKeySplit(pre *Node, newPid storage.PageID) (image, payload []byte) {
	k := medianKey(pre, distinctKeys(pre))
	newNode := &Node{Level: 0, Rect: cloneRect(pre.Rect), HistSib: pre.HistSib}
	newNode.Rect.KeyLow = keys.Clone(k)
	newNode.KeySib = pre.KeySib
	newNode.HistShared = pre.HistSib != storage.NilPage
	newNode.recs = pre.recs.Slice(pre.firstKeyAtOrAbove(k), pre.Len())
	return encNodeImage(newNode), oracleEncKeySplit(k, newPid, pre, nil)
}

// oracleIndexSplit is the key split of the index node pre into sibPid.
func oracleIndexSplit(pre *Node, sibPid storage.PageID) (image, payload []byte) {
	k, _ := (&Tree{}).indexSplitKey(pre)
	sib, _ := indexSibling(pre, k)
	return encNodeImage(sib), oracleEncKeySplit(k, sibPid, pre, newlyClipped(pre, k))
}

func oracleEncKeySplit(k keys.Key, sib storage.PageID, old *Node, clipped []storage.PageID) []byte {
	var w enc.Writer
	w.Field(k)
	w.U64(uint64(sib))
	encodeHeader(&w, old)
	encodePIDs(&w, clipped)
	return w.Bytes()
}

// oracleUnsplit returns the payload of the unsplit that undid a split of
// kind, given the sibling's image and the split record.
func oracleUnsplit(kind wal.Kind) func(image, payload []byte) []byte {
	return func(image, payload []byte) []byte {
		sib, err := decNodeImage(image)
		if err != nil {
			panic(err)
		}
		if kind == KindTimeSplit {
			_, _, old, _ := decTimeSplit(payload)
			return encUnsplit(old, timeSplitLeavers(sib), nil)
		}
		k, _, old, clipped, _ := decKeySplit(payload)
		if kind == KindKeySplit {
			return encUnsplit(old, sib.recs, nil)
		}
		return encUnsplit(old, indexSplitLeavers(sib, k), clipped)
	}
}

// oracleRootSplit returns the images of the root pre's halves on pidA and
// pidB and the growth record over them.
func oracleRootSplit(pre *Node, pidA, pidB storage.PageID) (imageA, imageB, grow []byte) {
	k, _ := (&Tree{}).indexSplitKey(pre)
	b, _ := indexSibling(pre, k)
	a := pre.clone()
	applyIndexKeySplit(a, k, pidB)
	return encNodeImage(a), encNodeImage(b), oracleEncRootGrow(Entry{Child: pidA}, Entry{Key: k, Child: pidB}, pre)
}

// The growth record as kinds.go wrote it before Kernel.Grow: the grown
// root's two key terms, then the root's image as it was, which its undo
// restored. The reference the kernel's growth is held to
// (TestGrowLogIdentity).

func oracleEncRootGrow(termA, termB Entry, pre *Node) []byte {
	var w enc.Writer
	w.Reset(appendKeyTerm(appendKeyTerm(nil, termA.Key, termA.Child), termB.Key, termB.Child))
	encodeNode(&w, pre)
	return w.Bytes()
}

// oracleRestore is the payload of the restore that undid the growth b.
func oracleRestore(b []byte) []byte {
	r := enc.NewReader(b)
	r.Records(2, keyTermLayout)
	pre, err := decodeNode(r)
	if err != nil {
		panic(err)
	}
	return encNodeImage(pre)
}

// The reaper's cut as it was written before Kernel.Absorb
// (internal/tsb/reclaim.go, with refsChild inlined): it latches its victim,
// frees the page, probes the failpoint and commits on its own. The
// reference the kernel's Absorb is held to (TestFreeActionLogIdentity).

// oracleReclaimTail frees the chain's tail if every precondition holds; it
// returns 1 if a page was freed. Three episodes, in latch-rank order:
// first a walk to find the tail and its referencer (S, one at a time —
// gcMu makes interior nodes immutable and nothing else frees pages),
// then the no-terms sweep over level-1 parents (S, released before any
// data latch so ranks stay ascending), then the cut action itself.
func (t *Tree) oracleReclaimTail(head storage.PageID) (int, error) {
	prevPid, tailPid, tailRect, tailRetired, err := t.findTail(head)
	if err != nil || tailPid == storage.NilPage || tailPid == head {
		return 0, err
	}
	if !tailRetired {
		return 0, nil
	}

	// Episode 2: no level-1 term may reference the victim. Clipping can
	// spread terms over several parents, so sweep the key-sibling chain
	// across the victim's key range (the same walk retireNode removes
	// along). Terms for a retired node are monotone-decreasing, so a
	// clean sweep cannot be invalidated later.
	clean, err := t.noTermsFor(tailRect, tailPid)
	if err != nil {
		return 0, err
	}
	if !clean {
		t.Stats.GCTermSkips.Add(1)
		return 0, nil
	}

	// Episode 3: the cut. Latch the referencer U, re-verify the edge,
	// promote to X (§4.1.1: before any lower latch, so coupled readers
	// drain downward), then latch the victim X and free it.
	o := t.kern.NewOp(nil)
	defer o.Done()
	prev, err := o.Acquire(prevPid, latch.U, 0)
	if err != nil {
		return 0, err
	}
	if prev.N.HistSib != tailPid {
		// The chain changed shape since the walk (only the head can, via
		// a concurrent time split); retry on the next pass.
		o.Release(&prev)
		return 0, nil
	}
	if prev.N.HistShared {
		o.Release(&prev)
		t.Stats.GCSharedSkips.Add(1)
		return 0, nil
	}
	o.Promote(&prev)
	// With the sole incoming edge X-held, no new task can be scheduled
	// against the victim (noteHistSibling reads the referencer under its
	// latch); a task already pending or running defers the free.
	if t.comp.Refs(postTask{parentLevel: 1, child: tailPid}.key()) {
		o.Release(&prev)
		t.Stats.GCDeferredFrees.Add(1)
		return 0, nil
	}
	tail, err := o.Acquire(tailPid, latch.X, 0)
	if err != nil {
		o.Release(&prev)
		return 0, err
	}
	if !tail.N.Retired || tail.N.HistSib != storage.NilPage || tail.N.Len() != 0 {
		o.Release(&tail, &prev)
		return 0, nil
	}

	err = o.Atomic(func(aa *txn.Txn) error {
		o.Hold(&prev, &tail)
		aa.LogUpdate(prev.F, KindCutHist, encCutHist(prev.N))
		applyCutHist(prev.N)
		if err := t.store.Free(aa, &o.Tr, tailPid); err != nil {
			return err
		}
		return t.store.Pool.Probe(storage.FPConsolidate)
	})
	if err != nil {
		return 0, err
	}
	t.Stats.GCFreedPages.Add(1)
	return 1, nil
}

// oracleUndoPut is the logical undo of a put as it was written before the
// kernel's Compensate took it over: one hand-written descent that walks
// the history chain under latch coupling, re-carrying and removing in each
// node that holds the version, then the terminal CLR. The reference the
// Compensate items of undoPut are held to (TestCompensateCLRIdentity).
func (t *Tree) oracleUndoPut(rec *wal.Record, tx storage.CLRLogger, e Entry) error {
	return t.kern.RetryLoop(nil, func(o *opCtx) error {
		cur, err := t.descend(o, e.Key, NoEnd-1, 0, latch.U, false)
		if err != nil {
			return err
		}
		for {
			if _, ok := cur.N.versionPos(e.Key, e.Start); ok {
				repair, err := t.carryRepair(o, cur.N, e)
				if err != nil {
					o.Release(&cur)
					return err
				}
				if repair != nil && cur.N.Current() && !t.kern.Fits(cur.N, versionSize(repair.Key, repair.Value)) {
					if err := t.splitData(o, &cur); err != nil {
						return err
					}
					return errRetry
				}
				o.Promote(&cur)
				if repair != nil {
					tx.LogCLR(cur.F, KindPut, appendPut(nil, *repair, rec.TxnID, nil), rec.LSN)
					cur.N.insertVersion(*repair)
				}
				tx.LogCLR(cur.F, KindRemoveVersion, encVersionRef(e.Key, e.Start), rec.LSN)
				cur.N.removeVersion(e.Key, e.Start)
			}
			if cur.N.Rect.TimeLow <= e.Start || cur.N.HistSib == storage.NilPage {
				break
			}
			next, err := t.kern.Step(o, &cur, cur.N.HistSib, latch.U, 0)
			if err != nil {
				return err
			}
			cur = next
		}
		o.Release(&cur)
		tx.LogCLR(nil, 0, nil, rec.PrevLSN)
		return nil
	})
}

// oracleRollback undoes tx's puts through the oracle, newest first, as
// txn's rollback walks the chain.
func (t *Tree) oracleRollback(log *wal.Log, tx *txn.Txn) error {
	for lsn := tx.LastLSN(); lsn != wal.NilLSN; {
		rec, err := log.Read(lsn)
		if err != nil {
			return err
		}
		if rec.Kind == KindPut {
			p, err := decPut(rec.Payload, rec.TxnID)
			if err != nil {
				return err
			}
			if err := t.oracleUndoPut(&rec, tx, Entry{Key: p.Key, Start: p.Start}); err != nil {
				return err
			}
		}
		lsn = rec.PrevLSN
	}
	return nil
}
