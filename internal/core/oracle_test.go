package core

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
		n.recs.Insert(n.Len(), appendEntry(nil, e))
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

// TestImageByteIdentity: for seeded random nodes of both levels — nil,
// empty and unbounded keys, nil and empty values, a dead flag — the image
// the oracle codec writes decodes and re-encodes to itself through the
// oracle and through the node codec, before and after the node was changed
// and changed back.
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
		img := w.Bytes()

		od, err := oracleDecodeNode(enc.NewReader(img))
		if err != nil {
			t.Fatalf("node %d: oracle decode: %v", i, err)
		}
		var ow enc.Writer
		oracleEncodeNode(&ow, od)
		if !bytes.Equal(ow.Bytes(), img) {
			t.Fatalf("node %d: oracle round trip differs", i)
		}

		dec, err := (Codec{}).DecodePage(bytes.Clone(img))
		if err != nil {
			t.Fatalf("node %d: decode: %v", i, err)
		}
		n := dec.(*Node)
		got, _ := (Codec{}).AppendPage(nil, n)
		if !bytes.Equal(got, img) {
			t.Fatalf("node %d: image\n%x re-encodes as\n%x", i, img, got)
		}
		if n.Len() != len(o.Entries) {
			t.Fatalf("node %d: %d entries, want %d", i, n.Len(), len(o.Entries))
		}
		for j, want := range o.Entries {
			e := n.entry(j)
			if !bytes.Equal(e.Key, want.Key) || (e.Key == nil) != (want.Key == nil) ||
				!bytes.Equal(e.Value, want.Value) || (e.Value == nil) != (want.Value == nil) || e.Child != want.Child {
				t.Fatalf("node %d entry %d: %+v, want %+v", i, j, e, want)
			}
		}
		// Scramble the buffer — every record out and back in, in random
		// order, so physical and logical order part and holes open — and
		// the image must not change.
		for _, j := range rng.Perm(n.Len()) {
			rec := bytes.Clone(n.recs.At(j))
			n.recs.Delete(j)
			n.recs.Insert(j, rec)
		}
		if got, _ = (Codec{}).AppendPage(nil, n); !bytes.Equal(got, img) {
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

// The logical undo as PR 24 wrote it (internal/core/undo.go): one
// hand-written re-traversal per record kind, taking the rolling-back
// transaction directly instead of looking it up. The reference the
// kernel's Compensate is held to (TestCompensateCLRIdentity).

func (t *Tree) oracleUndoDelete(rec *wal.Record, tx storage.CLRLogger, k keys.Key) error {
	return t.kern.RetryLoop(nil, func(o *opCtx) error {
		leaf, err := t.descendTo(o, k, 0, latch.U, false, nil)
		if err != nil {
			return err
		}
		i, ok := leaf.N.search(k)
		if !ok {
			o.Release(&leaf)
			tx.LogCLR(0, 0, 0, nil, rec.PrevLSN)
			return nil
		}
		o.Promote(&leaf)
		lsn := tx.LogCLR(t.store.Pool.StoreID, uint64(leaf.Pid()), KindDeleteRecord, encKV(k, leaf.N.entry(i).Value), rec.PrevLSN)
		leaf.N.recs.Delete(i)
		leaf.F.MarkDirty(lsn)
		o.Release(&leaf)
		return nil
	})
}

func (t *Tree) oracleUndoInsert(rec *wal.Record, tx storage.CLRLogger, k keys.Key, v []byte) error {
	return t.kern.RetryLoop(nil, func(o *opCtx) error {
		path := newPath()
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
			tx.LogCLR(0, 0, 0, nil, rec.PrevLSN)
			return nil
		}
		o.Promote(&leaf)
		lsn := tx.LogCLR(t.store.Pool.StoreID, uint64(leaf.Pid()), KindInsertRecord, encKV(k, v), rec.PrevLSN)
		leaf.N.insertEntry(Entry{Key: k, Value: enc.NilIfEmpty(v)})
		leaf.F.MarkDirty(lsn)
		o.Release(&leaf)
		return nil
	})
}

func (t *Tree) oracleUndoUpdate(rec *wal.Record, tx storage.CLRLogger, k keys.Key, oldVal []byte) error {
	return t.kern.RetryLoop(nil, func(o *opCtx) error {
		leaf, err := t.descendTo(o, k, 0, latch.U, false, nil)
		if err != nil {
			return err
		}
		i, ok := leaf.N.search(k)
		if !ok {
			o.Release(&leaf)
			tx.LogCLR(0, 0, 0, nil, rec.PrevLSN)
			return nil
		}
		o.Promote(&leaf)
		lsn := tx.LogCLR(t.store.Pool.StoreID, uint64(leaf.Pid()), KindUpdateRecord, encKVV(k, oldVal, leaf.N.entry(i).Value), rec.PrevLSN)
		leaf.N.setValue(i, enc.NilIfEmpty(oldVal))
		leaf.F.MarkDirty(lsn)
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
			k, _, _ := decKV(rec.Payload)
			err = t.oracleUndoDelete(&rec, tx, k)
		case KindDeleteRecord:
			k, v, _ := decKV(rec.Payload)
			err = t.oracleUndoInsert(&rec, tx, k, v)
		case KindUpdateRecord:
			k, _, ov, _ := decKVV(rec.Payload)
			err = t.oracleUndoUpdate(&rec, tx, k, ov)
		}
		if err != nil {
			return err
		}
		lsn = rec.PrevLSN
	}
	return nil
}
