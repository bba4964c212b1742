package core

import (
	"fmt"

	"repro/internal/enc"
	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/wal"
)

// Logical (non-page-oriented) record undo, §4.2/§6: the compensating
// change is applied to whatever page the record lives on NOW, found by a
// fresh tree traversal. This is what frees data-node splits from the
// updating transaction: a structure change can move uncommitted records,
// because undo no longer insists on revisiting the original page.
//
// Each function ends by logging a CLR whose UndoNext is the compensated
// record's PrevLSN, so rollback (runtime or restart) never repeats it.

func (t *Tree) undoTxn(rec *wal.Record) (clrLogger, error) {
	tx, ok := t.tm.Lookup(rec.TxnID)
	if !ok {
		return nil, fmt.Errorf("core: logical undo for unknown txn %d", rec.TxnID)
	}
	return tx, nil
}

// clrLogger is the slice of txn.Txn logical undo needs.
type clrLogger interface {
	LogCLR(storeID uint32, pageID uint64, kind wal.Kind, payload []byte, undoNext wal.LSN) wal.LSN
}

// logicalUndoDelete compensates an insert by deleting k from wherever it
// now lives.
func (t *Tree) logicalUndoDelete(rec *wal.Record, k keys.Key) error {
	tx, err := t.undoTxn(rec)
	if err != nil {
		return err
	}
	return t.kern.RetryLoop(nil, func(o *opCtx) error {
		leaf, err := t.descendTo(o, k, 0, latch.U, false, nil)
		if err != nil {
			return err
		}
		i, ok := leaf.N.search(k)
		if !ok {
			// Repeating history guarantees the record is present; if it
			// is not, the chain must still advance past this record.
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

// logicalUndoInsert compensates a delete by re-inserting (k, v), splitting
// on the way if the leaf that now covers k is full.
func (t *Tree) logicalUndoInsert(rec *wal.Record, k keys.Key, v []byte) error {
	tx, err := t.undoTxn(rec)
	if err != nil {
		return err
	}
	return t.kern.RetryLoop(nil, func(o *opCtx) error {
		path := newPath()
		leaf, err := t.descendTo(o, k, 0, latch.U, false, path)
		if err != nil {
			return err
		}
		if leaf.N.Len() >= t.opts.LeafCapacity {
			// Undo can split: in logical-undo mode every split is an
			// independent atomic action (o.Txn is nil here, so splitLeaf
			// takes that path).
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

// logicalUndoUpdate compensates an update by restoring the old value.
func (t *Tree) logicalUndoUpdate(rec *wal.Record, k keys.Key, oldVal []byte) error {
	tx, err := t.undoTxn(rec)
	if err != nil {
		return err
	}
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
