package core

import (
	"bytes"
	"testing"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/storage"
	"repro/internal/wal"
)

// leafUtil recounts the utilization histogram from the leaves themselves
// (quiescent helper).
func (fx *fixture) leafUtil(t *testing.T) [9]int64 {
	t.Helper()
	t2 := fx.tree
	node := func(pid storage.PageID) *Node {
		f, err := t2.store.Pool.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		defer t2.store.Pool.Unpin(f)
		return f.Data.(*Node)
	}
	pid := t2.root
	for n := node(pid); n.Level > 0; n = node(pid) {
		pid = n.entry(0).Child
	}
	var hist [9]int64
	for ; pid != storage.NilPage; pid = node(pid).Right {
		hist[utilBucket(node(pid).Len(), t2.opts.LeafCapacity)]++
	}
	return hist
}

// TestRollbackKeepsLeafUtil: a logical rollback moves leaf entries like
// any write, so it keeps Stats.UtilHist exact; and it is not an operation
// of the tree's users, so it moves none of their counters. Five leaves of
// four committed keys each take two of an aborted transaction's inserts
// apiece, and one of their keys is deleted and one updated.
func TestRollbackKeepsLeafUtil(t *testing.T) {
	fx := newFixture(t, engine.Options{}, defaultTestOpts())
	for i := 0; i < 20; i++ {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i*10)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	tx := fx.e.TM.Begin()
	for i := 0; i < 20; i += 2 {
		if err := fx.tree.Insert(tx, keys.Uint64(uint64(i*10+5)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fx.tree.Update(tx, keys.Uint64(0), []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := fx.tree.Delete(tx, keys.Uint64(10)); err != nil {
		t.Fatal(err)
	}
	before := fx.tree.Stats.Snapshot()
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	after := fx.tree.Stats.Snapshot()
	if got, want := after.UtilHist, fx.leafUtil(t); got != want {
		t.Fatalf("UtilHist reads %v after the rollback; the leaves recount to %v", got, want)
	}
	if after.Inserts != before.Inserts || after.Deletes != before.Deletes || after.Updates != before.Updates ||
		after.BatchOps != before.BatchOps || after.LeafVisitsSaved != before.LeafVisitsSaved {
		t.Fatalf("rollback moved user counters: before %+v, after %+v", before, after)
	}
	fx.mustVerify(t)
}

// TestCompensateCLRIdentity: the kernel's Compensate logs, record for
// record, what the hand-written re-traversals it replaced logged
// (oracleRollback) — here for a transaction whose records a later split
// moved to another leaf, and whose rollback must itself split a leaf to
// re-insert a key it deleted.
func TestCompensateCLRIdentity(t *testing.T) {
	run := func(oracle bool) (recs []wal.Record, moved bool, undoSplits int64) {
		fx := newFixture(t, engine.Options{}, defaultTestOpts())
		k := func(i int) keys.Key { return keys.Uint64(uint64(i)) }
		for i := 0; i < 80; i += 10 {
			if err := fx.tree.Insert(nil, k(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		tx := fx.e.TM.Begin()
		for _, i := range []int{41, 42, 43} {
			if err := fx.tree.Insert(tx, k(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fx.tree.Update(tx, k(60), []byte("doomed")); err != nil {
			t.Fatal(err)
		}
		if err := fx.tree.Delete(tx, k(70)); err != nil {
			t.Fatal(err)
		}
		// Others' inserts split the transaction's leaves, and fill the leaf
		// key 70 goes back to.
		for _, i := range []int{44, 45, 46, 47, 61, 62, 63, 64, 65, 71, 72, 73, 74, 75} {
			if err := fx.tree.Insert(nil, k(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		fx.tree.DrainCompletions()
		pages := map[string]uint64{}
		for lsn := tx.LastLSN(); lsn != wal.NilLSN; {
			rec, err := fx.e.Log.Read(lsn)
			if err != nil {
				t.Fatal(err)
			}
			pages[string(rec.Payload[:12])] = rec.PageID
			lsn = rec.PrevLSN
		}
		splits := fx.tree.Stats.LeafSplits.Load()
		from := fx.e.Log.EndLSN()
		if oracle {
			if err := fx.tree.oracleRollback(fx.e.Log, tx); err != nil {
				t.Fatal(err)
			}
		} else if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		fx.e.Log.FullImage().Scan(from, func(r wal.Record) bool {
			if r.Type == wal.RecAbort || r.Type == wal.RecEnd {
				return true
			}
			if p, ok := pages[string(r.Payload[:min(12, len(r.Payload))])]; ok && r.Type == wal.RecCLR && p != r.PageID {
				moved = true
			}
			recs = append(recs, r)
			return true
		})
		fx.mustVerify(t)
		return recs, moved, fx.tree.Stats.LeafSplits.Load() - splits
	}
	got, moved, splits := run(false)
	want, _, _ := run(true)
	if !moved || splits == 0 {
		t.Fatalf("rollback compensated no moved record (%v) or split no leaf (%d): the test lost its point", moved, splits)
	}
	if len(got) != len(want) {
		t.Fatalf("rollback logged %d records, the oracle %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Type != w.Type || g.TxnID != w.TxnID || g.Kind != w.Kind || g.StoreID != w.StoreID || g.PageID != w.PageID ||
			g.UndoNext != w.UndoNext || !bytes.Equal(g.Payload, w.Payload) {
			t.Fatalf("record %d: rollback logged %+v, the oracle %+v", i, g, w)
		}
	}
}
