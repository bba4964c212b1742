package spatial

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/latch"
	"repro/internal/wal"
)

// fillLeaf inserts points of the data node holding p's region, outside
// the transaction, until it is full (quiescent helper).
func (fx *fixture) fillLeaf(t *testing.T, p Point) {
	t.Helper()
	o := fx.tree.kern.NewOp(nil)
	leaf, err := fx.tree.descend(o, p, 0, latch.S, false)
	if err != nil {
		t.Fatal(err)
	}
	r, room := leaf.N.Direct, fx.tree.opts.DataCapacity-leaf.N.Len()
	o.Release(&leaf)
	o.Done()
	for i := uint64(1); room > 0; i++ {
		q := Point{X: r.X0 + i, Y: r.Y0 + i}
		if q == p {
			continue
		}
		if err := fx.tree.Insert(nil, q, []byte("fill")); err != nil {
			t.Fatal(err)
		}
		room--
	}
}

// TestCompensateCLRIdentity: the kernel's Compensate logs, record for
// record, what the hand-written re-traversals it replaced logged
// (oracleRollback) — for a transaction whose points later splits moved to
// other data nodes, and whose rollback must split a full node to put a
// point it removed back. The rollback moves no user counter.
func TestCompensateCLRIdentity(t *testing.T) {
	run := func(oracle bool) (recs []wal.Record, moved bool, undoSplits int64) {
		fx := newFixture(t, smallOpts())
		rng := rand.New(rand.NewSource(25))
		var committed []Point
		for i := 0; i < 40; i++ {
			p := randPoint(rng)
			if err := fx.tree.Insert(nil, p, []byte("c")); err != nil {
				t.Fatal(err)
			}
			committed = append(committed, p)
		}
		tx := fx.e.TM.Begin()
		for i := 0; i < 10; i++ {
			if err := fx.tree.Insert(tx, randPoint(rng), []byte("doomed")); err != nil {
				t.Fatal(err)
			}
		}
		removed := committed[:3]
		for _, p := range removed {
			if err := fx.tree.Delete(tx, p); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 60; i++ {
			if err := fx.tree.Insert(nil, randPoint(rng), []byte("other")); err != nil {
				t.Fatal(err)
			}
		}
		fx.tree.DrainCompletions()
		fx.fillLeaf(t, removed[0])
		fx.tree.DrainCompletions()
		pages := map[string]uint64{}
		for lsn := tx.LastLSN(); lsn != wal.NilLSN; {
			rec, err := fx.e.Log.Read(lsn)
			if err != nil {
				t.Fatal(err)
			}
			pages[string(rec.Payload[:16])] = rec.PageID
			lsn = rec.PrevLSN
		}
		splits, ins, dels := fx.tree.Stats.DataSplits.Load(), fx.tree.Stats.Inserts.Load(), fx.tree.Stats.Deletes.Load()
		from := fx.e.Log.EndLSN()
		if oracle {
			if err := fx.tree.oracleRollback(fx.e.Log, tx); err != nil {
				t.Fatal(err)
			}
		} else if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		if fx.tree.Stats.Inserts.Load() != ins || fx.tree.Stats.Deletes.Load() != dels {
			t.Fatalf("rollback moved Inserts %d → %d, Deletes %d → %d", ins, fx.tree.Stats.Inserts.Load(), dels, fx.tree.Stats.Deletes.Load())
		}
		fx.e.Log.FullImage().Scan(from, func(r wal.Record) bool {
			if r.Type == wal.RecAbort || r.Type == wal.RecEnd {
				return true
			}
			if p, ok := pages[string(r.Payload[:min(16, len(r.Payload))])]; ok && r.Type == wal.RecCLR && p != r.PageID {
				moved = true
			}
			recs = append(recs, r)
			return true
		})
		fx.mustVerify(t)
		return recs, moved, fx.tree.Stats.DataSplits.Load() - splits
	}
	got, moved, splits := run(false)
	want, _, _ := run(true)
	if !moved || splits == 0 {
		t.Fatalf("rollback compensated no moved point (%v) or split no node (%d): the test lost its point", moved, splits)
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
