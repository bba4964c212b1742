package tsb

import (
	"bytes"
	"testing"

	"repro/internal/keys"
	"repro/internal/wal"
)

// TestCompensateCLRIdentity: a put's rollback, now the kernel's Compensate
// over undoPut's items, logs record for record what the hand-written
// history-chain walk it replaced logged (oracleRollback): the re-carry
// before the removal in each node that holds a copy of the version, the
// removals pointing back at the put, the terminal CLR last. In "chain"
// a time split carried the doomed versions over, so each has a copy in a
// history node as well; in "split" the re-carry of a predecessor at the
// record limit needs a split of the current node first.
func TestCompensateCLRIdentity(t *testing.T) {
	run := func(t *testing.T, split, oracle bool) (recs []wal.Record, splits int64) {
		fx := newFixture(t, smallOpts())
		if split {
			fx = newFixture(t, Options{SyncCompletion: true})
		}
		tree := fx.tree
		doomedKeys := []keys.Key{keys.Uint64(5), keys.Uint64(6), keys.Uint64(7)}
		value := []byte("pred")
		if split {
			doomedKeys = doomedKeys[:1]
			value = maxValue(tree, doomedKeys[0])
		}
		for _, k := range doomedKeys {
			if err := tree.Put(nil, k, value); err != nil {
				t.Fatal(err)
			}
		}
		doomed := fx.e.TM.Begin()
		for _, k := range doomedKeys {
			if err := tree.Put(doomed, k, []byte("d")); err != nil {
				t.Fatal(err)
			}
		}
		put := tree.Now()
		need := versionSize(doomedKeys[0], value) - versionSize(doomedKeys[0], []byte("d"))
		for i := 0; ; i++ {
			if i > 10000 {
				t.Fatal("the filler never carried the doomed versions over")
			}
			if err := tree.Put(nil, keys.Uint64(uint64(i%4)), []byte("filler")); err != nil {
				t.Fatal(err)
			}
			if size, timeLow := currentLeaf(t, tree, doomedKeys[0]); timeLow > put && (!split || size+need > tree.kern.Room()) {
				break
			}
		}
		splits = tree.Stats.TimeSplits.Load() + tree.Stats.KeySplits.Load()
		from := fx.e.Log.EndLSN()
		if oracle {
			if err := tree.oracleRollback(fx.e.Log, doomed); err != nil {
				t.Fatal(err)
			}
		} else if err := doomed.Abort(); err != nil {
			t.Fatal(err)
		}
		fx.e.Log.FullImage().Scan(from, func(r wal.Record) bool {
			if r.Type != wal.RecAbort && r.Type != wal.RecEnd {
				recs = append(recs, r)
			}
			return true
		})
		fx.mustVerify(t)
		return recs, tree.Stats.TimeSplits.Load() + tree.Stats.KeySplits.Load() - splits
	}
	for _, split := range []bool{false, true} {
		name := map[bool]string{false: "chain", true: "split"}[split]
		t.Run(name, func(t *testing.T) {
			got, gotSplits := run(t, split, false)
			want, wantSplits := run(t, split, true)
			recarries, pages := 0, map[uint64]bool{}
			for _, r := range got {
				if r.Type == wal.RecCLR && r.Kind == KindPut {
					recarries++
				}
				if r.Type == wal.RecCLR && r.Kind == KindRemoveVersion {
					pages[r.PageID] = true
				}
			}
			if recarries == 0 || len(pages) < 2 || (split && gotSplits == 0) {
				t.Fatalf("%d re-carries, removals on %d pages, %d rollback splits: the test lost its point", recarries, len(pages), gotSplits)
			}
			t.Logf("%d records, %d re-carries, removals on %d pages, %d splits", len(got), recarries, len(pages), gotSplits)
			if gotSplits != wantSplits || len(got) != len(want) {
				t.Fatalf("rollback split %d nodes and logged %d records, the oracle %d and %d", gotSplits, len(got), wantSplits, len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.Type != w.Type || g.TxnID != w.TxnID || g.Kind != w.Kind || g.StoreID != w.StoreID || g.PageID != w.PageID ||
					g.UndoNext != w.UndoNext || !bytes.Equal(g.Payload, w.Payload) {
					t.Fatalf("record %d: rollback logged %+v, the oracle %+v", i, g, w)
				}
			}
		})
	}
}
