package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/pitree/pitreetest"
	"repro/internal/storage"
)

// TestRangeScanReadAheadStopsAtItsEnd: on a bounded pool with cold
// leaves, a RangeScan with an end reads ahead no leaf past the one that
// covers its end, and one with no end still walks the full window.
func TestRangeScanReadAheadStopsAtItsEnd(t *testing.T) {
	const window = 8
	fx := newFixture(t, engine.Options{PoolCapacity: 1024, PrefetchWindow: window},
		Options{LeafCapacity: 4, IndexCapacity: 8, SyncCompletion: true})
	for i := uint64(0); i < 200; i++ {
		tx := fx.e.TM.Begin()
		if err := fx.tree.Insert(tx, keys.Uint64(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	pool := fx.tree.store.Pool
	var low [][]byte
	var leaves []storage.PageID
	for pid := fx.leafOf(t, keys.Uint64(0)); pid != storage.NilPage; {
		f, err := pool.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		n := f.Data.(*Node)
		low, leaves = append(low, keys.Clone(n.Low)), append(leaves, pid)
		next := n.Right
		pool.Unpin(f)
		pid = next
	}
	if _, err := fx.e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, pid := range leaves {
		pool.Drop(pid)
	}
	pitreetest.ScanReadAhead(t, pool, window, low, func(lo, hi []byte, first bool) error {
		return fx.tree.RangeScan(nil, lo, hi, func(keys.Key, []byte) bool { return !first })
	})
}
