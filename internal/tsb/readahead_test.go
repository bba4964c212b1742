package tsb

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/pitree/pitreetest"
	"repro/internal/storage"
)

// TestSnapshotScanReadAheadStopsAtItsEnd: on a bounded pool with cold
// current data nodes, a SnapshotScan with an end reads ahead no node past
// the one that covers its end, and one with no end still walks the full
// window.
func TestSnapshotScanReadAheadStopsAtItsEnd(t *testing.T) {
	const window = 8
	opts := smallOpts()
	opts.DataCapacity = 4
	fx := newEngineFixture(t, engine.Options{PoolCapacity: 1024, PrefetchWindow: window}, opts)
	for i := uint64(0); i < 200; i++ {
		tx := fx.e.TM.Begin()
		if err := fx.tree.Put(tx, keys.Uint64(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	pool := fx.tree.store.Pool
	var low [][]byte
	var nodes []storage.PageID
	for pid := fx.tree.headOf(t, 0); pid != storage.NilPage; {
		f, err := pool.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		n := f.Data.(*Node)
		low, nodes = append(low, keys.Clone(n.Rect.KeyLow)), append(nodes, pid)
		next := n.KeySib
		pool.Unpin(f)
		pid = next
	}
	if _, err := fx.e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, pid := range nodes {
		pool.Drop(pid)
	}
	snap := fx.e.BeginSnapshot()
	defer snap.Release()
	pitreetest.ScanReadAhead(t, pool, window, low, func(lo, hi []byte, first bool) error {
		return fx.tree.SnapshotScan(snap, lo, hi, func(keys.Key, []byte) bool { return !first })
	})
}
