package core

import (
	"bytes"
	"testing"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/pitree/pitreetest"
)

// TestGoldenDir: the directory an earlier binary wrote
// (golden_write_test.go) opens, recovers — redo over its page images, undo
// of its loser — verifies, and scans to exactly the contents its history
// leaves.
func TestGoldenDir(t *testing.T) {
	opts := goldenEngine
	opts.DataDir = pitreetest.CopyDir(t, goldenDir)
	e, recovered, err := engine.Open(opts)
	if err != nil || !recovered {
		t.Fatalf("engine.Open: recovered=%v, %v", recovered, err)
	}
	b := Register(e.Reg, false)
	st := e.AddStore(1, Codec{})
	pend, err := e.AnalyzeAndRedo()
	if err != nil {
		t.Fatalf("analysis and redo: %v", err)
	}
	tree, err := Open(st, e.TM, e.Locks, b, "golden", goldenTree)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.FinishRecovery(pend); err != nil {
		t.Fatalf("undo: %v", err)
	}
	if pend.Stats.RedoneRecords == 0 || pend.Stats.LoserTxns != 1 {
		t.Fatalf("recovery redid %d records and rolled back %d transactions: the directory should need both", pend.Stats.RedoneRecords, pend.Stats.LoserTxns)
	}
	shape, err := tree.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if shape.Height < 3 {
		t.Fatalf("the directory's tree has height %d: no index split", shape.Height)
	}
	want := goldenWorkload(nil, nil)
	got := 0
	err = tree.RangeScan(nil, nil, nil, func(k keys.Key, v []byte) bool {
		got++
		if w, ok := want[keys.ToUint64(k)]; !ok || !bytes.Equal(v, w) {
			t.Errorf("key %d = %q, the directory's history leaves %q (present %v)", keys.ToUint64(k), v, w, ok)
		}
		return true
	})
	if err != nil || got != len(want) {
		t.Fatalf("scan: %d records, want %d; %v", got, len(want), err)
	}
	// And it is a live tree: it takes a write and closes cleanly.
	if err := tree.Insert(nil, keys.Uint64(5000), []byte("after")); err != nil {
		t.Fatal(err)
	}
	tree.Close()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
