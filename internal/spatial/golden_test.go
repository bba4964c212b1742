package spatial

import (
	"bytes"
	"testing"

	"repro/internal/engine"
	"repro/internal/pitree/pitreetest"
)

// TestGoldenDir: the directory an earlier binary wrote
// (golden_write_test.go) opens, recovers — redo over its page images, undo
// of its loser — verifies, and answers a query of the whole space with
// exactly the contents its history leaves.
func TestGoldenDir(t *testing.T) {
	opts := goldenEngine
	opts.DataDir = pitreetest.CopyDir(t, goldenDir)
	e, recovered, err := engine.Open(opts)
	if err != nil || !recovered {
		t.Fatalf("engine.Open: recovered=%v, %v", recovered, err)
	}
	b := Register(e.Reg)
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
	if shape.IndexNodes < 2 {
		t.Fatalf("the directory holds %d index nodes: no index split", shape.IndexNodes)
	}
	want := goldenWorkload(nil, nil)
	got := 0
	err = tree.RegionQuery(FullSpace(), func(p Point, v []byte) bool {
		got++
		if w, ok := want[p]; !ok || !bytes.Equal(v, w) {
			t.Errorf("point %v = %q, the directory's history leaves %q (present %v)", p, v, w, ok)
		}
		return true
	})
	if err != nil || got != len(want) {
		t.Fatalf("query: %d points, want %d; %v", got, len(want), err)
	}
	// And it is a live tree: it takes a write and closes cleanly.
	if err := tree.Insert(nil, Point{X: 5, Y: 5}, []byte("after")); err != nil {
		t.Fatal(err)
	}
	tree.Close()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
