package tsb

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/pitree/pitreetest"
)

// TestGoldenDir: the directory an earlier binary wrote
// (golden_write_test.go) opens, recovers — redo over its page images, undo
// of its loser — verifies, and scans, now and as of its checkpoint, to
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
	if shape.HistoryNodes == 0 || shape.Height < 3 {
		t.Fatalf("the directory holds %d history nodes in a tree of height %d: no time split, or no index split", shape.HistoryNodes, shape.Height)
	}
	stamp, err := os.ReadFile(filepath.Join(opts.DataDir, "asof.txt"))
	if err != nil {
		t.Fatal(err)
	}
	asOfTime, err := strconv.ParseUint(string(stamp), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	now, asOf := goldenWorkload(nil, nil)
	for _, c := range []struct {
		what string
		time uint64
		want map[uint64][]byte
	}{{"now", tree.Now(), now}, {"as of the checkpoint", asOfTime, asOf}} {
		got := 0
		err = tree.ScanAsOf(c.time, nil, nil, func(k keys.Key, v []byte) bool {
			got++
			if w, ok := c.want[keys.ToUint64(k)]; !ok || !bytes.Equal(v, w) {
				t.Errorf("%s: key %d = %q, the directory's history leaves %q (present %v)", c.what, keys.ToUint64(k), v, w, ok)
			}
			return true
		})
		if err != nil || got != len(c.want) {
			t.Fatalf("%s: scan of %d records, want %d; %v", c.what, got, len(c.want), err)
		}
	}
	// And it is a live tree: it takes a write and closes cleanly.
	if err := tree.Put(nil, keys.Uint64(5000), []byte("after")); err != nil {
		t.Fatal(err)
	}
	tree.Close()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
