package core

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/fsys"
	"repro/internal/keys"
	"repro/internal/pitree/pitreetest"
	"repro/internal/storage"
	"repro/internal/wal"
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

// TestOlderFormatRefused: the golden directory of the build before page
// file format 6 and log format 8 — page file format 5 and log format 7,
// whose fields had 4-byte lengths, kept as testdata/format-v7 — is
// refused, its log by engine.Open with wal.ErrLogVersion and its page file
// by storage.OpenFileDisk with storage.ErrPageFileVersion, and both are
// left byte for byte as they were: nothing converts or recycles them.
func TestOlderFormatRefused(t *testing.T) {
	dir := pitreetest.CopyDir(t, "testdata/format-v7")
	files := func() map[string]string {
		out := map[string]string{}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			out[path] = string(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := files()
	opts := goldenEngine
	opts.DataDir = dir
	if e, _, err := engine.Open(opts); !errors.Is(err, wal.ErrLogVersion) {
		if e != nil {
			e.Close()
		}
		t.Fatalf("engine.Open of a format-7 log: %v, want wal.ErrLogVersion", err)
	}
	if d, err := storage.OpenFileDisk(fsys.OS, filepath.Join(dir, "store-1.pages"), 0); !errors.Is(err, storage.ErrPageFileVersion) {
		if d != nil {
			d.Close()
		}
		t.Fatalf("OpenFileDisk of a format-5 page file: %v, want storage.ErrPageFileVersion", err)
	}
	after := files()
	if len(after) != len(before) {
		t.Fatalf("the directory held %d files, %d after the opens", len(before), len(after))
	}
	for path, b := range before {
		if after[path] != b {
			t.Fatalf("%s changed by the opens", path)
		}
	}
}
