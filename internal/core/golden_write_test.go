package core

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/engine"
	"repro/internal/keys"
)

// The golden directory is a small file-backed engine directory — WAL
// segments, master record, page file — abandoned without a Close: page
// images from a checkpoint, a log tail to redo on top of them, and a loser
// to undo, in page file format 4 and log format 6 (frames in extents of
// blocks; node images whose records hold only their level's fields; each
// page's records chained; an update logged as one delta of runs; frames that
// do not store their LSN). The commit that introduced log format 6 wrote it, in its own tree, with
//
//	go test ./internal/core -run TestWriteGoldenDir -golden-out <repo>/internal/core/testdata/golden-v6
//
// TestGoldenDir (golden_test.go) holds later code to it: neither format has
// moved since. A change that bumps a format version re-makes the directory
// the same way, named for the new versions, and deletes the old one.
var goldenOut = flag.String("golden-out", "", "write the golden data directory there")

const goldenDir = "testdata/golden-v6"

var goldenEngine = engine.Options{SegmentSize: 16 << 10, SlotSize: 1 << 10}
var goldenTree = Options{LeafCapacity: 8, IndexCapacity: 6, SyncCompletion: true}

func goldenValue(k uint64, gen int) []byte {
	return []byte(fmt.Sprintf("value-%04d-gen%d-%s", k, gen, bytes.Repeat([]byte{'a' + byte(k%26)}, int(k%17))))
}

// goldenWorkload is the history the directory holds, applied through do
// (nil to only compute the outcome): 300 scattered inserts, a checkpoint,
// then updates, deletes and more inserts. It returns the committed
// contents.
func goldenWorkload(do func(op string, k uint64, v []byte), checkpoint func()) map[uint64][]byte {
	model := map[uint64][]byte{}
	apply := func(op string, k uint64, gen int) {
		var v []byte
		if op == "delete" {
			delete(model, k)
		} else {
			v = goldenValue(k, gen)
			model[k] = v
		}
		if do != nil {
			do(op, k, v)
		}
	}
	for _, k := range rand.New(rand.NewSource(21)).Perm(300) {
		apply("insert", uint64(k), 0)
	}
	if checkpoint != nil {
		checkpoint()
	}
	for k := uint64(0); k < 300; k += 3 {
		apply("update", k, 1)
	}
	for k := uint64(5); k < 300; k += 7 {
		apply("delete", k, 0)
	}
	for k := uint64(300); k < 360; k++ {
		apply("insert", k, 0)
	}
	return model
}

func TestWriteGoldenDir(t *testing.T) {
	if *goldenOut == "" {
		t.Skip("-golden-out not given")
	}
	if err := os.RemoveAll(*goldenOut); err != nil {
		t.Fatal(err)
	}
	opts := goldenEngine
	opts.DataDir = *goldenOut
	e, _, err := engine.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	b := Register(e.Reg, false)
	tree, err := Create(e.AddStore(1, Codec{}), e.TM, e.Locks, b, "golden", goldenTree)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	ops := 0
	goldenWorkload(func(op string, k uint64, v []byte) {
		if ops++; ops%16 == 0 {
			tree.DrainCompletions() // postings, so that the index grows
		}
		switch op {
		case "insert":
			must(tree.Insert(nil, keys.Uint64(k), v))
		case "update":
			must(tree.Update(nil, keys.Uint64(k), v))
		case "delete":
			must(tree.Delete(nil, keys.Uint64(k)))
		}
	}, func() {
		tree.DrainCompletions()
		_, err := e.FlushAll()
		must(err)
		_, err = e.Checkpoint()
		must(err)
	})
	tree.DrainCompletions()
	// A loser: logged, forced, never committed.
	tx := e.TM.Begin()
	for k := uint64(1000); k < 1010; k++ {
		must(tree.Insert(tx, keys.Uint64(k), goldenValue(k, 9)))
	}
	must(tree.Update(tx, keys.Uint64(1), goldenValue(1, 9)))
	must(e.Log.ForceAll())
	// No Close: the directory is what a kill would leave.
}
