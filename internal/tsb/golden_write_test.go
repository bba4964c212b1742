package tsb

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/engine"
	"repro/internal/keys"
)

// The golden directory is a small file-backed engine directory — WAL
// segments, master record, page file — abandoned without a Close: page
// images from a checkpoint, a log tail to redo on top of them, and a loser
// to undo, in page file format 6 and log format 8 (frames in extents of
// blocks a sixteenth of the slot; every byte string prefixed by the uvarint
// of its length plus one; node images whose records hold only their level's fields; each
// page's records chained; frames that do not store their LSN; a put logged
// as the delta from the version it supersedes); beside it, in
// asof.txt, the tree's clock at the checkpoint. The commit that introduced
// log format 8 wrote it, in its own tree, with
//
//	go test ./internal/tsb -run TestWriteGoldenDir -golden-out <repo>/internal/tsb/testdata/golden-v8
//
// The same commit introduced page file format 6. TestGoldenDir
// (golden_test.go) holds later code to it: neither format has moved
// since. A change that bumps the log format re-makes the directory
// the same way, named for the new version, and deletes the old one; one
// that bumps the page file format re-makes its page file.
var goldenOut = flag.String("golden-out", "", "write the golden data directory there")

const goldenDir = "testdata/golden-v8"

var goldenEngine = engine.Options{SegmentSize: 16 << 10, SlotSize: 2 << 10}
var goldenTree = Options{DataCapacity: 8, IndexCapacity: 6, SyncCompletion: true}

func goldenValue(k uint64, gen int) []byte {
	return []byte(fmt.Sprintf("value-%04d-gen%d-%s", k, gen, bytes.Repeat([]byte{'a' + byte(k%26)}, int(k%17))))
}

// goldenWorkload is the history the directory holds, applied through do
// (nil to only compute the outcome): 150 scattered puts, a checkpoint, then
// new versions, tombstones and more keys. It returns the current contents
// and those as of the checkpoint.
func goldenWorkload(do func(op string, k uint64, v []byte), checkpoint func()) (now, asOf map[uint64][]byte) {
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
	for _, k := range rand.New(rand.NewSource(21)).Perm(150) {
		apply("put", uint64(k), 0)
	}
	for k := uint64(0); k < 150; k += 5 { // versions before the checkpoint: time splits
		apply("put", k, 1)
	}
	asOf = map[uint64][]byte{}
	for k, v := range model {
		asOf[k] = v
	}
	if checkpoint != nil {
		checkpoint()
	}
	for k := uint64(0); k < 150; k += 3 {
		apply("put", k, 2)
	}
	for k := uint64(5); k < 150; k += 7 {
		apply("delete", k, 0)
	}
	for k := uint64(150); k < 180; k++ {
		apply("put", k, 0)
	}
	return model, asOf
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
	b := Register(e.Reg)
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
		if op == "delete" {
			must(tree.Delete(nil, keys.Uint64(k)))
		} else {
			must(tree.Put(nil, keys.Uint64(k), v))
		}
	}, func() {
		tree.DrainCompletions()
		must(os.WriteFile(filepath.Join(*goldenOut, "asof.txt"), []byte(strconv.FormatUint(tree.Now(), 10)), 0o644))
		_, err := e.FlushAll()
		must(err)
		_, err = e.Checkpoint()
		must(err)
	})
	tree.DrainCompletions()
	// A loser: logged, forced, never committed.
	tx := e.TM.Begin()
	for k := uint64(1000); k < 1010; k++ {
		must(tree.Put(tx, keys.Uint64(k), goldenValue(k, 9)))
	}
	must(tree.Put(tx, keys.Uint64(1), goldenValue(1, 9)))
	must(e.Log.ForceAll())
	// No Close: the directory is what a kill would leave.
}
