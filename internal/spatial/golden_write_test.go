package spatial

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/engine"
)

// The golden directory is a small file-backed engine directory — WAL
// segments, master record, page file — abandoned without a Close: page
// images from a checkpoint, a log tail to redo on top of them, and a loser
// to undo, in page file format 4 and log format 6 (frames in extents of
// blocks; node images whose records hold only their level's fields; each
// page's records chained; frames that do not store their LSN). The commit
// that introduced log format 6 wrote it, in its own tree, with
//
//	go test ./internal/spatial -run TestWriteGoldenDir -golden-out <repo>/internal/spatial/testdata/golden-v6
//
// TestGoldenDir (golden_test.go) holds later code to it: neither format has
// moved since. A change that bumps a format version re-makes the directory
// the same way, named for the new versions, and deletes the old one.
var goldenOut = flag.String("golden-out", "", "write the golden data directory there")

const goldenDir = "testdata/golden-v6"

var goldenEngine = engine.Options{SegmentSize: 16 << 10, SlotSize: 2 << 10}
var goldenTree = Options{DataCapacity: 8, IndexCapacity: 6, SyncCompletion: true}

func goldenValue(p Point, gen int) []byte {
	return []byte(fmt.Sprintf("value-%d-%d-gen%d-%s", p.X, p.Y, gen, bytes.Repeat([]byte{'a' + byte(p.X%26)}, int(p.Y%17))))
}

// goldenWorkload is the history the directory holds, applied through do
// (nil to only compute the outcome): 180 scattered points, a checkpoint,
// then deletes, re-inserts with other values and more points. It returns
// the committed contents.
func goldenWorkload(do func(del bool, p Point, v []byte), checkpoint func()) map[Point][]byte {
	model := map[Point][]byte{}
	apply := func(del bool, p Point, gen int) {
		var v []byte
		if del {
			delete(model, p)
		} else {
			v = goldenValue(p, gen)
			model[p] = v
		}
		if do != nil {
			do(del, p, v)
		}
	}
	rng := rand.New(rand.NewSource(21))
	var pts []Point
	for len(pts) < 220 {
		p := Point{X: uint64(rng.Intn(1 << 20)), Y: uint64(rng.Intn(1 << 20))}
		if _, dup := model[p]; !dup && len(pts) < 180 {
			apply(false, p, 0)
		}
		pts = append(pts, p)
	}
	if checkpoint != nil {
		checkpoint()
	}
	for i := 0; i < 180; i += 3 {
		apply(true, pts[i], 0)
	}
	for i := 0; i < 180; i += 6 {
		apply(false, pts[i], 1)
	}
	for _, p := range pts[180:] {
		if _, dup := model[p]; !dup {
			apply(false, p, 0)
		}
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
	goldenWorkload(func(del bool, p Point, v []byte) {
		if ops++; ops%16 == 0 {
			tree.DrainCompletions() // postings, so that the index grows
		}
		if del {
			must(tree.Delete(nil, p))
		} else {
			must(tree.Insert(nil, p, v))
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
	for i := uint64(0); i < 10; i++ {
		p := Point{X: 1<<21 + i, Y: 1<<21 + 7*i}
		must(tree.Insert(tx, p, goldenValue(p, 9)))
	}
	must(e.Log.ForceAll())
	// No Close: the directory is what a kill would leave.
}
