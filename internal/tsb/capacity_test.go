package tsb

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/pitree"
)

// TestLargeValuesFitTheirSlots: at default engine and tree options, 200
// versions of 300-byte values on distinct keys, then write-back, a
// checkpoint, the well-formedness check, a crash and a restart. Every
// step succeeds and every key reads its value after it.
func TestLargeValuesFitTheirSlots(t *testing.T) {
	fx := newFixture(t, Options{})
	v := bytes.Repeat([]byte{'v'}, 300)
	const n = 200
	for i := 0; i < n; i++ {
		if err := fx.tree.Put(nil, keys.Uint64(uint64(i)), v); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	fx.tree.DrainCompletions()
	if _, err := fx.e.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	if _, err := fx.e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	fx.mustVerify(t)
	fx = fx.crashRestart(t)
	fx.mustVerify(t)
	for i := 0; i < n; i++ {
		got, ok, err := fx.tree.Get(nil, keys.Uint64(uint64(i)))
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("after restart, key %d: found=%v err=%v", i, ok, err)
		}
	}
}

// maxValue returns the longest value Admit lets key k carry: its length
// prefix grows with it.
func maxValue(tree *Tree, k keys.Key) []byte {
	n := tree.kern.Room()/4 - versionSize(k, nil) - len(k)
	for versionSize(k, make([]byte, n))+len(k) > tree.kern.Room()/4 {
		n--
	}
	return bytes.Repeat([]byte{'m'}, n)
}

// currentLeaf reports the encoded size and time low bound of the current
// data node holding k.
func currentLeaf(t *testing.T, tree *Tree, k keys.Key) (size int, timeLow uint64) {
	t.Helper()
	err := tree.kern.RetryLoop(nil, func(o *opCtx) error {
		leaf, err := tree.descend(o, k, NoEnd-1, 0, latch.S, false)
		if err != nil {
			return err
		}
		size, timeLow = leaf.N.EncodedSize(), leaf.N.Rect.TimeLow
		o.Release(&leaf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return size, timeLow
}

// TestRecordTooLarge: a version one byte past the limit is refused with
// ErrRecordTooLarge by Put and MultiPut, before any lock or log record.
// Versions at the limit are taken, and the rollback of a version a time
// split carried over, whose predecessor at the limit takes more room than
// the node has left, splits the node — by key — to re-carry it.
func TestRecordTooLarge(t *testing.T) {
	fx := newFixture(t, Options{SyncCompletion: true})
	tree := fx.tree
	k := keys.Uint64(5)
	big := append(maxValue(tree, k), 'x')
	tx := fx.e.TM.Begin()
	end := fx.e.Log.EndLSN()
	for name, write := range map[string]func() error{
		"Put":      func() error { return tree.Put(tx, k, big) },
		"MultiPut": func() error { return tree.MultiPut(tx, []keys.Key{keys.Uint64(0), k}, [][]byte{nil, big}) },
	} {
		if err := write(); !errors.Is(err, pitree.ErrRecordTooLarge) {
			t.Fatalf("%s of a %d-byte value: %v, want ErrRecordTooLarge", name, len(big), err)
		}
	}
	if got := fx.e.Log.EndLSN(); got != end {
		t.Fatalf("refused writes logged: end LSN %d, was %d", got, end)
	}
	for _, key := range []keys.Key{keys.Uint64(0), k} {
		if _, held := fx.e.Locks.HeldMode(tx.ID, tree.recLockName(key)); held {
			t.Fatalf("refused write left a lock on %x", key)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// The predecessor: a committed version at the limit. The doomed
	// version is small and stays open while filler versions of other keys
	// time-split the node (carrying the doomed one over, the predecessor
	// into history) and fill it again past the room the predecessor needs.
	prev := maxValue(tree, k)
	if err := tree.Put(nil, k, prev); err != nil {
		t.Fatal(err)
	}
	doomed := fx.e.TM.Begin()
	if err := tree.Put(doomed, k, []byte("d")); err != nil {
		t.Fatal(err)
	}
	put := tree.Now()
	need := versionSize(k, prev) - versionSize(k, []byte("d"))
	for i := 0; ; i++ {
		if i > 10000 {
			t.Fatal("the filler never carried the doomed version into a full node")
		}
		if err := tree.Put(nil, keys.Uint64(uint64(i%4)), []byte("filler")); err != nil {
			t.Fatal(err)
		}
		if size, timeLow := currentLeaf(t, tree, k); timeLow > put && size+need > tree.kern.Room() {
			break
		}
	}
	splits := tree.Stats.TimeSplits.Load() + tree.Stats.KeySplits.Load()
	if err := doomed.Abort(); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if tree.Stats.TimeSplits.Load()+tree.Stats.KeySplits.Load() == splits {
		t.Fatal("the rollback's re-carry split no node")
	}
	fx.mustVerify(t)
	if got, ok, err := tree.Get(nil, k); err != nil || !ok || !bytes.Equal(got, prev) {
		t.Fatalf("after rollback: %d bytes, found=%v err=%v; want the predecessor", len(got), ok, err)
	}
}

// TestRollbackRecarryFitsHistory: while a transaction's version is
// carried over a time split, its node splits by key, never by time again,
// so no history node holds a copy of it that the rollback would have to
// replace with a larger predecessor — history nodes never split to make
// room. Filler versions of other keys fill the node many times over; the
// rollback then leaves every page within its slot.
func TestRollbackRecarryFitsHistory(t *testing.T) {
	fx := newFixture(t, Options{SyncCompletion: true})
	tree := fx.tree
	k := keys.Uint64(5)
	prev := maxValue(tree, k)
	if err := tree.Put(nil, k, prev); err != nil {
		t.Fatal(err)
	}
	doomed := fx.e.TM.Begin()
	if err := tree.Put(doomed, k, []byte("d")); err != nil {
		t.Fatal(err)
	}
	filler := bytes.Repeat([]byte{'f'}, 300)
	for i := 0; i < 3000; i++ {
		if err := tree.Put(nil, keys.Uint64(uint64(i%4)), filler); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Stats.TimeSplits.Load() < 2 {
		t.Fatalf("%d time splits: the filler did not carry the version over", tree.Stats.TimeSplits.Load())
	}
	if err := doomed.Abort(); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if _, err := fx.e.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	fx.mustVerify(t)
	if got, ok, err := tree.Get(nil, k); err != nil || !ok || !bytes.Equal(got, prev) {
		t.Fatalf("after rollback: %d bytes, found=%v err=%v; want the predecessor", len(got), ok, err)
	}
}

// checkSizes walks every node of tree — current, history and retired data
// nodes, level-1 and key-term index nodes — and checks that its O(1)
// encoded size is its image's length and that the image fits the page.
func checkSizes(t *testing.T, tree *Tree) {
	t.Helper()
	tree.DrainCompletions()
	err := tree.kern.Walk(0, func(r nref) error {
		if size, img := r.N.EncodedSize(), len(encNodeImage(r.N)); size != img || img > tree.kern.Room() {
			t.Fatalf("page %d: encoded size %d, image %d bytes, room %d", r.Pid(), size, img, tree.kern.Room())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEncodedSizeExact runs seeded puts and tombstones of values of every
// length up to 600 bytes — time and key splits, index splits with
// clipping, root growths, prunes, version GC and page reclamation among
// them — and checks every node's encoded size after each phase. Snapshots
// pinned across the first three phases keep full nodes time-splitting.
func TestEncodedSizeExact(t *testing.T) {
	fx := newFixture(t, Options{IndexCapacity: 4, SyncCompletion: true, GC: true})
	rng := rand.New(rand.NewSource(34))
	p := pins{e: fx.e}
	for phase := 0; phase < 4; phase++ {
		for i := 0; i < 1500; i++ {
			switch {
			case phase < 3 && i%500 == 0:
				p.rotate()
			case phase == 3 && i == 0:
				p.release()
			}
			k := keys.Uint64(uint64(rng.Intn(300)))
			var err error
			if rng.Intn(5) == 0 {
				err = fx.tree.Delete(nil, k)
			} else {
				err = fx.tree.Put(nil, k, bytes.Repeat([]byte{'v'}, rng.Intn(600)))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := fx.tree.RunGC(); err != nil {
			t.Fatal(err)
		}
		checkSizes(t, fx.tree)
	}
	s := &fx.tree.Stats
	if s.TimeSplits.Load() == 0 || s.KeySplits.Load() == 0 || s.IndexSplits.Load() == 0 || s.GCRetiredNodes.Load() == 0 {
		t.Fatalf("time splits %d, key splits %d, index splits %d, retired nodes %d: the workload missed a structure change",
			s.TimeSplits.Load(), s.KeySplits.Load(), s.IndexSplits.Load(), s.GCRetiredNodes.Load())
	}
	fx.mustVerify(t)
}
