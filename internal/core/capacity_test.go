package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/pitree"
)

// TestLargeValuesFitTheirSlots is the regression test of an acknowledged
// write that built a page the page file refused: at default engine and
// tree options, 200 records of 300-byte values, then write-back, a
// checkpoint, the well-formedness check, a crash and a restart. Every
// step succeeds and every record is there after it.
func TestLargeValuesFitTheirSlots(t *testing.T) {
	fx := newFixture(t, engine.Options{}, Options{})
	v := bytes.Repeat([]byte{'v'}, 300)
	const n = 200
	for i := 0; i < n; i++ {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i)), v); err != nil {
			t.Fatalf("insert %d: %v", i, err)
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
	fx = fx.crashRestart(t, nil)
	fx.mustVerify(t)
	for i := 0; i < n; i++ {
		got, ok, err := fx.tree.Search(nil, keys.Uint64(uint64(i)))
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("after restart, key %d: found=%v err=%v", i, ok, err)
		}
	}
}

// maxValue returns the longest value Admit lets key k carry: its length
// prefix grows with it.
func maxValue(tree *Tree, k keys.Key) []byte {
	n := tree.kern.Room()/4 - leafSize(k, nil) - len(k)
	for leafSize(k, make([]byte, n))+len(k) > tree.kern.Room()/4 {
		n--
	}
	return bytes.Repeat([]byte{'m'}, n)
}

// TestRecordTooLarge: a record one byte past the limit is refused with
// ErrRecordTooLarge by every write call, before any lock or log record;
// records at the limit are taken, split their leaves, and survive a
// rollback whose compensations need those splits again.
func TestRecordTooLarge(t *testing.T) {
	fx := newFixture(t, engine.Options{}, Options{Consolidation: true, SyncCompletion: true})
	tree := fx.tree
	k := keys.Uint64(1)
	big := append(maxValue(tree, k), 'x')
	tx := fx.e.TM.Begin()
	end := fx.e.Log.EndLSN()
	for name, write := range map[string]func() error{
		"Insert":   func() error { return tree.Insert(tx, k, big) },
		"Update":   func() error { return tree.Update(tx, k, big) },
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

	// At the limit: even keys committed, then deleted by a transaction
	// that stays open while odd keys fill the room it freed; its rollback
	// re-inserts every record, splitting leaves again.
	const n = 24
	put := func(first int) {
		tx := fx.e.TM.Begin()
		for i := first; i < 2*n; i += 2 {
			k := keys.Uint64(uint64(i))
			if err := tree.Insert(tx, k, maxValue(tree, k)); err != nil {
				t.Fatalf("insert %d at the limit: %v", i, err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	put(0)
	splits := tree.Stats.LeafSplits.Load()
	if splits == 0 {
		t.Fatal("records at the limit split no leaf")
	}
	del := fx.e.TM.Begin()
	for i := 0; i < 2*n; i += 2 {
		if err := tree.Delete(del, keys.Uint64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	put(1)
	splits = tree.Stats.LeafSplits.Load()
	if err := del.Abort(); err != nil {
		t.Fatalf("rollback at the limit: %v", err)
	}
	if tree.Stats.LeafSplits.Load() == splits {
		t.Fatal("the rollback split no leaf")
	}
	fx.mustVerify(t)
	for i := 0; i < 2*n; i++ {
		k := keys.Uint64(uint64(i))
		got, ok, err := tree.Search(nil, k)
		if err != nil || !ok || !bytes.Equal(got, maxValue(tree, k)) {
			t.Fatalf("key %d after rollback: found=%v err=%v", i, ok, err)
		}
	}
}

// checkSizes walks every node of tree: its O(1) encoded size is its
// image's length, and the image fits the page.
func checkSizes(t *testing.T, tree *Tree) {
	t.Helper()
	tree.DrainCompletions()
	err := tree.kern.Walk(0, func(r nref) error {
		if size, img := r.N.EncodedSize(), len(encNodeImage(r.N)); size != img || img > tree.kern.Room() {
			t.Fatalf("page %d (%v): encoded size %d, image %d bytes, room %d", r.Pid(), r.N, size, img, tree.kern.Room())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEncodedSizeExact runs seeded inserts, deletes and replacements of
// values of every length up to 600 bytes — splits, consolidations and
// root growths and shrinks among them — and checks every node's encoded
// size after each phase, under the byte rule and with index nodes of four
// terms.
func TestEncodedSizeExact(t *testing.T) {
	for _, topts := range []Options{
		{Consolidation: true, SyncCompletion: true},
		{IndexCapacity: 4, Consolidation: true, SyncCompletion: true},
	} {
		fx := newFixture(t, engine.Options{}, topts)
		rng := rand.New(rand.NewSource(34))
		value := func() []byte { return bytes.Repeat([]byte{'v'}, rng.Intn(600)) }
		for phase := 0; phase < 4; phase++ {
			for i := 0; i < 800; i++ {
				k := keys.Uint64(uint64(rng.Intn(600)))
				var err error
				switch rng.Intn(4) {
				case 0:
					err = fx.tree.Delete(nil, k)
				case 1:
					err = fx.tree.Update(nil, k, value())
				default:
					err = fx.tree.Insert(nil, k, value())
				}
				if err != nil && !errors.Is(err, ErrKeyExists) && !errors.Is(err, ErrKeyNotFound) {
					t.Fatal(err)
				}
			}
			if phase == 3 {
				for i := 0; i < 600; i++ {
					if i%8 != 0 {
						_ = fx.tree.Delete(nil, keys.Uint64(uint64(i)))
					}
				}
			}
			checkSizes(t, fx.tree)
		}
		s := fx.tree.Stats.Snapshot()
		if s.LeafSplits == 0 || s.Consolidations == 0 || (topts.IndexCapacity > 0 && s.IndexSplits == 0) {
			t.Fatalf("%+v: leaf splits %d, index splits %d, consolidations %d: the workload missed a structure change",
				topts, s.LeafSplits, s.IndexSplits, s.Consolidations)
		}
		fx.mustVerify(t)
	}
}
