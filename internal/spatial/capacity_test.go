package spatial

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/pitree"
)

// TestLargeValuesFitTheirSlots: at default engine and tree options, 200
// points with 300-byte values, then write-back, a checkpoint, the
// well-formedness check, a crash and a restart. Every step succeeds and
// every point reads its value after it.
func TestLargeValuesFitTheirSlots(t *testing.T) {
	fx := newFixture(t, Options{})
	v := bytes.Repeat([]byte{'v'}, 300)
	rng := rand.New(rand.NewSource(1))
	pts := map[Point]bool{}
	for len(pts) < 200 {
		p := randPoint(rng)
		if pts[p] {
			continue
		}
		pts[p] = true
		if err := fx.tree.Insert(nil, p, v); err != nil {
			t.Fatalf("insert %v: %v", p, err)
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
	for p := range pts {
		got, ok, err := fx.tree.Search(nil, p)
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("after restart, point %v: found=%v err=%v", p, ok, err)
		}
	}
}

// maxValue returns the longest value Admit lets a point carry: its length
// prefix grows with it.
func maxValue(tree *Tree) []byte {
	n := tree.kern.Room()/4 - pointSize(nil)
	for pointSize(make([]byte, n)) > tree.kern.Room()/4 {
		n--
	}
	return bytes.Repeat([]byte{'m'}, n)
}

// TestRecordTooLarge: a point one byte past the limit is refused with
// ErrRecordTooLarge before any lock or log record; points at the limit are
// taken, split their nodes, and survive a rollback whose compensations
// need those splits again.
func TestRecordTooLarge(t *testing.T) {
	fx := newFixture(t, Options{SyncCompletion: true})
	tree := fx.tree
	big := append(maxValue(tree), 'x')
	tx := fx.e.TM.Begin()
	end := fx.e.Log.EndLSN()
	if err := tree.Insert(tx, pt(1, 1), big); !errors.Is(err, pitree.ErrRecordTooLarge) {
		t.Fatalf("insert of a %d-byte value: %v, want ErrRecordTooLarge", len(big), err)
	}
	if got := fx.e.Log.EndLSN(); got != end {
		t.Fatalf("refused insert logged: end LSN %d, was %d", got, end)
	}
	if _, held := fx.e.Locks.HeldMode(tx.ID, tree.recLockName(pt(1, 1))); held {
		t.Fatal("refused insert left a lock")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Points at the limit on a diagonal: even ones committed, then removed
	// by a transaction that stays open while odd ones fill the room it
	// freed; its rollback re-inserts every point, splitting nodes again.
	const n = 24
	at := func(i int) Point { return pt(uint64(i)<<20, uint64(i)<<20) }
	put := func(first int) {
		tx := fx.e.TM.Begin()
		for i := first; i < 2*n; i += 2 {
			if err := tree.Insert(tx, at(i), maxValue(tree)); err != nil {
				t.Fatalf("insert %d at the limit: %v", i, err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	put(0)
	if tree.Stats.DataSplits.Load() == 0 {
		t.Fatal("points at the limit split no node")
	}
	del := fx.e.TM.Begin()
	for i := 0; i < 2*n; i += 2 {
		if err := tree.Delete(del, at(i)); err != nil {
			t.Fatal(err)
		}
	}
	put(1)
	splits := tree.Stats.DataSplits.Load()
	if err := del.Abort(); err != nil {
		t.Fatalf("rollback at the limit: %v", err)
	}
	if tree.Stats.DataSplits.Load() == splits {
		t.Fatal("the rollback split no node")
	}
	fx.mustVerify(t)
	for i := 0; i < 2*n; i++ {
		got, ok, err := tree.Search(nil, at(i))
		if err != nil || !ok || !bytes.Equal(got, maxValue(tree)) {
			t.Fatalf("point %d after rollback: found=%v err=%v", i, ok, err)
		}
	}
}

// checkSizes walks every node of tree — data nodes with their sibling
// terms, index nodes with clipped terms — and checks that its O(1) encoded
// size is its image's length and that the image fits the page.
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

// TestEncodedSizeExact runs seeded inserts and removals of points with
// values of every length up to 600 bytes — data and index splits,
// clipping, root growths, and in the last phase the removal of every
// point and the absorption of emptied nodes — and checks every node's
// encoded size after each phase.
func TestEncodedSizeExact(t *testing.T) {
	fx := newFixture(t, Options{IndexCapacity: 4, SyncCompletion: true, Reclaim: true})
	rng := rand.New(rand.NewSource(34))
	var live []Point
	for phase := 0; phase < 4; phase++ {
		for i := 0; i < 1000 || phase == 3 && len(live) > 0; i++ {
			if len(live) > 0 && (phase == 3 || rng.Intn(4) == 0) {
				j := rng.Intn(len(live))
				if err := fx.tree.Delete(nil, live[j]); err != nil {
					t.Fatal(err)
				}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			p := randPoint(rng)
			if err := fx.tree.Insert(nil, p, bytes.Repeat([]byte{'v'}, rng.Intn(600))); err == nil {
				live = append(live, p)
			} else if !errors.Is(err, ErrPointExists) {
				t.Fatal(err)
			}
		}
		if _, err := fx.tree.absorbPass(); err != nil {
			t.Fatal(err)
		}
		checkSizes(t, fx.tree)
	}
	s := &fx.tree.Stats
	if s.DataSplits.Load() == 0 || s.IndexSplits.Load() == 0 || s.ClippedTerms.Load() == 0 || s.Absorbs.Load() == 0 {
		t.Fatalf("data splits %d, index splits %d, clipped terms %d, absorbed nodes %d: the workload missed a structure change",
			s.DataSplits.Load(), s.IndexSplits.Load(), s.ClippedTerms.Load(), s.Absorbs.Load())
	}
	fx.mustVerify(t)
}
