package spatial

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/wal"
)

// TestSpatialCrashMatrix crashes at sampled log boundaries of a 2-D
// workload and verifies the recovered tree partitions the space exactly
// with only committed points visible.
func TestSpatialCrashMatrix(t *testing.T) {
	fx := newFixture(t, Options{DataCapacity: 4, IndexCapacity: 4, SyncCompletion: true})
	rng := rand.New(rand.NewSource(21))

	type insertion struct {
		p          Point
		committed  wal.LSN
		wasAborted bool
	}
	var log []insertion
	for i := 0; i < 30; i++ {
		tx := fx.e.TM.Begin()
		p := randPoint(rng)
		if err := fx.tree.Insert(tx, p, []byte("v")); err != nil {
			t.Fatal(err)
		}
		ins := insertion{p: p}
		if i%5 == 3 {
			_ = tx.Abort()
			ins.wasAborted = true
		} else {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			ins.committed = fx.e.Log.EndLSN()
		}
		log = append(log, ins)
		if i%6 == 5 {
			fx.tree.DrainCompletions()
		}
	}
	fx.tree.DrainCompletions()
	fx.e.Log.ForceAll()

	boundaries := fx.e.Log.FullImage().Boundaries()
	for bi := 0; bi < len(boundaries); bi += 4 {
		cut := boundaries[bi]
		img := fx.e.Crash(&cut)
		e2 := engine.Restarted(img, fx.e.Opts)
		b2 := Register(e2.Reg)
		st2 := e2.AddStore(testStoreID, Codec{})
		pend, err := e2.AnalyzeAndRedo()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		tree2, err := Open(st2, e2.TM, e2.Locks, b2, "points", fx.tree.opts)
		if err != nil {
			_ = pend.UndoLosers(e2.TM)
			continue
		}
		if err := e2.FinishRecovery(pend); err != nil {
			t.Fatalf("cut %d: undo: %v", cut, err)
		}
		if _, err := st2.Root("points"); err != nil {
			tree2.Close()
			continue
		}
		if _, err := tree2.Verify(); err != nil {
			t.Fatalf("cut %d: ill-formed: %v", cut, err)
		}
		for _, ins := range log {
			_, ok, err := tree2.Search(nil, ins.p)
			if err != nil {
				t.Fatalf("cut %d: search: %v", cut, err)
			}
			switch {
			case ins.wasAborted && ok:
				t.Fatalf("cut %d: aborted point %v present", cut, ins.p)
			case ins.committed != 0 && cut >= ins.committed && !ok:
				t.Fatalf("cut %d: committed point %v lost", cut, ins.p)
			}
		}
		tree2.Close()
	}
}
