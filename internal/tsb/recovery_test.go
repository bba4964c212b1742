package tsb

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/wal"
)

// TestTSBCrashMatrix crashes at every log boundary of a versioned
// workload and verifies the recovered TSB tree is well-formed with
// exactly the surviving committed versions visible.
func TestTSBCrashMatrix(t *testing.T) {
	fx := newFixture(t, Options{DataCapacity: 4, IndexCapacity: 4, SyncCompletion: true, CheckLatchOrder: true})
	const n = 30

	committedBy := make(map[int]wal.LSN)
	beganAt := make(map[int]wal.LSN)
	aborted := make(map[int]bool)
	for i := 0; i < n; i++ {
		beganAt[i] = fx.e.Log.EndLSN()
		tx := fx.e.TM.Begin()
		k := keys.Uint64(uint64(i % 10)) // repeated keys: versions stack up
		if err := fx.tree.Put(tx, k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if i%6 == 2 {
			_ = tx.Abort()
			aborted[i] = true
		} else {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			committedBy[i] = fx.e.Log.EndLSN()
		}
		if i%7 == 6 {
			fx.tree.DrainCompletions()
		}
	}
	fx.tree.DrainCompletions()
	fx.e.Log.ForceAll()

	boundaries := fx.e.Log.FullImage().Boundaries()
	// The matrix is O(boundaries * restart); sample every third boundary
	// plus the ends to keep the test brisk.
	for bi := 0; bi < len(boundaries); bi += 3 {
		cut := boundaries[bi]
		img := fx.e.Crash(&cut)
		e2 := engine.Restarted(img, fx.e.Opts)
		b2 := Register(e2.Reg)
		st2 := e2.AddStore(testStoreID, Codec{})
		pend, err := e2.AnalyzeAndRedo()
		if err != nil {
			t.Fatalf("cut %d: analyze: %v", cut, err)
		}
		tree2, err := Open(st2, e2.TM, e2.Locks, b2, "versions", fx.tree.opts)
		if err != nil {
			_ = pend.UndoLosers(e2.TM)
			continue // cut precedes creation
		}
		if err := e2.FinishRecovery(pend); err != nil {
			t.Fatalf("cut %d: undo: %v", cut, err)
		}
		if _, err := st2.Root("versions"); err != nil {
			tree2.Close()
			continue
		}
		if _, err := tree2.Verify(); err != nil {
			t.Fatalf("cut %d: ill-formed: %v", cut, err)
		}
		// Visibility: for each key, the current value must be the latest
		// DEFINITELY-committed put, or any later put whose commit record
		// may lie in the ambiguous window (its transaction began before
		// the cut but our recorded commit LSN — which trails the end
		// record — is past it).
		latestIdx := make(map[int]int)
		for i := 0; i < n; i++ {
			if aborted[i] {
				continue
			}
			if lsn, ok := committedBy[i]; ok && cut >= lsn {
				latestIdx[i%10] = i
			}
		}
		for ki, li := range latestIdx {
			v, ok, err := tree2.Get(nil, keys.Uint64(uint64(ki)))
			if err != nil || !ok {
				t.Fatalf("cut %d: key %d missing (%v,%v)", cut, ki, ok, err)
			}
			acceptable := map[string]bool{fmt.Sprintf("v%d", li): true}
			for j := li + 1; j < n; j++ {
				if j%10 == ki && !aborted[j] && beganAt[j] <= cut {
					acceptable[fmt.Sprintf("v%d", j)] = true
				}
			}
			if !acceptable[string(v)] {
				t.Fatalf("cut %d: key %d got %q, not in acceptable set (latest definite v%d)", cut, ki, v, li)
			}
		}
		tree2.Close()
	}
}
