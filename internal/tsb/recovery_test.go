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
	fx := newFixture(t, Options{DataCapacity: 4, IndexCapacity: 4, SyncCompletion: true})
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

// TestRecarrySurvivesCrashMidRollback: a rollback that removes a version
// a time split carried into the current node re-carries its committed
// predecessor there, with a second CLR. A crash between the two CLRs must
// not lose the predecessor: the restart re-runs the undo of that put. With
// the removal logged first, the re-run found the version already gone,
// never re-carried, and the key read as absent (the torture's "snapshot
// durability violation: snap key 4 = "" ok=false, committed "s1"").
func TestRecarrySurvivesCrashMidRollback(t *testing.T) {
	fx := newFixture(t, smallOpts())
	tree := fx.tree
	k := keys.Uint64(5)
	if err := tree.Put(nil, k, []byte("pred")); err != nil {
		t.Fatal(err)
	}
	doomed := fx.e.TM.Begin()
	if err := tree.Put(doomed, k, []byte("d")); err != nil {
		t.Fatal(err)
	}
	put := tree.Now()
	for i := 0; ; i++ {
		if _, timeLow := currentLeaf(t, tree, k); timeLow > put {
			break // the doomed version is carried
		}
		if i > 1000 {
			t.Fatal("the filler never time-split the doomed version's node")
		}
		if err := tree.Put(nil, keys.Uint64(uint64(i%4)), []byte("filler")); err != nil {
			t.Fatal(err)
		}
	}
	if err := doomed.Abort(); err != nil {
		t.Fatal(err)
	}
	fx.e.Log.ForceAll()
	// The rollback's first two CLRs are the removal and the re-carry in
	// the current node; the crash keeps the first.
	var clrs []wal.Record
	fx.e.Log.FullImage().Scan(wal.NilLSN, func(r wal.Record) bool {
		if r.Type == wal.RecCLR && r.TxnID == doomed.ID {
			clrs = append(clrs, r)
		}
		return len(clrs) < 2
	})
	if len(clrs) < 2 || clrs[0].PageID != clrs[1].PageID || clrs[0].Kind == clrs[1].Kind {
		t.Fatalf("the rollback did not re-carry: first CLRs %v", clrs)
	}
	cut := clrs[1].LSN
	fx2 := fx.restartFrom(t, fx.e.Crash(&cut))
	fx2.mustVerify(t)
	if v, ok, err := fx2.tree.Get(nil, k); err != nil || !ok || string(v) != "pred" {
		t.Fatalf("after restart: %q found=%v err=%v; want the committed predecessor", v, ok, err)
	}
}
