package engine

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/keys"
)

// TestGroupCommitCrashReplay is the durability half of the group-commit
// contract, checked the way T4 checks recovery: run concurrent
// committers whose forces coalesce, crash keeping only the stable log
// prefix (no ForceAll — exactly what an acknowledged commit guarantees),
// restart, and require every acknowledged transaction's key to be
// present and the tree well-formed.
func TestGroupCommitCrashReplay(t *testing.T) {
	eopts := Options{}
	topts := core.Options{LeafCapacity: 8, IndexCapacity: 8, Consolidation: true}
	e := New(eopts)
	b := core.Register(e.Reg, false)
	st := e.AddStore(1, core.Codec{})
	tree, err := core.Create(st, e.TM, e.Locks, b, "gc", topts)
	if err != nil {
		t.Fatal(err)
	}

	const committers = 8
	const perG = 30
	acked := make([][]uint64, committers)
	var wg sync.WaitGroup
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := uint64(g)*1_000_000 + uint64(i)
				tx := e.TM.Begin()
				if err := tree.Insert(tx, keys.Uint64(k), []byte("v")); err != nil {
					_ = tx.Abort()
					continue
				}
				if err := tx.Commit(); err == nil {
					acked[g] = append(acked[g], k)
				}
			}
		}(g)
	}
	wg.Wait()
	tree.Close()

	// The committers must actually have shared force rounds — otherwise
	// this test degenerates to the plain commit-durability test.
	_, flushes := e.Log.Stats()
	if flushes >= committers*perG {
		t.Fatalf("flushes = %d for %d commits; no group-commit coalescing", flushes, committers*perG)
	}

	// Crash with the stable prefix only: acknowledged commits are in it
	// by the ForceGroup contract, unforced tails (trailing completions)
	// are lost.
	img := e.Crash(nil)
	e2 := Restarted(img, eopts)
	b2 := core.Register(e2.Reg, false)
	st2 := e2.AddStore(1, core.Codec{})
	pend, err := e2.AnalyzeAndRedo()
	if err != nil {
		t.Fatal(err)
	}
	tree2, err := core.Open(st2, e2.TM, e2.Locks, b2, "gc", topts)
	if err != nil {
		t.Fatal(err)
	}
	defer tree2.Close()
	if err := e2.FinishRecovery(pend); err != nil {
		t.Fatal(err)
	}
	if _, err := tree2.Verify(); err != nil {
		t.Fatalf("tree ill-formed after group-commit crash: %v", err)
	}
	total := 0
	for g := 0; g < committers; g++ {
		for _, k := range acked[g] {
			if _, ok, err := tree2.Search(nil, keys.Uint64(k)); err != nil || !ok {
				t.Fatalf("acknowledged key %d lost after crash (err=%v)", k, err)
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("no commits were acknowledged")
	}
	t.Logf("recovered all %d acknowledged commits; flushes=%d", total, flushes)
}
