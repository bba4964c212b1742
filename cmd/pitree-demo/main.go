// Command pitree-demo walks through the paper's lifecycle on a tiny tree
// with verbose narration: inserts that split nodes, the intermediate
// state between the two atomic actions of a structure change, lazy
// completion, a crash, and recovery.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/keys"
)

func main() {
	fmt.Println("Π-tree demo: decomposed structure changes, lazy completion, crash recovery")
	fmt.Println()

	topts := core.Options{LeafCapacity: 4, IndexCapacity: 4, Consolidation: true, SyncCompletion: true, NoCompletion: true}
	e := engine.New(engine.Options{})
	b := core.Register(e.Reg, false)
	st := e.AddStore(1, core.Codec{})
	tree, err := core.Create(st, e.TM, e.Locks, b, "demo", topts)
	check(err)

	fmt.Println("1. Insert 20 keys with node capacity 4; index-term POSTING IS SUPPRESSED,")
	fmt.Println("   so every split leaves the intermediate state: a new node reachable only")
	fmt.Println("   through its container's side pointer (perfectly legal in a Π-tree).")
	for i := 0; i < 20; i++ {
		check(tree.Insert(nil, keys.Uint64(uint64(i)), []byte(fmt.Sprintf("value-%d", i))))
	}
	shape, err := tree.Verify()
	check(err)
	fmt.Printf("   -> %d leaf splits committed, tree verified WELL-FORMED in the intermediate state\n",
		tree.Stats.LeafSplits.Load())
	fmt.Printf("   -> shape: height=%d nodes/level=%v records=%d\n\n", shape.Height, shape.NodesAtLevel, shape.Records)

	fmt.Println("2. Searches still find every key, by traversing side pointers:")
	for _, k := range []uint64{0, 7, 19} {
		v, ok, err := tree.Search(nil, keys.Uint64(k))
		check(err)
		fmt.Printf("   search(%d) = %q (found=%v)\n", k, v, ok)
	}
	fmt.Printf("   -> side traversals so far: %d\n\n", tree.Stats.SideTraversals.Load())

	fmt.Println("3. CRASH with the structure changes incomplete (log forced, pages not).")
	check(e.Log.ForceAll())
	tree.Close()
	img := e.Crash(nil)

	e2 := engine.Restarted(img, engine.Options{})
	b2 := core.Register(e2.Reg, false)
	st2 := e2.AddStore(1, core.Codec{})
	pend, err := e2.AnalyzeAndRedo()
	check(err)
	topts.NoCompletion = false // normal processing resumes with completion on
	tree2, err := core.Open(st2, e2.TM, e2.Locks, b2, "demo", topts)
	check(err)
	check(e2.FinishRecovery(pend))
	defer tree2.Close()
	fmt.Printf("   -> restart: %d records redone, %d loser actions rolled back,\n",
		pend.Stats.RedoneRecords, pend.Stats.LoserActions)
	fmt.Println("      and NO special measures for the interrupted structure changes (innovation 4)")
	_, err = tree2.Verify()
	check(err)
	fmt.Println("   -> recovered tree verified well-formed, still in the intermediate state")
	fmt.Println()

	fmt.Println("4. Normal processing detects the incomplete changes (side-pointer traversals)")
	fmt.Println("   and schedules completing atomic actions; each re-tests the tree state, so")
	fmt.Println("   duplicates are harmless:")
	for i := 0; i < 20; i++ {
		_, _, err := tree2.Search(nil, keys.Uint64(uint64(i)))
		check(err)
	}
	tree2.DrainCompletions()
	st3 := tree2.Stats.Snapshot()
	fmt.Printf("   -> postings scheduled=%d performed=%d already-done=%d\n",
		st3.PostsScheduled, st3.PostsPerformed, st3.PostsAlreadyDone)
	_, err = tree2.Verify()
	check(err)
	fmt.Println("   -> structure changes completed; tree verified again")
	fmt.Println()

	fmt.Println("5. Transactions: an abort rolls back its inserts (and only its own):")
	tx := e2.TM.Begin()
	check(tree2.Insert(tx, keys.Uint64(100), []byte("doomed")))
	check(tree2.Insert(tx, keys.Uint64(101), []byte("doomed")))
	check(tx.Abort())
	for _, k := range []uint64{100, 101} {
		if _, ok, _ := tree2.Search(nil, keys.Uint64(k)); ok {
			panic("aborted key visible")
		}
	}
	fmt.Println("   -> aborted keys 100,101 are gone; the 20 committed keys remain")
	n, err := tree2.Count()
	check(err)
	fmt.Printf("   -> final record count: %d\n", n)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
