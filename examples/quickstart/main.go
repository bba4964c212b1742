// Quickstart: create a Π-tree, write and read data, survive a crash.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/keys"
)

func main() {
	// An engine bundles the substrates: write-ahead log, lock manager,
	// buffer pools, transaction manager.
	e := engine.New(engine.Options{})
	binding := core.Register(e.Reg, e.Opts.PageOriented)
	store := e.AddStore(1, core.Codec{})

	tree, err := core.Create(store, e.TM, e.Locks, binding, "people", core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Non-transactional writes: each is its own atomic action.
	for i, name := range []string{"ada", "grace", "edsger", "barbara", "tony"} {
		if err := tree.Insert(nil, keys.String(name), []byte(fmt.Sprintf("employee-%d", i))); err != nil {
			log.Fatal(err)
		}
	}
	v, ok, err := tree.Search(nil, keys.String("grace"))
	fmt.Printf("grace -> %q (found=%v, err=%v)\n", v, ok, err)

	// Batched writes and reads: a sorted batch descends the tree once
	// per distinct leaf instead of once per key, applying every key for
	// a leaf under a single latch hold and logging the whole run as one
	// group append. One call, one atomic action per run.
	cities := []string{"berlin", "kyoto", "lima", "oslo", "quito"}
	bk := make([]keys.Key, len(cities))
	bv := make([][]byte, len(cities))
	for i, c := range cities {
		bk[i] = keys.String(c)
		bv[i] = []byte("city")
	}
	if err := tree.MultiPut(nil, bk, bv); err != nil {
		log.Fatal(err)
	}
	vals := make([][]byte, len(bk))
	found := make([]bool, len(bk))
	if err := tree.MultiGet(nil, bk, vals, found); err != nil {
		log.Fatal(err)
	}
	hits := 0
	for _, f := range found {
		if f {
			hits++
		}
	}
	stats := tree.Stats.Snapshot()
	fmt.Printf("batched: MultiGet found %d/%d; %d batch ops saved %d leaf visits\n",
		hits, len(bk), stats.BatchOps, stats.LeafVisitsSaved)

	// Transactional writes: all-or-nothing.
	tx := e.TM.Begin()
	_ = tree.Insert(tx, keys.String("zaphod"), []byte("not real"))
	_ = tx.Abort()
	if _, ok, _ := tree.Search(nil, keys.String("zaphod")); !ok {
		fmt.Println("aborted insert rolled back")
	}

	// Ordered iteration.
	fmt.Println("all keys in order:")
	_ = tree.RangeScan(nil, nil, nil, func(k keys.Key, v []byte) bool {
		fmt.Printf("  %s = %s\n", k, v)
		return true
	})

	// Crash and recover: the stable state is the synced log plus whatever
	// page images were synced; restart replays history.
	if err := e.Log.ForceAll(); err != nil {
		panic(err)
	}
	tree.Close()
	img := e.Crash(nil)

	e2 := engine.Restarted(img, e.Opts)
	b2 := core.Register(e2.Reg, e2.Opts.PageOriented)
	st2 := e2.AddStore(1, core.Codec{})
	pend, err := e2.AnalyzeAndRedo()
	if err != nil {
		log.Fatal(err)
	}
	tree2, err := core.Open(st2, e2.TM, e2.Locks, b2, "people", core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer tree2.Close()
	if err := e2.FinishRecovery(pend); err != nil {
		log.Fatal(err)
	}
	n, err := tree2.Count()
	fmt.Printf("after crash+recovery: %d records (err=%v)\n", n, err)
}
