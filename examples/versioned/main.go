// Versioned: time travel with the TSB-tree. An inventory of products is
// updated over several "days" (logical timestamps); historical states
// remain queryable exactly as they were, even after the history has been
// time-split out of the current nodes and after a crash.
//
//	go run ./examples/versioned
package main

import (
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/tsb"
)

func main() {
	e := engine.New(engine.Options{})
	binding := tsb.Register(e.Reg)
	store := e.AddStore(1, tsb.Codec{})
	tree, err := tsb.Create(store, e.TM, e.Locks, binding, "inventory",
		tsb.Options{DataCapacity: 16, IndexCapacity: 16})
	if err != nil {
		log.Fatal(err)
	}

	products := []string{"anvil", "bugle", "crate", "dynamo", "easel"}
	var dayEnd []uint64

	// Day 1: everything in stock.
	for _, p := range products {
		must(tree.Put(nil, keys.String(p), []byte("in stock: 10")))
	}
	dayEnd = append(dayEnd, tree.Now())

	// Day 2: some sales, one discontinued.
	must(tree.Put(nil, keys.String("anvil"), []byte("in stock: 3")))
	must(tree.Put(nil, keys.String("bugle"), []byte("in stock: 7")))
	must(tree.Delete(nil, keys.String("easel")))
	dayEnd = append(dayEnd, tree.Now())

	// Day 3: restock and a new product.
	must(tree.Put(nil, keys.String("anvil"), []byte("in stock: 20")))
	must(tree.Put(nil, keys.String("flume"), []byte("in stock: 5")))
	dayEnd = append(dayEnd, tree.Now())
	tree.DrainCompletions()

	show := func(asOf uint64, label string) {
		fmt.Printf("%s:\n", label)
		_ = tree.ScanAsOf(asOf, nil, nil, func(k keys.Key, v []byte) bool {
			fmt.Printf("  %-8s %s\n", k, v)
			return true
		})
	}
	show(dayEnd[0], "inventory as of day 1")
	show(dayEnd[1], "inventory as of day 2 (easel discontinued)")
	show(dayEnd[2], "inventory now")

	// Point query into history.
	v, ok, err := tree.GetAsOf(nil, keys.String("anvil"), dayEnd[1])
	fmt.Printf("anvil on day 2: %q (found=%v, err=%v)\n", v, ok, err)

	// History survives crashes: versions are as durable as everything
	// else in the write-ahead log.
	must(e.Log.ForceAll())
	tree.Close()
	img := e.Crash(nil)
	e2 := engine.Restarted(img, e.Opts)
	b2 := tsb.Register(e2.Reg)
	st2 := e2.AddStore(1, tsb.Codec{})
	pend, err := e2.AnalyzeAndRedo()
	if err != nil {
		log.Fatal(err)
	}
	tree2, err := tsb.Open(st2, e2.TM, e2.Locks, b2, "inventory", tsb.Options{DataCapacity: 16, IndexCapacity: 16})
	if err != nil {
		log.Fatal(err)
	}
	defer tree2.Close()
	if err := e2.FinishRecovery(pend); err != nil {
		log.Fatal(err)
	}
	v, ok, _ = tree2.GetAsOf(nil, keys.String("easel"), dayEnd[0])
	fmt.Printf("after crash+recovery, easel on day 1: %q (found=%v)\n", v, ok)
	if _, ok, _ := tree2.GetAsOf(nil, keys.String("easel"), dayEnd[1]); !ok {
		fmt.Println("and still discontinued on day 2 — history is exact")
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
