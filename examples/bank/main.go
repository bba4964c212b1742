// Bank: concurrent transfer transactions over a Π-tree under
// page-oriented UNDO — the regime where data-node splits interact with
// transactions through move locks (§4.2). Transfers run on many
// goroutines, deadlock victims retry, a fraction aborts deliberately, and
// the invariant (total balance constant) is checked at the end and again
// after a crash+recovery.
//
//	go run ./examples/bank
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/lock"
)

const (
	accounts       = 500
	initialBalance = 1000
	workers        = 8
	transfersEach  = 400
)

func encodeBalance(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

func decodeBalance(b []byte) int64 {
	return int64(binary.BigEndian.Uint64(b))
}

func main() {
	eopts := engine.Options{PageOriented: true}
	e := engine.New(eopts)
	binding := core.Register(e.Reg, true)
	store := e.AddStore(1, core.Codec{})
	tree, err := core.Create(store, e.TM, e.Locks, binding, "accounts",
		core.Options{LeafCapacity: 16, IndexCapacity: 16, Consolidation: true})
	if err != nil {
		log.Fatal(err)
	}

	for i := 0; i < accounts; i++ {
		if err := tree.Insert(nil, keys.Uint64(uint64(i)), encodeBalance(initialBalance)); err != nil {
			log.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	var deadlocks, aborted, committed int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < transfersEach; i++ {
				from := uint64(rng.Intn(accounts))
				to := uint64(rng.Intn(accounts))
				if from == to {
					continue
				}
				amount := int64(rng.Intn(50) + 1)
				for {
					err := transfer(e, tree, from, to, amount, rng.Intn(20) == 0)
					if errors.Is(err, lock.ErrDeadlock) {
						mu.Lock()
						deadlocks++
						mu.Unlock()
						continue // victim retries, like a real client
					}
					if errors.Is(err, errDeliberateAbort) {
						mu.Lock()
						aborted++
						mu.Unlock()
						break
					}
					if err != nil {
						log.Fatalf("transfer: %v", err)
					}
					mu.Lock()
					committed++
					mu.Unlock()
					break
				}
			}
		}(w)
	}
	wg.Wait()
	tree.DrainCompletions()

	total := sumBalances(tree)
	fmt.Printf("transfers committed=%d aborted=%d deadlock-retries=%d\n", committed, aborted, deadlocks)
	fmt.Printf("total balance: %d (expected %d) — invariant %s\n",
		total, accounts*initialBalance, okStr(total == accounts*initialBalance))

	// Crash and recover; the invariant must survive.
	if err := e.Log.ForceAll(); err != nil {
		panic(err)
	}
	tree.Close()
	img := e.Crash(nil)
	e2 := engine.Restarted(img, eopts)
	b2 := core.Register(e2.Reg, true)
	st2 := e2.AddStore(1, core.Codec{})
	pend, err := e2.AnalyzeAndRedo()
	if err != nil {
		log.Fatal(err)
	}
	tree2, err := core.Open(st2, e2.TM, e2.Locks, b2, "accounts",
		core.Options{LeafCapacity: 16, IndexCapacity: 16, Consolidation: true})
	if err != nil {
		log.Fatal(err)
	}
	defer tree2.Close()
	if err := e2.FinishRecovery(pend); err != nil {
		log.Fatal(err)
	}
	total2 := sumBalances(tree2)
	fmt.Printf("after crash+recovery: total balance %d — invariant %s\n",
		total2, okStr(total2 == accounts*initialBalance))
	st := tree2.Stats.Snapshot()
	_ = st
	fmt.Printf("tree stats during run: splits=%d inTxnSplits=%d moveLockWaits=%d consolidations=%d\n",
		tree.Stats.LeafSplits.Load(), tree.Stats.InTxnSplits.Load(),
		tree.Stats.MoveLockWaits.Load(), tree.Stats.Consolidations.Load())
}

var errDeliberateAbort = errors.New("deliberate abort")

// transfer moves amount between two accounts in one transaction.
func transfer(e *engine.Engine, tree *core.Tree, from, to uint64, amount int64, sabotage bool) error {
	tx := e.TM.Begin()
	abort := func(err error) error {
		_ = tx.Abort()
		return err
	}
	fromV, ok, err := tree.Search(tx, keys.Uint64(from))
	if err != nil || !ok {
		return abort(err)
	}
	toV, ok, err := tree.Search(tx, keys.Uint64(to))
	if err != nil || !ok {
		return abort(err)
	}
	fb, tb := decodeBalance(fromV), decodeBalance(toV)
	if fb < amount {
		return abort(nil) // insufficient funds: clean abort, not an error
	}
	if err := tree.Update(tx, keys.Uint64(from), encodeBalance(fb-amount)); err != nil {
		return abort(err)
	}
	if err := tree.Update(tx, keys.Uint64(to), encodeBalance(tb+amount)); err != nil {
		return abort(err)
	}
	if sabotage {
		return abort(errDeliberateAbort)
	}
	return tx.Commit()
}

func sumBalances(tree *core.Tree) int64 {
	var total int64
	_ = tree.RangeScan(nil, nil, nil, func(k keys.Key, v []byte) bool {
		total += decodeBalance(v)
		return true
	})
	return total
}

func okStr(ok bool) string {
	if ok {
		return "HOLDS"
	}
	return "VIOLATED"
}
