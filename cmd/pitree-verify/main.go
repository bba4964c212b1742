// Command pitree-verify runs an extended randomized crash-recovery
// check: repeated rounds of transactional traffic, a crash at a random
// stable point, restart, well-formedness verification, and an oracle
// comparison of surviving keys. Exit status 0 means every round held.
//
// Usage:
//
//	pitree-verify -rounds 20 -txns 200 -seed 7
//
// With -torture, each round instead arms one seeded failpoint (torn
// page writes, dead or flaky log devices, crashes mid-SMO, mid-eviction
// or mid-group-commit) under a concurrent workload, rotating across the
// Π-tree, TSB-tree and hB-tree, and verifies committed-data durability,
// no-ghost-uncommitted, and well-formedness after recovery:
//
//	pitree-verify -torture -rounds 60 -seed 7
//
// With -logstat it checks nothing: it reads the WAL segments under a
// directory (a data directory's wal/) and prints records, bytes, mean size
// and share per record type and kind, the bytes per committed transaction,
// and a histogram of the page chains' lengths — it fails if a record's
// page-chain link names anything but an earlier record of its page:
//
//	pitree-verify -logstat <datadir>/wal
//
// With -pagestat it checks nothing either: it scans one store's page file
// read-only and prints its block size and blocks, its pages, free and
// stale blocks, how many extents take each number of blocks, the mean,
// median and 99th percentile image bytes, and the fill (image bytes over
// file bytes):
//
//	pitree-verify -pagestat <datadir>/store-1.pages
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fsys"
	"repro/internal/keys"
)

func main() {
	rounds := flag.Int("rounds", 10, "independent crash/recovery rounds")
	txns := flag.Int("txns", 150, "transactions per round")
	seed := flag.Int64("seed", 1, "workload seed")
	pageOriented := flag.Bool("page-undo", false, "use page-oriented record undo")
	torture := flag.Bool("torture", false, "fault-injection torture mode (seeded failpoint per round)")
	churn := flag.Bool("churn", false, "sustained-churn gate: bounded store size + page recycling")
	workers := flag.Int("workers", 4, "torture: concurrent workload goroutines")
	ops := flag.Int("ops", 120, "torture: operations per worker per round")
	real := flag.Bool("real", false, "with -torture: real-crash mode — run each round's workload in a forked file-backed child and SIGKILL it")
	realChild := flag.Bool("real-child", false, "internal: run as a real-crash workload child")
	childDir := flag.String("dir", "", "internal: real-crash child data directory")
	childTree := flag.String("tree", "", "internal: real-crash child tree kind")
	childSync := flag.String("sync", "always", "internal: real-crash child WAL sync policy (always|never)")
	logStat := flag.String("logstat", "", "print what the log records under this WAL directory are made of (read-only) and exit")
	pageStat := flag.String("pagestat", "", "print how full the pages of this page file are (read-only) and exit")
	flag.Parse()

	if *pageStat != "" {
		if err := runPageStat(os.Stdout, fsys.OS, *pageStat); err != nil {
			fmt.Fprintf(os.Stderr, "pagestat: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *logStat != "" {
		if err := runLogStat(os.Stdout, fsys.OS, *logStat); err != nil {
			fmt.Fprintf(os.Stderr, "logstat: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *realChild {
		if err := runRealChild(*childDir, *childTree, *childSync, *seed, *workers, *ops, *pageOriented); err != nil {
			fmt.Fprintf(os.Stderr, "real-crash child FAILED: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *churn {
		if err := runChurn(); err != nil {
			fmt.Fprintf(os.Stderr, "churn gate FAILED: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *torture {
		cfg := tortureConfig{
			rounds: *rounds, workers: *workers, ops: *ops,
			seed: *seed, pageOriented: *pageOriented,
		}
		if *real {
			if err := runRealCrash(cfg); err != nil {
				fmt.Fprintf(os.Stderr, "real-crash torture FAILED: %v\n", err)
				os.Exit(1)
			}
			return
		}
		if err := runTorture(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "torture FAILED: %v\n", err)
			os.Exit(1)
		}
		return
	}

	rng := rand.New(rand.NewSource(*seed))
	for round := 0; round < *rounds; round++ {
		if err := runRound(rng, *txns, *pageOriented); err != nil {
			fmt.Fprintf(os.Stderr, "round %d FAILED: %v\n", round, err)
			os.Exit(1)
		}
		fmt.Printf("round %d ok\n", round)
	}
	fmt.Println("all rounds verified: well-formed trees, committed data intact, losers rolled back")
}

func runRound(rng *rand.Rand, txns int, pageOriented bool) error {
	eopts := engine.Options{PageOriented: pageOriented}
	topts := core.Options{LeafCapacity: 6, IndexCapacity: 6, Consolidation: true, SyncCompletion: true}
	e := engine.New(eopts)
	b := core.Register(e.Reg, pageOriented)
	st := e.AddStore(1, core.Codec{})
	tree, err := core.Create(st, e.TM, e.Locks, b, "v", topts)
	if err != nil {
		return err
	}

	committed := map[uint64]bool{}
	for i := 0; i < txns; i++ {
		tx := e.TM.Begin()
		batch := []uint64{}
		failed := false
		for j := 0; j < 1+rng.Intn(4); j++ {
			k := uint64(rng.Intn(txns * 2))
			var err error
			if committed[k] && rng.Intn(2) == 0 {
				err = tree.Delete(tx, keys.Uint64(k))
				if err == nil {
					batch = append(batch, k|1<<63) // deletion marker
				}
			} else if !committed[k] {
				err = tree.Insert(tx, keys.Uint64(k), []byte("v"))
				if err == nil {
					batch = append(batch, k)
				}
			}
			if err != nil && err != core.ErrKeyExists && err != core.ErrKeyNotFound {
				failed = true
				break
			}
		}
		if failed || rng.Intn(4) == 0 {
			_ = tx.Abort()
			continue
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		for _, k := range batch {
			if k&(1<<63) != 0 {
				delete(committed, k&^(1<<63))
			} else {
				committed[k] = true
			}
		}
		if rng.Intn(10) == 0 {
			tree.DrainCompletions()
		}
		if rng.Intn(25) == 0 {
			if _, err := e.FlushAll(); err != nil {
				panic(err)
			}
		}
	}
	tree.DrainCompletions()
	tree.Close()
	// Crash at the stable point (user commits forced the log as they went).
	img := e.Crash(nil)

	e2 := engine.Restarted(img, eopts)
	b2 := core.Register(e2.Reg, pageOriented)
	st2 := e2.AddStore(1, core.Codec{})
	pend, err := e2.AnalyzeAndRedo()
	if err != nil {
		return err
	}
	tree2, err := core.Open(st2, e2.TM, e2.Locks, b2, "v", topts)
	if err != nil {
		return err
	}
	defer tree2.Close()
	if err := pend.UndoLosers(e2.TM); err != nil {
		return err
	}
	fmt.Printf("  recovery: %s\n", pend.Stats.Summary())
	shape, err := tree2.Verify()
	if err != nil {
		return fmt.Errorf("ill-formed after restart: %w", err)
	}
	if shape.Records != len(committed) {
		return fmt.Errorf("records=%d, oracle=%d", shape.Records, len(committed))
	}
	for k := range committed {
		if _, ok, err := tree2.Search(nil, keys.Uint64(k)); err != nil || !ok {
			return fmt.Errorf("committed key %d lost (err=%v)", k, err)
		}
	}
	return nil
}
