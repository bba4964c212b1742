package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Unit-cost probes time a layer's public functions from outside: a fixed
// number of iterations per batch, the median of probeBatches batches.
const probeBatches = 5

// probe returns the median over the batches of ns per iteration.
func probe(iters int, batch func(iters int)) float64 {
	per := make([]float64, probeBatches)
	for b := range per {
		t := time.Now()
		batch(iters)
		per[b] = float64(time.Since(t)) / float64(iters)
	}
	return median(per)
}

// latchProbes time the node latch on a scratch latch nobody else holds.
func latchProbes(m map[string]float64) {
	const iters = 200_000
	var l latch.Latch
	m["latch.s_acquire_release_ns"] = probe(iters, func(n int) {
		for i := 0; i < n; i++ {
			l.AcquireS()
			l.ReleaseS()
		}
	})
	m["latch.x_acquire_release_ns"] = probe(iters, func(n int) {
		for i := 0; i < n; i++ {
			l.AcquireX()
			l.ReleaseX()
		}
	})
	m["latch.u_promote_ns"] = probe(iters, func(n int) {
		for i := 0; i < n; i++ {
			l.AcquireU()
			l.Promote()
			l.ReleaseX()
		}
	})
	var sink bool
	m["latch.optimistic_validate_ns"] = probe(iters, func(n int) {
		for i := 0; i < n; i++ {
			ver, _ := l.OptimisticRead()
			sink = l.Validate(ver)
		}
	})
	_ = sink
	// Two goroutines sharing one latch in S mode: what two readers of one
	// hot leaf pay each other.
	m["latch.s_shared_2g_ns"] = probe(iters, func(n int) {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					l.AcquireS()
					l.ReleaseS()
				}
			}()
		}
		wg.Wait()
	})
}

// lockProbes time the lock manager of the workload's live engine, with
// transaction ids and lock names no client uses.
func lockProbes(m map[string]float64, lm *lock.Manager) {
	const iters, batchKeys = 200_000, 64
	const probeTxn, probeSpace = wal.TxnID(1 << 62), uint32(0xbe9c4)
	name := lock.PageName(probeSpace, 1)
	m["lock.lock_release_ns"] = probe(iters, func(n int) {
		for i := 0; i < n; i++ {
			if err := lm.Lock(probeTxn, name, lock.X); err != nil {
				panic(err) // nobody else can hold this name
			}
			lm.ReleaseAll(probeTxn)
		}
	})
	names := make([]lock.Name, batchKeys)
	for i := range names {
		names[i] = lock.PageName(probeSpace, uint64(i+2))
	}
	m["lock.trylock_batch_ns_per_key"] = probe(iters/batchKeys, func(n int) {
		for i := 0; i < n; i++ {
			if _, fail := lm.TryLockDepBatch(probeTxn, names, lock.X); fail >= 0 {
				panic("probe lock batch refused")
			}
			lm.ReleaseAll(probeTxn)
		}
	}) / batchKeys
}

// walProbes time Append and an Append+ForceGroup round on a scratch
// file-backed log under dir, with the workload's sync policy.
func walProbes(m map[string]float64, dir string, policy wal.SyncPolicy) error {
	// The in-memory log keeps every appended byte, so the append count is
	// modest; force rounds cost an fsync each under SyncAlways.
	const appendIters, forceIters = 20_000, 200
	dir = filepath.Join(dir, "probe-wal")
	fw, _, err := wal.OpenFileWAL(dir, 0, policy)
	if err != nil {
		return fmt.Errorf("probe wal: %w", err)
	}
	l := wal.New()
	l.SetSink(fw)
	l.SetPipelined(true)
	// An update record carries the key with its old and new value.
	rec := &wal.Record{TxnID: 1, StoreID: storeID, PageID: 7, Payload: make([]byte, 2*userBytesPerWrite)}
	m["wal.append_ns"] = probe(appendIters, func(n int) {
		for i := 0; i < n; i++ {
			l.Append(rec)
		}
		err = l.ForceAll() // keep the unforced tail bounded
	})
	m["wal.force_group_us"] = probe(forceIters, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			err = l.ForceGroup(l.Append(rec))
		}
	}) / 1e3
	if err != nil {
		return fmt.Errorf("probe wal: %w", err)
	}
	if err := fw.Close(); err != nil {
		return fmt.Errorf("probe wal: %w", err)
	}
	return os.RemoveAll(dir)
}

// storageProbes time the buffer pool of the workload's live engine on one
// of the tree's pages, after the clients have stopped and a flush has left
// every page clean and on disk.
func storageProbes(m map[string]float64, pool *storage.Pool) error {
	const hitIters, missIters = 200_000, 2_000
	// Drop panics on a pinned page, and nothing outside the pool can see
	// pins: a tree keeps a few pages pinned for good (its root), and the
	// engine's background goroutines (write-back, read-ahead, version GC)
	// pin any page for a moment. So every Drop here is a guarded try.
	droppable := func(pid storage.PageID) (ok bool) {
		defer func() { ok = recover() == nil }()
		pool.Drop(pid)
		return
	}
	var pid storage.PageID
	for _, p := range pool.Disk().PageIDs() {
		if droppable(p) {
			pid = p
			break
		}
	}
	if pid == 0 {
		return fmt.Errorf("probe storage: no unpinned page on disk")
	}
	var err error
	fetch := func() *storage.Frame {
		f, ferr := pool.Fetch(pid)
		if ferr != nil {
			err = ferr
			return nil
		}
		return f
	}
	m["storage.fetch_hit_ns"] = probe(hitIters, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			if f := fetch(); f != nil {
				pool.Unpin(f)
			}
		}
	})
	m["storage.fetch_miss_us"] = probe(missIters, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			droppable(pid) // a momentary pin (about 1 in 10 000) turns this miss into a hit
			if f := fetch(); f != nil {
				pool.Unpin(f)
			}
		}
	}) / 1e3
	m["storage.flush_page_us"] = probe(missIters, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			f := fetch()
			if f == nil {
				return
			}
			f.Latch.AcquireX()
			f.MarkDirty(f.PageLSN()) // dirty again at its stable LSN: no log force needed
			f.Latch.ReleaseX()
			pool.Unpin(f)
			err = pool.FlushPage(pid)
		}
	}) / 1e3
	if err != nil {
		return fmt.Errorf("probe storage: %w", err)
	}
	return nil
}
