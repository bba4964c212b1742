package txn

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/fsys"
	"repro/internal/storage"
	"repro/internal/wal"
)

// fourThreads lifts GOMAXPROCS so the rollback goroutines run on real OS
// threads even on a single-core host: kernel preemption can then land
// between a CLR's append and its apply, which is the window the undo
// latch protocol closes. Returns a restore func.
func fourThreads() func() {
	old := runtime.GOMAXPROCS(4)
	return func() { runtime.GOMAXPROCS(old) }
}

// Concurrent rollbacks compensating on the same page must not lose
// updates: undoOne latches the page before appending the CLR and holds
// the latch across the apply, so per-page append order equals apply order
// and the pageLSN guard can never mistake a concurrent transaction's
// later CLR for its own record. These tests pin that protocol — once for
// live aborts, once for restart-style Adopt+RollbackLoser, which is how
// recovery's parallel undo workers drive this package.

func TestConcurrentAbortsSharedPage(t *testing.T) {
	defer fourThreads()()
	e := newEnv(t, Options{})
	const shared = storage.PageID(5)
	base := e.tm.Begin()
	e.add(base, shared, 1000)
	if err := base.Commit(); err != nil {
		t.Fatal(err)
	}

	const n = 8
	txns := make([]*Txn, n)
	for i := range txns {
		txns[i] = e.tm.Begin()
		// Each aborter compensates on the shared page and a private one.
		e.add(txns[i], shared, int64(10+i))
		e.add(txns[i], storage.PageID(100+i), int64(i+1))
	}
	var wg sync.WaitGroup
	for _, tx := range txns {
		wg.Add(1)
		go func(tx *Txn) {
			defer wg.Done()
			if err := tx.Abort(); err != nil {
				t.Error(err)
			}
		}(tx)
	}
	wg.Wait()
	if got := e.value(t, shared); got != 1000 {
		t.Fatalf("shared page = %d after concurrent aborts, want 1000", got)
	}
	for i := 0; i < n; i++ {
		if got := e.value(t, storage.PageID(100+i)); got != 0 {
			t.Fatalf("private page %d = %d after abort, want 0", 100+i, got)
		}
	}
}

func TestConcurrentAdoptRollbackLosers(t *testing.T) {
	defer fourThreads()()
	e := newEnv(t, Options{})
	const shared = storage.PageID(7)
	const n = 6
	type loser struct {
		id      wal.TxnID
		lastLSN wal.LSN
	}
	losers := make([]loser, n)
	for i := range losers {
		tx := e.tm.Begin()
		e.add(tx, shared, int64(5+i))
		e.add(tx, storage.PageID(200+i), 1)
		losers[i] = loser{id: tx.ID, lastLSN: tx.LastLSN()}
	}
	e.log.ForceAll()

	// Restart environment over the stable state, as recovery builds it.
	e2 := openEnv(t, e.fs.Crash(fsys.DropUnsynced), Options{})
	log2, reg2, tm2, pool2 := e2.log, e2.reg, e2.tm, e2.pool

	// Repeat history first (all updates were forced, pages never flushed).
	img := log2.FullImage()
	img.Scan(wal.NilLSN, func(rec wal.Record) bool {
		if rec.Type == wal.RecUpdate {
			if err := reg2.ApplyRedo(&rec); err != nil {
				t.Error(err)
				return false
			}
		}
		return true
	})

	// Adopt and roll back every loser concurrently, like restart's undo
	// worker pool does.
	var wg sync.WaitGroup
	for _, l := range losers {
		wg.Add(1)
		go func(l loser) {
			defer wg.Done()
			tx := tm2.Adopt(l.id, false, l.lastLSN)
			if err := tx.RollbackLoser(); err != nil {
				t.Error(err)
			}
		}(l)
	}
	wg.Wait()

	f, err := pool2.FetchOrCreate(shared)
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Unpin(f)
	if f.Data != nil && f.Data.(*counter).v != 0 {
		t.Fatalf("shared page = %d after concurrent loser rollback, want 0", f.Data.(*counter).v)
	}
	if tm2.ActiveCount() != 0 {
		t.Fatalf("%d transactions still active after rollback", tm2.ActiveCount())
	}
}
