package engine

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/wal"
)

// commitOne runs one transaction writing val to its own page.
func commitOne(t testing.TB, e *Engine, st *storage.Store, pid storage.PageID, val string) error {
	t.Helper()
	tx := e.TM.Begin()
	f, err := st.Pool.FetchOrCreate(pid)
	if err != nil {
		_ = tx.Abort()
		return err
	}
	f.Latch.AcquireX()
	tx.LogUpdate(f, kindSet, []byte(val))
	f.Data = []byte(val)
	f.Latch.ReleaseX()
	st.Pool.Unpin(f)
	return tx.Commit()
}

// TestGroupCommitTransientSyncFault injects a transient fault into the
// group-commit leader's force. Followers must not be acknowledged until
// a force actually succeeds — and since transients are retried, every
// committer must come back with a durable commit and an undamaged log.
func TestGroupCommitTransientSyncFault(t *testing.T) {
	inj := fault.New(21)
	e := New(Options{Injector: inj})
	registerSet(e.Reg)
	st := e.AddStore(1, byteCodec{})
	aa := e.TM.BeginAtomicAction()
	if err := st.Bootstrap(aa); err != nil {
		t.Fatal(err)
	}
	if err := aa.Commit(); err != nil {
		t.Fatal(err)
	}

	inj.Arm(wal.FPSync, fault.Spec{Kind: fault.Transient, Count: 3})
	const committers = 8
	var wg sync.WaitGroup
	errs := make([]error, committers)
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = commitOne(t, e, st, storage.PageID(10+i), "x")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("committer %d failed across a transient sync fault: %v", i, err)
		}
	}
	if e.Degraded() {
		t.Fatal("engine degraded by a recovered transient fault")
	}
	if inj.Hits(wal.FPSync) == 0 {
		t.Fatal("no sync probed the failpoint")
	}
	// Every acked commit really is durable: crash and recover, all
	// values must be present with no losers.
	img := e.Crash(nil)
	e2 := Restarted(img, Options{})
	registerSet(e2.Reg)
	st2 := e2.AddStore(1, byteCodec{})
	stats, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.LoserTxns != 0 {
		t.Fatalf("%d acked commits rolled back", stats.LoserTxns)
	}
	for i := 0; i < committers; i++ {
		f, err := st2.Pool.Fetch(storage.PageID(10 + i))
		if err != nil {
			t.Fatalf("page %d: %v", 10+i, err)
		}
		if string(f.Data.([]byte)) != "x" {
			t.Fatalf("page %d lost its committed value", 10+i)
		}
		st2.Pool.Unpin(f)
	}
}

// TestPermanentSyncFaultRejectsAndRollsBackCommits kills the log device
// and verifies the commit protocol end to end: every committer gets the
// typed degradation error, the transaction is rolled back (no ghost on
// recovery is possible since the log never acks), and the engine
// reports Degraded while recovery of the pre-fault state still works.
func TestPermanentSyncFaultRejectsAndRollsBackCommits(t *testing.T) {
	inj := fault.New(22)
	e := New(Options{Injector: inj})
	registerSet(e.Reg)
	st := e.AddStore(1, byteCodec{})
	aa := e.TM.BeginAtomicAction()
	if err := st.Bootstrap(aa); err != nil {
		t.Fatal(err)
	}
	if err := aa.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := commitOne(t, e, st, 5, "before"); err != nil {
		t.Fatal(err)
	}
	if err := e.Log.ForceAll(); err != nil {
		t.Fatal(err)
	}

	inj.Arm(wal.FPSync, fault.Spec{Kind: fault.Permanent, Count: -1})
	const committers = 6
	var wg sync.WaitGroup
	errs := make([]error, committers)
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = commitOne(t, e, st, storage.PageID(20+i), "ghost")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("committer %d acked on a dead log device", i)
		}
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("committer %d: %v is not ErrDegraded", i, err)
		}
	}
	if !e.Degraded() {
		t.Fatal("engine does not report degraded mode")
	}

	// Recovery from the frozen stable state: the pre-fault commit is
	// there, none of the rejected commits appear.
	img := e.Crash(nil)
	e2 := Restarted(img, Options{})
	registerSet(e2.Reg)
	st2 := e2.AddStore(1, byteCodec{})
	if _, err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	f, err := st2.Pool.Fetch(5)
	if err != nil || string(f.Data.([]byte)) != "before" {
		t.Fatalf("pre-fault commit lost: %v", err)
	}
	st2.Pool.Unpin(f)
	for i := 0; i < committers; i++ {
		if f, err := st2.Pool.Fetch(storage.PageID(20 + i)); err == nil {
			if string(f.Data.([]byte)) == "ghost" {
				t.Fatalf("rejected commit %d resurrected on recovery", i)
			}
			st2.Pool.Unpin(f)
		}
	}
}
