package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/keys"
	"repro/internal/maint"
	"repro/internal/pitree"
	"repro/internal/pitree/pitreetest"
	"repro/internal/spatial"
	"repro/internal/storage"
	"repro/internal/tsb"
	"repro/internal/txn"
	"repro/internal/wal"
)

// TestTornLeafWriteMidSMORecovery is the satellite scenario for the
// Π-tree: crash between the node-split atomic action and the index-term
// posting, with the flush racing the crash torn on a page write (the
// stale image persists). Restart must repeat history over the stale
// image, the intermediate split state must be well-formed and fully
// reachable via side pointers, and lazy completion must finish the SMOs
// — innovation 4 under an actively hostile stable layer.
func TestTornLeafWriteMidSMORecovery(t *testing.T) {
	inj := fault.New(0xC0DE)
	opts := defaultTestOpts()
	opts.NoCompletion = true // freeze every SMO between its two actions
	fx := newFixture(t, engine.Options{Injector: inj}, opts)
	const n = 120
	for i := 0; i < n; i++ {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if fx.tree.Stats.LeafSplits.Load() == 0 {
		t.Fatal("workload produced no splits")
	}
	if err := fx.e.Log.ForceAll(); err != nil {
		t.Fatal(err)
	}

	// Flush with a torn page write in the middle: one page keeps its
	// stale (or absent) image while neighbours get current ones — the
	// classic partially-flushed crash state.
	inj.Arm(storage.FPDiskWrite, fault.Spec{Kind: fault.Torn, After: 3})
	_, err := fx.e.FlushAll()
	if !fault.IsTorn(err) {
		t.Fatalf("flush did not tear: %v", err)
	}
	if fx.e.Degraded() {
		t.Fatal("a page-write fault must not degrade the log")
	}
	inj.Disarm(storage.FPDiskWrite)

	// Crash and restart clean (the fault lives and dies with the crashed
	// incarnation), with completion enabled so the tree can finish the
	// frozen SMOs lazily.
	fx.e.Opts.Injector = nil
	fx.tree.opts.NoCompletion = false
	fx2 := fx.crashRestart(t, nil)

	shape, err := fx2.tree.Verify()
	if err != nil {
		t.Fatalf("tree ill-formed after torn-write recovery: %v", err)
	}
	if shape.Records != n {
		t.Fatalf("records = %d, want %d", shape.Records, n)
	}
	for i := 0; i < n; i++ {
		v, ok, err := fx2.tree.Search(nil, keys.Uint64(uint64(i)))
		if err != nil || !ok || string(v) != string(val(i)) {
			t.Fatalf("key %d: ok=%v err=%v", i, ok, err)
		}
	}
	if fx2.tree.Stats.SideTraversals.Load() == 0 {
		t.Fatal("expected side traversals through unposted siblings")
	}
	fx2.tree.DrainCompletions()
	if fx2.tree.Stats.PostsPerformed.Load() == 0 {
		t.Fatal("lazy completion performed no postings")
	}
	if _, err := fx2.tree.Verify(); err != nil {
		t.Fatalf("after completion: %v", err)
	}
}

// TestFailedAbortPoisonsItsLocks is the torture gate's round shape
// core-latched × permanent-disk-write × consolidation × budget 64, made
// deterministic: one goroutine, completions run only when drained, and a
// pool of seven frames — one shard at every GOMAXPROCS. A transaction
// writes across many leaves; then the disk dies for writes and the pool
// can replay no elided page, so its rollback needs a page it cannot bring
// back, or an eviction that cannot happen, and fails. The
// transaction must end doomed — its locks poisoned, not orphaned: a later
// writer of one of its keys gets ErrDegraded at once instead of parking
// for ever — and a restart must roll it back with the free-space map
// matching the log.
func TestFailedAbortPoisonsItsLocks(t *testing.T) {
	inj := fault.New(0xAB0)
	eopts := engine.Options{Injector: inj, PoolCapacity: 7}
	topts := Options{LeafCapacity: 6, IndexCapacity: 6, Consolidation: true, PessimisticDescent: true,
		SyncCompletion: true, Governor: maint.New(64, 8, nil)}
	fx := newFixture(t, eopts, topts)
	const preload = 600
	for i := 0; i < preload; i += 2 {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	fx.tree.DrainCompletions()

	tx := fx.e.TM.Begin()
	var mine []int
	for i := 1; i < preload; i += 24 {
		if err := fx.tree.Insert(tx, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatal(err)
		}
		mine = append(mine, i)
	}
	inj.Arm(storage.FPDiskWrite, fault.Spec{Kind: fault.Permanent})
	inj.Arm(storage.FPPoolReplay, fault.Spec{Kind: fault.Permanent, Count: -1})
	err := tx.Abort()
	// Replays read; only the rollback is to miss its pages.
	inj.Disarm(storage.FPPoolReplay)
	if err == nil {
		t.Fatal("rollback succeeded: no page it needed was elided or had to be written")
	}
	if !errors.Is(err, txn.ErrDoomed) || !errors.Is(err, engine.ErrDegraded) || tx.State() != txn.Doomed {
		t.Fatalf("failed rollback: %v, state %d; want a doomed transaction", err, tx.State())
	}
	if !fx.e.Degraded() {
		t.Fatal("a failed rollback left the engine accepting commits")
	}

	pitreetest.WriteDoomed(t, fx.e, len(mine), func(tx *txn.Txn, i int) error {
		return fx.tree.Insert(tx, keys.Uint64(uint64(mine[i])), val(i))
	})

	inj.TripCrash()
	img := fx.e.Crash(nil)
	fx.tree.Close()
	e2 := engine.Restarted(img, engine.Options{})
	b2 := Register(e2.Reg, false)
	st2 := e2.AddStore(testStoreID, Codec{})
	p, err := e2.AnalyzeAndRedo()
	if err != nil {
		t.Fatal(err)
	}
	tree2, err := Open(st2, e2.TM, e2.Locks, b2, "test", topts)
	if err != nil {
		t.Fatal(err)
	}
	defer tree2.Close()
	pitreetest.FinishAudited(t, e2, func() error { return e2.FinishRecovery(p) })
	if _, err := tree2.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, i := range mine {
		if _, ok, err := tree2.Search(nil, keys.Uint64(uint64(i))); err != nil || ok {
			t.Fatalf("doomed transaction's key %d after restart: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestPermanentLogFaultDegradesReadOnly kills the log device under a
// live tree: in-flight and future commits must be rejected with the
// typed degradation error (rolled back, not silently lost), the engine
// must report Degraded, and concurrent readers must keep being served
// from the buffered and stable state.
func TestPermanentLogFaultDegradesReadOnly(t *testing.T) {
	inj := fault.New(0xDEAD)
	fx := newFixture(t, engine.Options{Injector: inj}, defaultTestOpts())
	const n = 60
	for i := 0; i < n; i++ {
		tx := fx.e.TM.Begin()
		if err := fx.tree.Insert(tx, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	fx.tree.DrainCompletions()
	if err := fx.e.Log.ForceAll(); err != nil {
		t.Fatal(err)
	}

	// The log device dies permanently.
	inj.Arm(wal.FPSync, fault.Spec{Kind: fault.Permanent, Count: -1})

	// Concurrent writers and readers against the dying engine.
	const writers, readers = 4, 4
	var wg sync.WaitGroup
	writeErrs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx := fx.e.TM.Begin()
			if err := fx.tree.Insert(tx, keys.Uint64(uint64(1000+w)), val(1000+w)); err != nil {
				writeErrs[w] = err
				_ = tx.Abort()
				return
			}
			writeErrs[w] = tx.Commit()
		}(w)
	}
	readErrs := make([]error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				v, ok, err := fx.tree.Search(nil, keys.Uint64(uint64(i)))
				if err != nil || !ok || string(v) != string(val(i)) {
					readErrs[r] = err
					return
				}
			}
		}(r)
	}
	wg.Wait()

	for w, err := range writeErrs {
		if err == nil {
			t.Fatalf("writer %d committed on a dead log device", w)
		}
		if !errors.Is(err, engine.ErrDegraded) {
			t.Fatalf("writer %d: %v is not ErrDegraded", w, err)
		}
	}
	for r, err := range readErrs {
		if err != nil {
			t.Fatalf("reader %d failed in degraded mode: %v", r, err)
		}
	}
	if !fx.e.Degraded() {
		t.Fatal("engine does not report degraded mode")
	}
	// Degradation is sticky: a later commit still fails.
	tx := fx.e.TM.Begin()
	if err := fx.tree.Insert(tx, keys.Uint64(2000), val(2000)); err == nil {
		if err := tx.Commit(); !errors.Is(err, engine.ErrDegraded) {
			t.Fatalf("late commit: %v", err)
		}
	} else {
		_ = tx.Abort()
	}
	// And reads still work after the dust settles.
	for i := 0; i < n; i++ {
		if _, ok, err := fx.tree.Search(nil, keys.Uint64(uint64(i))); err != nil || !ok {
			t.Fatalf("degraded read of key %d: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestAbortedPostingSchedulesNoFollowUp: a posting action that has split
// its index node and then fails must leave nothing behind — the sibling's
// page goes back to the free map with the abort, so a posting for that
// sibling, had it been queued before the commit, would install a term
// naming an unallocated page one level up. Completion is synchronous and
// the inserts are fixed, so a dry run finds the insert whose posting is the
// first to split a (non-root) index node; the real run replays up to it
// and makes that posting fail behind its space test.
func TestAbortedPostingSchedulesNoFollowUp(t *testing.T) {
	opts := defaultTestOpts()
	opts.LeafCapacity, opts.IndexCapacity = 4, 4
	insert := func(fx *fixture, i int) {
		t.Helper()
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i*7919%1009)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	dry, trigger := newFixture(t, engine.Options{}, opts), -1
	for i := 0; i < 1000 && trigger < 0; i++ {
		insert(dry, i)
		before := dry.tree.Stats.IndexSplits.Load()
		dry.tree.DrainCompletions()
		if dry.tree.Stats.IndexSplits.Load() > before {
			trigger = i
		}
	}
	if trigger < 0 {
		t.Fatal("no posting ever split an index node")
	}

	inj := fault.New(1)
	fx := newFixture(t, engine.Options{Injector: inj}, opts)
	for i := 0; i < trigger; i++ {
		insert(fx, i)
		fx.tree.DrainCompletions()
	}
	insert(fx, trigger)
	inj.Arm(pitree.FPPost, fault.Spec{Kind: fault.Transient})
	st := &fx.tree.Stats
	scheduled, splits := st.PostsScheduled.Load(), st.IndexSplits.Load()
	fx.tree.DrainCompletions()
	if st.PostsFailed.Load() != 1 || st.IndexSplits.Load() != splits+1 {
		t.Fatalf("%d postings failed after %d index splits; want the one that split to fail",
			st.PostsFailed.Load(), st.IndexSplits.Load()-splits)
	}
	if got := st.PostsScheduled.Load() - scheduled; got != 0 {
		t.Fatalf("the aborted posting scheduled %d follow-ups for a sibling that no longer exists", got)
	}
	// Verify includes the store's space check: no reachable page is free.
	if _, err := fx.tree.Verify(); err != nil {
		t.Fatalf("after the aborted posting: %v", err)
	}
}

// TestAtomicWriteCommitFailureRollsBack: a write with no transaction is
// its own atomic action, committed while its leaf is still X-latched.
// When atomic-action commits force the log and the log cannot sync, the
// commit rolls the action back under that latch (txn.Txn.CommitHeld), not
// by latching the leaf a second time and waiting for itself — whether the
// record's undo is page-oriented or the kernel's Compensate, which applies
// it in the held leaf. For every tree and undo discipline a single write
// and a batch write (spatial has none) return the error and leave their
// keys absent, and the keys written before stay.
func TestAtomicWriteCommitFailureRollsBack(t *testing.T) {
	type tree struct {
		write func(is ...int) error // one write of keys is, a batch for more than one
		has   func(i int) (bool, error)
	}
	ks := func(is []int) ([]keys.Key, [][]byte) {
		var ks []keys.Key
		var vs [][]byte
		for _, i := range is {
			ks, vs = append(ks, keys.Uint64(uint64(i))), append(vs, val(i))
		}
		return ks, vs
	}
	openCore := func(t *testing.T, e *engine.Engine, po bool) tree {
		tr, err := Create(e.AddStore(testStoreID, Codec{}), e.TM, e.Locks, Register(e.Reg, po), "test", defaultTestOpts())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		return tree{
			write: func(is ...int) error {
				if len(is) == 1 {
					return tr.Insert(nil, keys.Uint64(uint64(is[0])), val(is[0]))
				}
				k, v := ks(is)
				return tr.MultiPut(nil, k, v)
			},
			has: func(i int) (bool, error) { _, ok, err := tr.Search(nil, keys.Uint64(uint64(i))); return ok, err },
		}
	}
	cases := []struct {
		name  string
		batch bool
		open  func(t *testing.T, e *engine.Engine) tree
	}{
		{"core-page-oriented", true, func(t *testing.T, e *engine.Engine) tree { return openCore(t, e, true) }},
		{"core-logical", true, func(t *testing.T, e *engine.Engine) tree { return openCore(t, e, false) }},
		{"tsb", true, func(t *testing.T, e *engine.Engine) tree {
			tr, err := tsb.Create(e.AddStore(testStoreID, tsb.Codec{}), e.TM, e.Locks, tsb.Register(e.Reg), "test",
				tsb.Options{DataCapacity: 8, IndexCapacity: 8, SyncCompletion: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(tr.Close)
			return tree{
				write: func(is ...int) error {
					if len(is) == 1 {
						return tr.Put(nil, keys.Uint64(uint64(is[0])), val(is[0]))
					}
					k, v := ks(is)
					return tr.MultiPut(nil, k, v)
				},
				has: func(i int) (bool, error) { _, ok, err := tr.Get(nil, keys.Uint64(uint64(i))); return ok, err },
			}
		}},
		{"spatial", false, func(t *testing.T, e *engine.Engine) tree {
			tr, err := spatial.Create(e.AddStore(testStoreID, spatial.Codec{}), e.TM, e.Locks, spatial.Register(e.Reg), "test",
				spatial.Options{DataCapacity: 8, IndexCapacity: 8, SyncCompletion: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(tr.Close)
			p := func(i int) spatial.Point { return spatial.Point{X: uint64(i), Y: uint64(i)} }
			return tree{
				write: func(is ...int) error { return tr.Insert(nil, p(is[0]), val(is[0])) },
				has:   func(i int) (bool, error) { _, ok, err := tr.Search(nil, p(i)); return ok, err },
			}
		}},
	}
	for _, c := range cases {
		for _, doomed := range [][]int{{10}, {11, 12}} {
			if len(doomed) > 1 && !c.batch {
				continue
			}
			t.Run(fmt.Sprintf("%s/%d-keys", c.name, len(doomed)), func(t *testing.T) {
				inj := fault.New(0xF0)
				e := engine.New(engine.Options{Injector: inj, ForceOnAACommit: true})
				tr := c.open(t, e)
				for i := 0; i < 4; i++ {
					if err := tr.write(i); err != nil {
						t.Fatal(err)
					}
				}
				inj.Arm(wal.FPSync, fault.Spec{Kind: fault.Permanent, Count: -1})
				done := make(chan error, 1)
				go func() { done <- tr.write(doomed...) }()
				select {
				case err := <-done:
					if err == nil {
						t.Fatal("a write whose commit could not be forced succeeded")
					}
				case <-time.After(10 * time.Second):
					t.Fatal("the write's rollback waits for the latch its own write holds")
				}
				for _, i := range doomed {
					if ok, err := tr.has(i); err != nil || ok {
						t.Fatalf("rolled-back key %d found=%v err=%v", i, ok, err)
					}
				}
				for i := 0; i < 4; i++ {
					if ok, err := tr.has(i); err != nil || !ok {
						t.Fatalf("key %d found=%v err=%v", i, ok, err)
					}
				}
			})
		}
	}
}

// TestFreeCommitFailureRollsBack: a free whose commit cannot be forced —
// ForceOnAACommit and a dead log device — rolls back under the latches its
// action holds and returns the error: the first merge of a sweep, whose
// parent loses a term in the action, the second merge of a sweep under
// one parent, and a root shrink (tsb's and spatial's frees have the same
// test in their packages). A restart then leaves a well-formed tree whose
// space map matches the log, holding every key.
func TestFreeCommitFailureRollsBack(t *testing.T) {
	sweep := func(fx *fixture) error { return fx.sweepLevel(1, fx.tree.sweep) }
	for _, tc := range []struct {
		name string
		n    int
		// merges is how many merges commit before the one that fails.
		merges int64
		free   func(fx *fixture) error
	}{
		{"merge", 200, 0, sweep},
		{"second-merge", 200, 1, sweep},
		{"root-shrink", 30, 0, func(fx *fixture) error {
			return fx.tree.kern.RetryLoop(nil, func(o *opCtx) error {
				_, err := fx.tree.kern.Absorb(o, &rootShrink{t: fx.tree})
				return err
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := fault.New(1)
			fx := seedFree(t, freeCase{forceAA: true}, inj, tc.n)
			if tc.name == "root-shrink" {
				if err := sweep(fx); err != nil { // leaves the root one child
					t.Fatal(err)
				}
			}
			want, merged := fx.contents(t), fx.tree.Stats.Consolidations.Load()
			inj.Arm(wal.FPSync, fault.Spec{Kind: fault.Permanent, Count: -1, After: tc.merges + 1})
			pitreetest.FailedCommitReturns(t, func() error { return tc.free(fx) })
			if got := fx.tree.Stats.Consolidations.Load() - merged; got != tc.merges {
				t.Fatalf("%d merges committed before the failure, want %d", got, tc.merges)
			}
			fx.e.Opts.Injector = nil
			fx2 := fx.crashRestart(t, nil)
			fx2.mustVerify(t)
			pitreetest.FreeIffUnlinked(t, fx2.tree.kern, fx2.tree.store)
			sameContents(t, "after restart", fx2.contents(t), want)
		})
	}
}
