package spatial

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/pitree"
	"repro/internal/pitree/pitreetest"
	"repro/internal/storage"
	"repro/internal/txn"
)

// TestSpatialTornDataWriteMidSMORecovery mirrors the core torn-write
// scenario for the hB-tree variant: data-node splits frozen before
// their index postings, a torn page write during the flush, crash,
// restart. Every point must stay reachable (via side pointers) and lazy
// completion must converge the directory.
func TestSpatialTornDataWriteMidSMORecovery(t *testing.T) {
	inj := fault.New(0x5BA7)
	opts := smallOpts()
	opts.NoCompletion = true
	e := engine.New(engine.Options{Injector: inj})
	b := Register(e.Reg)
	st := e.AddStore(testStoreID, Codec{})
	tree, err := Create(st, e.TM, e.Locks, b, "points", opts)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	fx := &fixture{e: e, b: b, tree: tree}

	rng := rand.New(rand.NewSource(42))
	const n = 150
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		pts[i] = randPoint(rng)
		if err := fx.tree.Insert(nil, pts[i], []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if fx.tree.Stats.DataSplits.Load() == 0 {
		t.Fatal("workload produced no data splits")
	}
	if err := fx.e.Log.ForceAll(); err != nil {
		t.Fatal(err)
	}

	inj.Arm(storage.FPDiskWrite, fault.Spec{Kind: fault.Torn, After: 3})
	if _, err := fx.e.FlushAll(); !fault.IsTorn(err) {
		t.Fatalf("flush did not tear: %v", err)
	}
	inj.Disarm(storage.FPDiskWrite)

	fx.e.Opts.Injector = nil
	fx.tree.opts.NoCompletion = false
	fx2 := fx.crashRestart(t)

	if _, err := fx2.tree.Verify(); err != nil {
		t.Fatalf("tree ill-formed after torn-write recovery: %v", err)
	}
	for i := 0; i < n; i++ {
		v, ok, err := fx2.tree.Search(nil, pts[i])
		if err != nil || !ok || string(v) != fmt.Sprintf("p%d", i) {
			t.Fatalf("point %d: %q ok=%v err=%v", i, v, ok, err)
		}
	}
	if fx2.tree.Stats.SideTraversals.Load() == 0 {
		t.Fatal("expected side traversals through unposted splits")
	}
	fx2.tree.DrainCompletions()
	if fx2.tree.Stats.PostsPerformed.Load() == 0 {
		t.Fatal("lazy completion performed no postings")
	}
	if _, err := fx2.tree.Verify(); err != nil {
		t.Fatalf("after completion: %v", err)
	}
}

// TestAbortedPostingSchedulesNoFollowUp: a posting action that has split
// its index node and then fails must leave nothing behind — the sibling's
// page goes back to the free map with the abort, so a posting for that
// sibling, had it been queued before the commit, would install a term
// naming an unallocated page one level up (the "reachable page N not
// allocated" of the torture rounds). Completion is synchronous and the
// inserts are seeded, so a dry run finds the insert whose posting is the
// first to split a (non-root) index node; the real run replays up to it
// and makes that posting fail behind its space test.
func TestAbortedPostingSchedulesNoFollowUp(t *testing.T) {
	opts := smallOpts()
	opts.DataCapacity, opts.IndexCapacity = 4, 4
	rng := rand.New(rand.NewSource(7))
	pts := make([]Point, 2000)
	for i := range pts {
		pts[i] = randPoint(rng)
	}
	insert := func(fx *fixture, i int) {
		t.Helper()
		if err := fx.tree.Insert(nil, pts[i], []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	dry, trigger := newFixture(t, opts), -1
	for i := 0; i < len(pts) && trigger < 0; i++ {
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

	fx := newFixture(t, opts)
	for i := 0; i < trigger; i++ {
		insert(fx, i)
		fx.tree.DrainCompletions()
	}
	insert(fx, trigger)
	inj := fault.New(1)
	fx.tree.store.Pool.SetInjector(inj)
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

// TestFailedAbortPoisonsItsLocks is the torture gate's round shape
// spatial × permanent-disk-write × reclaim, made deterministic: one
// goroutine, completions run only when drained, and a pool of seven
// frames — one shard at every GOMAXPROCS. A transaction inserts points
// across many data nodes; then the disk dies for writes and the pool can
// replay no elided page, so its rollback needs a page it cannot bring back,
// or an eviction that cannot happen, and fails. The transaction must end
// doomed with its locks poisoned — a later writer of one of its points
// gets ErrDegraded at once instead of parking for ever — and a restart
// must roll it back with the free-space map matching the log.
func TestFailedAbortPoisonsItsLocks(t *testing.T) {
	inj := fault.New(0xAB1)
	opts := Options{DataCapacity: 6, IndexCapacity: 6, Reclaim: true, SyncCompletion: true}
	e := engine.New(engine.Options{Injector: inj, PoolCapacity: 7})
	b := Register(e.Reg)
	tree, err := Create(e.AddStore(testStoreID, Codec{}), e.TM, e.Locks, b, "points", opts)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	fx := &fixture{e: e, b: b, tree: tree}
	rng := rand.New(rand.NewSource(0xAB1))
	fillPoints(t, fx, rng, 300)
	fx.tree.DrainCompletions()

	tx := e.TM.Begin()
	var mine []Point
	for len(mine) < 24 {
		p := randPoint(rng)
		if err := fx.tree.Insert(tx, p, []byte("doomed")); err == ErrPointExists {
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		mine = append(mine, p)
	}
	inj.Arm(storage.FPDiskWrite, fault.Spec{Kind: fault.Permanent})
	inj.Arm(storage.FPPoolReplay, fault.Spec{Kind: fault.Permanent, Count: -1})
	err = tx.Abort()
	// Replays read; only the rollback is to miss its pages.
	inj.Disarm(storage.FPPoolReplay)
	if err == nil {
		t.Fatal("rollback succeeded: no page it needed was elided or had to be written")
	}
	if !errors.Is(err, txn.ErrDoomed) || !errors.Is(err, engine.ErrDegraded) || tx.State() != txn.Doomed {
		t.Fatalf("failed rollback: %v, state %d; want a doomed transaction", err, tx.State())
	}
	pitreetest.WriteDoomed(t, e, len(mine), func(tx *txn.Txn, i int) error {
		return fx.tree.Delete(tx, mine[i])
	})

	inj.TripCrash()
	img := e.Crash(nil)
	fx.tree.Close()
	e2 := engine.Restarted(img, engine.Options{})
	b2 := Register(e2.Reg)
	st2 := e2.AddStore(testStoreID, Codec{})
	p, err := e2.AnalyzeAndRedo()
	if err != nil {
		t.Fatal(err)
	}
	tree2, err := Open(st2, e2.TM, e2.Locks, b2, "points", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tree2.Close()
	pitreetest.FinishAudited(t, e2, func() error { return e2.FinishRecovery(p) })
	if _, err := tree2.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, p := range mine {
		if _, ok, err := tree2.Search(nil, p); err != nil || ok {
			t.Fatalf("doomed transaction's point %v after restart: ok=%v err=%v", p, ok, err)
		}
	}
}
