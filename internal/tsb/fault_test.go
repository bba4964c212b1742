package tsb

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/keys"
	"repro/internal/pitree"
	"repro/internal/storage"
)

// TestTSBTornDataWriteMidSMORecovery mirrors the core torn-write
// scenario for the TSB-tree: crash with key splits frozen between their
// two atomic actions and one page write torn during the final flush.
// Restart repeats history over the stale image; the split siblings stay
// reachable through sibling walks and lazy completion posts the missing
// index terms.
func TestTSBTornDataWriteMidSMORecovery(t *testing.T) {
	inj := fault.New(0x75B)
	opts := smallOpts()
	opts.NoCompletion = true
	e := engine.New(engine.Options{Injector: inj})
	b := Register(e.Reg)
	st := e.AddStore(testStoreID, Codec{})
	tree, err := Create(st, e.TM, e.Locks, b, "versions", opts)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	fx := &fixture{e: e, b: b, tree: tree}

	const n = 120
	for i := 0; i < n; i++ {
		if err := fx.tree.Put(nil, keys.Uint64(uint64(i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if fx.tree.Stats.KeySplits.Load() == 0 {
		t.Fatal("workload produced no key splits")
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
		v, ok, err := fx2.tree.Get(nil, keys.Uint64(uint64(i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d: %q ok=%v err=%v", i, v, ok, err)
		}
	}
	if fx2.tree.Stats.KeySibWalks.Load() == 0 {
		t.Fatal("expected sibling walks through unposted splits")
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
// naming an unallocated page one level up. Completion is synchronous and
// the puts are fixed, so a dry run finds the put whose posting is the
// first to split a (non-root) index node; the real run replays up to it
// and makes that posting fail behind its space test.
func TestAbortedPostingSchedulesNoFollowUp(t *testing.T) {
	opts := smallOpts()
	opts.DataCapacity, opts.IndexCapacity = 4, 4
	put := func(fx *fixture, i int) {
		t.Helper()
		if err := fx.tree.Put(nil, keys.Uint64(uint64(i*7919%1009)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	dry, trigger := newFixture(t, opts), -1
	for i := 0; i < 1000 && trigger < 0; i++ {
		put(dry, i)
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
		put(fx, i)
		fx.tree.DrainCompletions()
	}
	put(fx, trigger)
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
