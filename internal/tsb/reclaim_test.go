package tsb

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/keys"
	"repro/internal/pitree"
	"repro/internal/pitree/pitreetest"
	"repro/internal/storage"
	"repro/internal/wal"
)

// churn overwrites the same n keys for the given rounds, forcing time
// splits that build history chains.
func churn(t testing.TB, fx *fixture, n, from, to int) {
	t.Helper()
	for round := from; round < to; round++ {
		for i := 0; i < n; i++ {
			if err := fx.tree.Put(nil, keys.Uint64(uint64(i)), []byte(fmt.Sprintf("r%d", round))); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
	}
}

// TestReclaimFreesRetiredTails: a GC pass over churned chains returns
// retired tail pages to the store's free-space map, and
// later splits recycle them instead of growing the file.
func TestReclaimFreesRetiredTails(t *testing.T) {
	opts := smallOpts()
	fx := newFixture(t, opts)
	const n = 8
	churn(t, fx, n, 0, 60)
	fx.tree.DrainCompletions()
	if fx.tree.Stats.TimeSplits.Load() == 0 {
		t.Fatal("churn produced no time splits; nothing to reclaim")
	}

	if _, err := fx.tree.RunGC(); err != nil {
		t.Fatalf("gc: %v", err)
	}
	freed := fx.tree.Stats.GCFreedPages.Load()
	if freed == 0 {
		t.Fatal("reclaim freed no pages")
	}
	st, err := fx.tree.store.SpaceStats()
	if err != nil {
		t.Fatalf("space stats: %v", err)
	}
	if st.Freed != freed {
		t.Fatalf("store counted %d frees, tree counted %d", st.Freed, freed)
	}
	if st.FreeLen == 0 {
		t.Fatal("free list empty despite frees and no reallocation")
	}
	fx.mustVerify(t) // includes the free-vs-reachable cross-check
	for i := 0; i < n; i++ {
		v, ok, err := fx.tree.Get(nil, keys.Uint64(uint64(i)))
		if err != nil || !ok || string(v) != "r59" {
			t.Fatalf("current read after reclaim: key %d %q ok=%v err=%v", i, v, ok, err)
		}
	}

	// New splits must draw from the free list before extending the store.
	churn(t, fx, n, 60, 90)
	fx.tree.DrainCompletions()
	st2, err := fx.tree.store.SpaceStats()
	if err != nil {
		t.Fatalf("space stats: %v", err)
	}
	if st2.Recycled == 0 {
		t.Fatal("post-reclaim splits did not recycle freed pages")
	}
	fx.mustVerify(t)
}

// TestRecycledPageGetsItsTerm: a page the reaper freed and a later split
// recycled is a new node whose posting must go through. Once completions
// are drained every data node GC has not retired has a level-1 term; none
// is left reachable only through side pointers because its page once held
// a reclaimed node.
func TestRecycledPageGetsItsTerm(t *testing.T) {
	opts := smallOpts()
	fx := newFixture(t, opts)
	const n = 8
	churn(t, fx, n, 0, 60)
	fx.tree.DrainCompletions()
	if _, err := fx.tree.RunGC(); err != nil {
		t.Fatalf("gc: %v", err)
	}
	churn(t, fx, n, 60, 90)
	fx.tree.DrainCompletions()
	if st, err := fx.tree.store.SpaceStats(); err != nil || st.Recycled == 0 {
		t.Fatalf("churn recycled no page: %+v %v", st, err)
	}
	posted := make(map[storage.PageID]bool)
	var live []storage.PageID
	err := fx.tree.kern.Walk(0, func(r nref) error {
		if r.N.IsData() && !r.N.Retired {
			live = append(live, r.Pid())
		}
		for i := 0; r.N.Level == 1 && i < r.N.Len(); i++ {
			posted[r.N.childAt(i)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pid := range live {
		if !posted[pid] {
			t.Errorf("data node %d has no index term after completion", pid)
		}
	}
	fx.mustVerify(t)
}

// TestGCBoundsStoreGrowth: at default options with GC on, sustained
// churn over a constant live set, GC'd each cycle with no snapshot
// pinned, reaches a steady-state store size — the point of freeing what
// GC retires. The store after cycle 10 may exceed the store after cycle
// 3 by a boundary wobble only.
func TestGCBoundsStoreGrowth(t *testing.T) {
	const (
		n      = 8
		cycles = 10
		slack  = 4 // pages
	)
	opts := smallOpts()
	opts.GC = true
	fx := newFixture(t, opts)
	var third int64
	for cycle := 1; cycle <= cycles; cycle++ {
		churn(t, fx, n, (cycle-1)*40, cycle*40)
		fx.tree.DrainCompletions()
		if _, err := fx.tree.RunGC(); err != nil {
			t.Fatalf("gc, cycle %d: %v", cycle, err)
		}
		pages, err := fx.tree.store.AllocatedPages()
		if err != nil {
			t.Fatalf("allocated pages: %v", err)
		}
		t.Logf("cycle %d: %d pages", cycle, pages)
		if cycle == 3 {
			third = pages
		} else if cycle == cycles && pages > third+slack {
			t.Fatalf("store grows under churn: %d pages after cycle 3, %d after cycle %d", third, pages, cycles)
		}
	}
	fx.mustVerify(t)
}

// TestReclaimRespectsSnapshotPin is the PR 6 interaction regression: a
// long-running snapshot races GC+reclaim passes. The snapshot's pin holds
// the visibility horizon down, so no node the snapshot can read is
// retired — and therefore none is freed — while it lives; releasing it
// opens the floodgate.
func TestReclaimRespectsSnapshotPin(t *testing.T) {
	opts := smallOpts()
	fx := newFixture(t, opts)
	const n = 8
	churn(t, fx, n, 0, 1)
	snap := fx.e.BeginSnapshot() // pins version time at round 0
	churn(t, fx, n, 1, 60)
	fx.tree.DrainCompletions()

	// Hammer the pinned snapshot from a reader while reclaim passes run:
	// the reader must never see a wrong value, an error, or a miss.
	stop := make(chan struct{})
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := uint64(i % n)
			v, ok, err := fx.tree.SnapshotGet(snap, keys.Uint64(k), nil)
			if err != nil || !ok || string(v) != "r0" {
				select {
				case errc <- fmt.Errorf("pinned read key %d: %q ok=%v err=%v", k, v, ok, err):
				default:
				}
				return
			}
		}
	}()
	for pass := 0; pass < 4; pass++ {
		if _, err := fx.tree.RunGC(); err != nil {
			t.Fatalf("gc under pin: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	pinned := fx.tree.Stats.GCFreedPages.Load()
	fx.mustVerify(t)

	snap.Release()
	if _, err := fx.tree.RunGC(); err != nil {
		t.Fatalf("gc after release: %v", err)
	}
	if got := fx.tree.Stats.GCFreedPages.Load(); got <= pinned {
		t.Fatalf("releasing the snapshot freed nothing: %d then %d", pinned, got)
	}
	fx.mustVerify(t)
	for i := 0; i < n; i++ {
		v, ok, err := fx.tree.Get(nil, keys.Uint64(uint64(i)))
		if err != nil || !ok || string(v) != "r59" {
			t.Fatalf("current read after reclaim: key %d %q ok=%v err=%v", i, v, ok, err)
		}
	}
}

// TestReclaimCrashDuringCut: crash in the middle of a cut+free atomic
// action (the failpoint fires between the free and the commit). Restart
// must undo both halves together — the chain edge restored if and only
// if the page is allocated — so verification's free-vs-reachable
// cross-check holds and reclamation can resume.
func TestReclaimCrashDuringCut(t *testing.T) {
	inj := fault.New(0xC07)
	opts := smallOpts()
	e := engine.New(engine.Options{Injector: inj})
	b := Register(e.Reg)
	st := e.AddStore(testStoreID, Codec{})
	tree, err := Create(st, e.TM, e.Locks, b, "versions", opts)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	fx := &fixture{e: e, b: b, tree: tree}

	const n = 8
	churn(t, fx, n, 0, 60)
	fx.tree.DrainCompletions()
	if err := fx.e.Log.ForceAll(); err != nil {
		t.Fatal(err)
	}

	inj.Arm(storage.FPConsolidate, fault.Spec{Kind: fault.Transient, After: 3, Crash: true})
	if _, err := fx.tree.RunGC(); err == nil {
		t.Fatal("armed cut failpoint never fired")
	}
	if !inj.Crashed() {
		t.Fatal("crash latch not tripped")
	}

	fx.e.Opts.Injector = nil
	fx2 := fx.crashRestart(t)
	fx2.mustVerify(t)
	for i := 0; i < n; i++ {
		v, ok, err := fx2.tree.Get(nil, keys.Uint64(uint64(i)))
		if err != nil || !ok || string(v) != "r59" {
			t.Fatalf("key %d after crash recovery: %q ok=%v err=%v", i, v, ok, err)
		}
	}

	// Reclamation resumes where the crash interrupted it.
	if _, err := fx2.tree.RunGC(); err != nil {
		t.Fatalf("gc after recovery: %v", err)
	}
	if fx2.tree.Stats.GCFreedPages.Load() == 0 {
		t.Fatal("no pages freed after recovery")
	}
	fx2.mustVerify(t)
	churn(t, fx2, n, 60, 75)
	fx2.mustVerify(t)
}

// TestReclaimBackgroundGC: with GC on, the completion machinery frees
// pages with no RunGC call, under concurrent writers. Each writer pins
// snapshots across its first 40 rounds, so that full nodes time-split
// rather than prune and make history for GC to free.
func TestReclaimBackgroundGC(t *testing.T) {
	opts := smallOpts()
	opts.GC = true
	opts.SyncCompletion = false
	fx := newFixture(t, opts)
	const n = 8
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := pins{e: fx.e}
			defer p.release()
			for round := 0; round < 60; round++ {
				switch {
				case round < 40 && round%8 == 0:
					p.rotate()
				case round == 40:
					p.release()
				}
				for i := 0; i < n; i++ {
					k := uint64(w*n + i)
					if err := fx.tree.Put(nil, keys.Uint64(k), []byte(fmt.Sprintf("w%dr%d", w, round))); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	fx.tree.DrainCompletions()
	if _, err := fx.tree.RunGC(); err != nil {
		t.Fatalf("final gc: %v", err)
	}
	if fx.tree.Stats.GCFreedPages.Load() == 0 {
		t.Fatal("background gc+reclaim freed nothing")
	}
	fx.mustVerify(t)
	for w := 0; w < 2; w++ {
		for i := 0; i < n; i++ {
			k := uint64(w*n + i)
			v, ok, err := fx.tree.Get(nil, keys.Uint64(k))
			if err != nil || !ok || string(v) != fmt.Sprintf("w%dr59", w) {
				t.Fatalf("key %d: %q ok=%v err=%v", k, v, ok, err)
			}
		}
	}
}

// TestCompletionHotPathAllocs: a sibling walk schedules its posting under
// the walked node's latch, and the kernel's Absorb asks the queue about
// its victim under the referencer's X latch; folding a duplicate and
// answering the lookup must not allocate (the dedup key is a comparable
// struct, not a string).
func TestCompletionHotPathAllocs(t *testing.T) {
	fx := newFixture(t, smallOpts()) // SyncCompletion: queued until drained
	data := firstChild(t, fx.tree.store.Pool, fx.tree.root)
	task := postTask{parentLevel: 1, child: data, rect: EntireRect()}
	fx.tree.schedule(task)
	if a := testing.AllocsPerRun(100, func() { fx.tree.schedule(task) }); a != 0 {
		t.Fatalf("duplicate schedule allocates %.1f objects", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if !fx.tree.comp.Refs(pitree.PostKey(1, data)) {
			t.Error("queued posting not visible to Refs")
		}
	}); a != 0 {
		t.Fatalf("Refs allocates %.1f objects", a)
	}
}

// firstChild returns the first child of the index node pid (quiescent).
func firstChild(t *testing.T, pool *storage.Pool, pid storage.PageID) storage.PageID {
	t.Helper()
	f, err := pool.Fetch(pid)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Unpin(f)
	return f.Data.(*Node).entry(0).Child
}

// seedReclaim churns eight keys into history chains over an engine with
// eopts and retires what lies below the horizon, returning the chain
// heads: each chain's retired tail is left for a test to reclaim.
func seedReclaim(t *testing.T, eopts engine.Options) (*fixture, []storage.PageID) {
	t.Helper()
	opts := smallOpts()
	fx := newEngineFixture(t, eopts, opts)
	churn(t, fx, 8, 0, 60)
	fx.tree.DrainCompletions()
	var heads []storage.PageID
	err := fx.tree.kern.Walk(0, func(r nref) error {
		if r.N.IsData() && r.N.Current() {
			heads = append(heads, r.Pid())
		}
		return nil
	})
	for _, h := range heads {
		if err == nil {
			_, err = fx.tree.gcChain(h)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return fx, heads
}

// reclaimAll runs reclaim on every chain until its tail stays.
func reclaimAll(heads []storage.PageID, reclaim func(head storage.PageID) (int, error)) error {
	for _, h := range heads {
		for {
			n, err := reclaim(h)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
		}
	}
	return nil
}

// TestFreeActionLogIdentity: on two copies of one seeded state, the tail
// cuts that run through the kernel's Absorb log, record for record and in
// order, what the reaper written before Absorb logged (kept in
// oracle_test.go).
func TestFreeActionLogIdentity(t *testing.T) {
	run := func(oracle bool) []wal.Record {
		fx, heads := seedReclaim(t, engine.Options{})
		reclaim := fx.tree.reclaimTail
		if oracle {
			reclaim = fx.tree.oracleReclaimTail
		}
		from := fx.e.Log.EndLSN()
		if err := reclaimAll(heads, reclaim); err != nil {
			t.Fatal(err)
		}
		recs := pitreetest.RecordsFrom(t, fx.e.Log, from)
		fx.mustVerify(t)
		return recs
	}
	got, want := run(false), run(true)
	seen := map[wal.Kind]int{}
	for _, r := range got {
		seen[r.Kind]++
	}
	if seen[KindCutHist] == 0 || seen[storage.KindMetaFree] != seen[KindCutHist] {
		t.Fatalf("the reaper logged %d cuts and %d frees: the test lost its point", seen[KindCutHist], seen[storage.KindMetaFree])
	}
	pitreetest.SameRecords(t, got, want)
}

// TestCrashInsideFree: a crash inside the first tail cut's free — at
// storage.FPStoreFree, with the cut logged and the page's free record not,
// and at storage.FPConsolidate, with both logged and the commit not.
// Restart leaves a well-formed tree whose free-space map matches the log
// (pitreetest.FinishAudited), in which a page is free if and only if it is
// unlinked, and every key reads its last value.
func TestCrashInsideFree(t *testing.T) {
	for _, fp := range []string{storage.FPStoreFree, storage.FPConsolidate} {
		t.Run(fp, func(t *testing.T) {
			fx, heads := seedReclaim(t, engine.Options{})
			inj := fault.New(1)
			fx.tree.store.Pool.SetInjector(inj)
			inj.Arm(fp, fault.Spec{Kind: fault.Transient})
			from := fx.e.Log.EndLSN()
			if err := reclaimAll(heads, fx.tree.reclaimTail); !errors.Is(err, fault.ErrInjected) || len(inj.Trips()) != 1 {
				t.Fatalf("reclaim: %v after %d trips", err, len(inj.Trips()))
			}
			cut, last := pitreetest.CutAtFailure(t, fx.e.Log, from)
			if (last == storage.KindMetaFree) != (fp == storage.FPConsolidate) {
				t.Fatalf("the action's last record before the failure is of kind %d", last)
			}
			fx2 := fx.restartFrom(t, fx.e.Crash(&cut))
			fx2.mustVerify(t)
			pitreetest.FreeIffUnlinked(t, fx2.tree.kern, fx2.tree.store)
			for i := 0; i < 8; i++ {
				if v, ok, err := fx2.tree.Get(nil, keys.Uint64(uint64(i))); err != nil || !ok || string(v) != "r59" {
					t.Fatalf("key %d after restart: %q ok=%v err=%v", i, v, ok, err)
				}
			}
		})
	}
}

// TestFreeCommitFailureRollsBack: a tail cut whose commit cannot be forced —
// ForceOnAACommit and a dead log device — rolls back under the latches its
// action holds and returns the error. A restart then leaves a well-formed
// tree whose space map matches the log, every key reading its last value.
func TestFreeCommitFailureRollsBack(t *testing.T) {
	inj := fault.New(1)
	fx, heads := seedReclaim(t, engine.Options{Injector: inj, ForceOnAACommit: true})
	inj.Arm(wal.FPSync, fault.Spec{Kind: fault.Permanent, Count: -1})
	pitreetest.FailedCommitReturns(t, func() error { return reclaimAll(heads, fx.tree.reclaimTail) })
	fx.e.Opts.Injector = nil
	fx2 := fx.restartFrom(t, fx.e.Crash(nil))
	fx2.mustVerify(t)
	pitreetest.FreeIffUnlinked(t, fx2.tree.kern, fx2.tree.store)
	for i := 0; i < 8; i++ {
		if v, ok, err := fx2.tree.Get(nil, keys.Uint64(uint64(i))); err != nil || !ok || string(v) != "r59" {
			t.Fatalf("key %d after restart: %q ok=%v err=%v", i, v, ok, err)
		}
	}
}
