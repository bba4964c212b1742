package spatial

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/latch"
	"repro/internal/maint"
	"repro/internal/pitree"
	"repro/internal/pitree/pitreetest"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// fillPoints inserts count distinct random points, returning them in
// insertion order (deterministic given the seed).
func fillPoints(t testing.TB, fx *fixture, rng *rand.Rand, count int) []Point {
	t.Helper()
	seen := make(map[Point]bool, count)
	pts := make([]Point, 0, count)
	for len(pts) < count {
		p := randPoint(rng)
		if seen[p] {
			continue
		}
		seen[p] = true
		if err := fx.tree.Insert(nil, p, []byte(fmt.Sprintf("v%d", len(pts)))); err != nil {
			t.Fatalf("insert %v: %v", p, err)
		}
		pts = append(pts, p)
	}
	return pts
}

// TestAbsorbReclaimsEmptyNodes: deleting most points empties data nodes;
// with Reclaim on, consolidation absorbs them back into their delegators
// and frees their pages, later inserts recycle those pages, and searches
// through the shrunken tree stay correct.
func TestAbsorbReclaimsEmptyNodes(t *testing.T) {
	opts := smallOpts()
	opts.Reclaim = true
	fx := newFixture(t, opts)
	rng := rand.New(rand.NewSource(17))
	pts := fillPoints(t, fx, rng, 300)
	if fx.mustVerify(t).DataNodes < 4 {
		t.Fatal("too few splits to exercise absorption")
	}

	const keep = 10
	for _, p := range pts[keep:] {
		if err := fx.tree.Delete(nil, p); err != nil {
			t.Fatalf("delete %v: %v", p, err)
		}
	}
	fx.tree.DrainCompletions()
	if _, err := fx.tree.RunConsolidation(); err != nil {
		t.Fatalf("consolidation: %v", err)
	}
	if fx.tree.Stats.Absorbs.Load() == 0 {
		t.Fatal("no empty nodes were absorbed")
	}
	st, err := fx.tree.store.SpaceStats()
	if err != nil {
		t.Fatalf("space stats: %v", err)
	}
	if st.Freed == 0 || st.FreeLen == 0 {
		t.Fatalf("absorption freed no pages: %+v", st)
	}
	fx.mustVerify(t) // partition + free-vs-reachable cross-checks
	for i, p := range pts[:keep] {
		v, ok, err := fx.tree.Search(nil, p)
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("survivor %v: %q ok=%v err=%v", p, v, ok, err)
		}
	}
	for _, p := range pts[keep:] {
		if _, ok, err := fx.tree.Search(nil, p); err != nil || ok {
			t.Fatalf("deleted point %v resurfaced: ok=%v err=%v", p, ok, err)
		}
	}

	// Refilling must split into recycled pages before extending the store.
	fillPoints(t, fx, rng, 300)
	st2, err := fx.tree.store.SpaceStats()
	if err != nil {
		t.Fatalf("space stats: %v", err)
	}
	if st2.Recycled == 0 {
		t.Fatal("refill splits did not recycle freed pages")
	}
	fx.mustVerify(t)
}

// TestRecycledPageGetsItsTerm: a page the absorber freed and a later split
// recycled is a new node whose posting must go through. Once completions
// are drained every data node has an index term; none is left reachable
// only through a sibling term because its page once held an absorbed
// node.
func TestRecycledPageGetsItsTerm(t *testing.T) {
	opts := smallOpts()
	opts.Reclaim = true
	fx := newFixture(t, opts)
	rng := rand.New(rand.NewSource(17))
	pts := fillPoints(t, fx, rng, 300)
	for _, p := range pts[10:] {
		if err := fx.tree.Delete(nil, p); err != nil {
			t.Fatalf("delete %v: %v", p, err)
		}
	}
	fx.tree.DrainCompletions()
	if _, err := fx.tree.RunConsolidation(); err != nil {
		t.Fatalf("consolidation: %v", err)
	}
	fillPoints(t, fx, rng, 300)
	fx.tree.DrainCompletions()
	if st, err := fx.tree.store.SpaceStats(); err != nil || st.Recycled == 0 {
		t.Fatalf("refill recycled no page: %+v %v", st, err)
	}
	posted := make(map[storage.PageID]bool)
	var data []storage.PageID
	err := fx.tree.kern.Walk(0, func(r nref) error {
		if r.N.IsData() {
			data = append(data, r.Pid())
		}
		for i := 0; !r.N.IsData() && i < r.N.Len(); i++ {
			_, child := r.N.termAt(i)
			posted[child] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pid := range data {
		if !posted[pid] {
			t.Errorf("data node %d has no index term after completion", pid)
		}
	}
	fx.mustVerify(t)
}

// TestAbsorbDefersUnpostedVictim: an emptied data node whose index term is
// not posted yet has no parent at all. The absorber puts it off for the
// posting (AbsorbDeferred); it is not a multi-parent child, and it stays
// allocated.
func TestAbsorbDefersUnpostedVictim(t *testing.T) {
	opts := smallOpts()
	opts.Reclaim = true
	opts.NoCompletion = true // the split's posting never runs
	fx := newFixture(t, opts)
	fillPoints(t, fx, rand.New(rand.NewSource(3)), opts.DataCapacity+1)
	var victim storage.PageID
	points := map[storage.PageID][]Point{}
	err := fx.tree.kern.Walk(0, func(r nref) error {
		if ns := len(r.N.Sibs); ns > 0 && r.N.IsData() {
			victim = r.N.Sibs[ns-1].Pid
		}
		for i := 0; r.N.IsData() && i < r.N.Len(); i++ {
			points[r.Pid()] = append(points[r.Pid()], r.N.pointAt(i))
		}
		return nil
	})
	if err != nil || victim == storage.NilPage {
		t.Fatalf("no data split to absorb: %v", err)
	}
	for _, p := range points[victim] {
		if err := fx.tree.Delete(nil, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fx.tree.RunConsolidation(); err != nil {
		t.Fatal(err)
	}
	if d, m := fx.tree.Stats.AbsorbDeferred.Load(), fx.tree.Stats.AbsorbMultiParent.Load(); d != 1 || m != 0 {
		t.Fatalf("unposted empty victim counted %d deferred, %d multi-parent; want 1, 0", d, m)
	}
	if ok, err := fx.tree.store.IsAllocated(victim); err != nil || !ok {
		t.Fatalf("unposted victim %d freed (allocated %v, err %v)", victim, ok, err)
	}
	fx.mustVerify(t)
}

// TestPostingSkipsUncommittedChild: a completion task can name a page that
// an action still in flight has just formatted — a stale task for a freed
// page that a split has taken again. Its posting must not install a term:
// the split can still be undone, and if it is not, the posting the split
// queues at its commit covers the new node. Here the split is abandoned
// after the posting ran; the tree must come out well-formed.
func TestPostingSkipsUncommittedChild(t *testing.T) {
	fx := newFixture(t, smallOpts())
	fillPoints(t, fx, rand.New(rand.NewSource(5)), 200)
	fx.tree.DrainCompletions()
	var victim storage.PageID
	err := fx.tree.kern.Walk(0, func(r nref) error {
		if _, _, ok := choosePlane(r.N); ok && r.N.IsData() && victim == storage.NilPage {
			victim = r.Pid()
		}
		return nil
	})
	if err != nil || victim == storage.NilPage {
		t.Fatalf("no data node to split: %v", err)
	}
	o := fx.tree.kern.NewOp(nil)
	defer o.Done()
	node, err := o.Acquire(victim, latch.X, 0)
	if err != nil {
		t.Fatal(err)
	}
	errAbandon := errors.New("split abandoned")
	err = o.Atomic(func(aa *txn.Txn) error {
		o.Hold(&node)
		alongX, coord, _ := choosePlane(node.N)
		if err := fx.tree.kern.Split(o, aa, &node, &planeCut{t: fx.tree, alongX: alongX, coord: coord}); err != nil {
			return err
		}
		newest := node.N.Sibs[len(node.N.Sibs)-1]
		sib, rect := newest.Pid, newest.Rect
		posted := make(chan error, 1)
		go func() {
			ok, err := fx.tree.kern.Post(&termPost{t: fx.tree, task: postTask{parentLevel: 1, child: sib, rect: rect}})
			if err == nil && ok {
				err = fmt.Errorf("posted a term for page %d, formatted by an action that has not committed", sib)
			}
			posted <- err
		}()
		if err := <-posted; err != nil {
			t.Error(err)
		}
		return errAbandon
	})
	if !errors.Is(err, errAbandon) {
		t.Fatalf("split action: %v", err)
	}
	fx.mustVerify(t)
}

// TestAbsorbBoundsStoreGrowth: repeated fill/drain cycles allocate fewer
// pages with Reclaim on than off.
func TestAbsorbBoundsStoreGrowth(t *testing.T) {
	alloc := func(reclaim bool) int64 {
		opts := smallOpts()
		opts.Reclaim = reclaim
		fx := newFixture(t, opts)
		rng := rand.New(rand.NewSource(23))
		for cycle := 0; cycle < 4; cycle++ {
			pts := fillPoints(t, fx, rng, 200)
			for _, p := range pts {
				if err := fx.tree.Delete(nil, p); err != nil {
					t.Fatalf("delete: %v", err)
				}
			}
			fx.tree.DrainCompletions()
			if _, err := fx.tree.RunConsolidation(); err != nil {
				t.Fatalf("consolidation: %v", err)
			}
		}
		fx.mustVerify(t)
		pages, err := fx.tree.store.AllocatedPages()
		if err != nil {
			t.Fatalf("allocated pages: %v", err)
		}
		return pages
	}
	with, without := alloc(true), alloc(false)
	if with >= without {
		t.Fatalf("reclaim did not bound growth: %d pages with, %d without", with, without)
	}
}

// TestAbsorbCrashMidAction: a crash between the page free and the commit
// of an absorb action must undo the whole action — region restored to the
// delegator, term restored to the parent, page back in the allocated set
// — so recovery verifies and consolidation finishes the job afterwards.
func TestAbsorbCrashMidAction(t *testing.T) {
	inj := fault.New(0xA5B)
	opts := smallOpts()
	opts.Reclaim = true
	e := engine.New(engine.Options{Injector: inj})
	b := Register(e.Reg)
	st := e.AddStore(testStoreID, Codec{})
	tree, err := Create(st, e.TM, e.Locks, b, "points", opts)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	fx := &fixture{e: e, b: b, tree: tree}

	rng := rand.New(rand.NewSource(31))
	pts := fillPoints(t, fx, rng, 300)
	fx.mustVerify(t)
	const keep = 5
	for _, p := range pts[keep:] {
		if err := fx.tree.Delete(nil, p); err != nil {
			t.Fatalf("delete %v: %v", p, err)
		}
	}
	if err := fx.e.Log.ForceAll(); err != nil {
		t.Fatal(err)
	}

	// The third page free inside the consolidation sweep crashes.
	inj.Arm(storage.FPConsolidate, fault.Spec{Kind: fault.Transient, After: 2, Crash: true})
	if _, err := fx.tree.RunConsolidation(); err == nil {
		t.Fatal("armed consolidation failpoint never fired")
	}
	if !inj.Crashed() {
		t.Fatal("crash latch not tripped")
	}

	fx.e.Opts.Injector = nil
	fx2 := fx.crashRestart(t)
	fx2.mustVerify(t)
	for i, p := range pts {
		v, ok, err := fx2.tree.Search(nil, p)
		if err != nil {
			t.Fatalf("search %v after recovery: %v", p, err)
		}
		if i >= keep {
			if ok {
				t.Fatalf("deleted point %v resurfaced after recovery", p)
			}
		} else if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("surviving point %v after recovery: %q ok=%v", p, v, ok)
		}
	}

	// The victim whose absorb was interrupted is still empty and still
	// linked; consolidation resumes and reclaims it now.
	if _, err := fx2.tree.RunConsolidation(); err != nil {
		t.Fatalf("consolidation after recovery: %v", err)
	}
	if fx2.tree.Stats.Absorbs.Load() == 0 {
		t.Fatal("no absorption after recovery")
	}
	st2, err := fx2.tree.store.SpaceStats()
	if err != nil {
		t.Fatalf("space stats: %v", err)
	}
	if st2.Freed == 0 {
		t.Fatal("no pages freed after recovery")
	}
	fx2.mustVerify(t)
}

// TestAbsorbConcurrentChurn: async completion, a pacing governor, and two
// writer goroutines inserting and deleting disjoint point sets while
// background absorption runs. The §3.3 screens (clipped terms, pending
// tasks) must keep the tree verifiable throughout.
func TestAbsorbConcurrentChurn(t *testing.T) {
	opts := smallOpts()
	opts.Reclaim = true
	opts.SyncCompletion = false
	opts.Governor = maint.New(100000, 4, nil)
	fx := newFixture(t, opts)

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(41 + w)))
			for cycle := 0; cycle < 3; cycle++ {
				var mine []Point
				for len(mine) < 150 {
					p := randPoint(rng)
					err := fx.tree.Insert(nil, p, []byte{byte(w)})
					if err == ErrPointExists {
						continue
					}
					if err != nil {
						t.Errorf("insert: %v", err)
						return
					}
					mine = append(mine, p)
				}
				for _, p := range mine {
					if err := fx.tree.Delete(nil, p); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	fx.tree.DrainCompletions()
	if _, err := fx.tree.RunConsolidation(); err != nil {
		t.Fatalf("final consolidation: %v", err)
	}
	if fx.tree.Stats.Absorbs.Load() == 0 {
		t.Fatal("churn absorbed nothing")
	}
	fx.mustVerify(t)
}

// TestCompletionHotPathAllocs: a side traversal schedules its posting
// under the traversed node's latch, and the kernel's Absorb asks the queue
// about its victim under the delegator's latch; folding a duplicate and
// answering the lookup must not allocate (the dedup key is a comparable
// struct, not a string).
func TestCompletionHotPathAllocs(t *testing.T) {
	fx := newFixture(t, smallOpts()) // SyncCompletion: queued until drained
	f, err := fx.tree.store.Pool.Fetch(fx.tree.root)
	if err != nil {
		t.Fatal(err)
	}
	data := f.Data.(*Node).entry(0).Child
	fx.tree.store.Pool.Unpin(f)
	task := postTask{parentLevel: 1, child: data, rect: FullSpace()}
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

// seedAbsorb fills 300 points over an engine with eopts and deletes all
// but the first ten, with completions off from then on, so nothing is
// absorbed until a test asks.
func seedAbsorb(t *testing.T, eopts engine.Options) (*fixture, []Point) {
	t.Helper()
	opts := smallOpts()
	opts.Reclaim = true
	fx := newEngineFixture(t, eopts, opts)
	pts := fillPoints(t, fx, rand.New(rand.NewSource(17)), 300)
	fx.tree.DrainCompletions()
	fx.tree.opts.NoCompletion = true
	for _, p := range pts[10:] {
		if err := fx.tree.Delete(nil, p); err != nil {
			t.Fatalf("delete %v: %v", p, err)
		}
	}
	return fx, pts[:10]
}

// absorbAll runs absorb on every candidate of a scan, scan after scan,
// until one frees nothing.
func (fx *fixture) absorbAll(absorb func(absorbCand) (int, error)) error {
	for {
		cands, err := fx.tree.scanAbsorbCandidates()
		if err != nil {
			return err
		}
		freed := 0
		for _, c := range cands {
			n, err := absorb(c)
			if err != nil {
				return err
			}
			freed += n
		}
		if freed == 0 {
			return nil
		}
	}
}

// TestFreeActionLogIdentity: on two copies of one seeded state, the
// absorbs that run through the kernel's Absorb log, record for record and
// in order, what the absorb action written before Absorb logged
// (kept in oracle_test.go).
func TestFreeActionLogIdentity(t *testing.T) {
	run := func(oracle bool) []wal.Record {
		fx, _ := seedAbsorb(t, engine.Options{})
		absorb := fx.tree.absorbAction
		if oracle {
			absorb = fx.tree.oracleAbsorbAction
		}
		from := fx.e.Log.EndLSN()
		if err := fx.absorbAll(absorb); err != nil {
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
	if seen[KindAbsorbSib] == 0 || seen[KindRemoveTerm] != seen[KindAbsorbSib] || seen[storage.KindMetaFree] != seen[KindAbsorbSib] {
		t.Fatalf("the absorbs logged %v: the test lost its point", seen)
	}
	pitreetest.SameRecords(t, got, want)
}

// TestCrashInsideFree: a crash inside the first absorb's free — at
// storage.FPStoreFree, with the unlink from the delegator and the parent
// logged and the page's free record not, and at storage.FPConsolidate,
// with all three logged and the commit not. Restart leaves a well-formed
// tree whose free-space map matches the log (pitreetest.FinishAudited), in
// which a page is free if and only if it is unlinked, holding every point
// it held.
func TestCrashInsideFree(t *testing.T) {
	for _, fp := range []string{storage.FPStoreFree, storage.FPConsolidate} {
		t.Run(fp, func(t *testing.T) {
			fx, kept := seedAbsorb(t, engine.Options{})
			inj := fault.New(1)
			fx.tree.store.Pool.SetInjector(inj)
			inj.Arm(fp, fault.Spec{Kind: fault.Transient})
			from := fx.e.Log.EndLSN()
			if err := fx.absorbAll(fx.tree.absorbAction); !errors.Is(err, fault.ErrInjected) || len(inj.Trips()) != 1 {
				t.Fatalf("absorb: %v after %d trips", err, len(inj.Trips()))
			}
			cut, last := pitreetest.CutAtFailure(t, fx.e.Log, from)
			if (last == storage.KindMetaFree) != (fp == storage.FPConsolidate) {
				t.Fatalf("the action's last record before the failure is of kind %d", last)
			}
			fx2 := fx.restartFrom(t, fx.e.Crash(&cut))
			fx2.mustVerify(t)
			pitreetest.FreeIffUnlinked(t, fx2.tree.kern, fx2.tree.store)
			for i, p := range kept {
				if v, ok, err := fx2.tree.Search(nil, p); err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
					t.Fatalf("point %v after restart: %q ok=%v err=%v", p, v, ok, err)
				}
			}
		})
	}
}

// TestFreeCommitFailureRollsBack: an absorb whose commit cannot be forced —
// ForceOnAACommit and a dead log device — rolls back under the latches its
// action holds, the parent's among them, and returns the error. A restart
// then leaves a well-formed tree whose space map matches the log, holding
// every point it held.
func TestFreeCommitFailureRollsBack(t *testing.T) {
	inj := fault.New(1)
	fx, kept := seedAbsorb(t, engine.Options{Injector: inj, ForceOnAACommit: true})
	inj.Arm(wal.FPSync, fault.Spec{Kind: fault.Permanent, Count: -1})
	pitreetest.FailedCommitReturns(t, func() error { return fx.absorbAll(fx.tree.absorbAction) })
	fx.e.Opts.Injector = nil
	fx2 := fx.crashRestart(t)
	fx2.mustVerify(t)
	pitreetest.FreeIffUnlinked(t, fx2.tree.kern, fx2.tree.store)
	for i, p := range kept {
		if v, ok, err := fx2.tree.Search(nil, p); err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("point %v after restart: %q ok=%v err=%v", p, v, ok, err)
		}
	}
}
