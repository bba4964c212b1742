package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/pitree/pitreetest"
	"repro/internal/wal"
)

// fixture bundles an engine with one Π-tree for tests.
type fixture struct {
	e    *engine.Engine
	b    *Binding
	tree *Tree
}

const testStoreID = 7

func defaultTestOpts() Options {
	return Options{
		LeafCapacity:   8,
		IndexCapacity:  8,
		Consolidation:  true,
		SyncCompletion: true,
	}
}

func newFixture(t testing.TB, eopts engine.Options, topts Options) *fixture {
	t.Helper()
	e := engine.New(eopts)
	b := Register(e.Reg, eopts.PageOriented)
	st := e.AddStore(testStoreID, Codec{})
	tree, err := Create(st, e.TM, e.Locks, b, "test", topts)
	if err != nil {
		t.Fatalf("create tree: %v", err)
	}
	t.Cleanup(tree.Close)
	return &fixture{e: e, b: b, tree: tree}
}

// crashRestart simulates a crash (optionally truncating the log at lsn)
// and performs the ordered restart: analysis+redo, re-open, undo.
func (fx *fixture) crashRestart(t testing.TB, truncateAt *wal.LSN) *fixture {
	t.Helper()
	fx2, ok := fx.tryCrashRestart(t, truncateAt)
	if !ok {
		t.Fatalf("reopen tree failed after restart")
	}
	return fx2
}

// tryCrashRestart is crashRestart for crash points that may precede the
// tree's creation becoming durable: it reports ok=false when the restarted
// store has no tree (the only failure it tolerates).
func (fx *fixture) tryCrashRestart(t testing.TB, truncateAt *wal.LSN) (*fixture, bool) {
	t.Helper()
	img := fx.e.Crash(truncateAt)
	fx.tree.Close()
	e2 := engine.Restarted(img, fx.e.Opts)
	b2 := Register(e2.Reg, fx.e.Opts.PageOriented)
	st2 := e2.AddStore(testStoreID, Codec{})
	p, err := e2.AnalyzeAndRedo()
	if err != nil {
		t.Fatalf("analyze+redo: %v", err)
	}
	tree2, err := Open(st2, e2.TM, e2.Locks, b2, "test", fx.tree.opts)
	if err != nil {
		// Undo must still run so the incomplete creation is rolled back.
		if uerr := e2.FinishRecovery(p); uerr != nil {
			t.Fatalf("undo losers after failed open: %v", uerr)
		}
		return nil, false
	}
	pitreetest.FinishAudited(t, e2, func() error { return e2.FinishRecovery(p) })
	// Undo may have rolled back an uncommitted tree creation that the
	// pre-undo Open transiently observed; re-check the catalog.
	if _, err := st2.Root("test"); err != nil {
		tree2.Close()
		return nil, false
	}
	t.Cleanup(tree2.Close)
	return &fixture{e: e2, b: b2, tree: tree2}, true
}

func (fx *fixture) mustVerify(t testing.TB) TreeShape {
	t.Helper()
	fx.tree.DrainCompletions()
	shape, err := fx.tree.Verify()
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	return shape
}

func val(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

func TestInsertSearchSmall(t *testing.T) {
	fx := newFixture(t, engine.Options{}, defaultTestOpts())
	for i := 0; i < 100; i++ {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < 100; i++ {
		v, ok, err := fx.tree.Search(nil, keys.Uint64(uint64(i)))
		if err != nil || !ok {
			t.Fatalf("search %d: ok=%v err=%v", i, ok, err)
		}
		if string(v) != string(val(i)) {
			t.Fatalf("search %d: got %q", i, v)
		}
	}
	if _, ok, _ := fx.tree.Search(nil, keys.Uint64(1000)); ok {
		t.Fatal("found missing key")
	}
	shape := fx.mustVerify(t)
	if shape.Records != 100 {
		t.Fatalf("records = %d, want 100", shape.Records)
	}
	if shape.Height < 2 {
		t.Fatalf("height = %d, want >= 2 (leaf capacity 8)", shape.Height)
	}
}

func TestInsertRandomOrderAndDuplicates(t *testing.T) {
	fx := newFixture(t, engine.Options{}, defaultTestOpts())
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(500)
	for _, i := range perm {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := fx.tree.Insert(nil, keys.Uint64(7), val(7)); err != ErrKeyExists {
		t.Fatalf("duplicate insert: err = %v, want ErrKeyExists", err)
	}
	shape := fx.mustVerify(t)
	if shape.Records != 500 {
		t.Fatalf("records = %d, want 500", shape.Records)
	}
}

func TestUpdateDelete(t *testing.T) {
	fx := newFixture(t, engine.Options{}, defaultTestOpts())
	for i := 0; i < 200; i++ {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i += 2 {
		if err := fx.tree.Update(nil, keys.Uint64(uint64(i)), []byte("updated")); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	for i := 1; i < 200; i += 2 {
		if err := fx.tree.Delete(nil, keys.Uint64(uint64(i))); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if err := fx.tree.Delete(nil, keys.Uint64(1)); err != ErrKeyNotFound {
		t.Fatalf("double delete: err = %v, want ErrKeyNotFound", err)
	}
	if err := fx.tree.Update(nil, keys.Uint64(1), nil); err != ErrKeyNotFound {
		t.Fatalf("update missing: err = %v, want ErrKeyNotFound", err)
	}
	for i := 0; i < 200; i++ {
		v, ok, err := fx.tree.Search(nil, keys.Uint64(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if !ok || string(v) != "updated" {
				t.Fatalf("key %d: ok=%v v=%q", i, ok, v)
			}
		} else if ok {
			t.Fatalf("deleted key %d still present", i)
		}
	}
	shape := fx.mustVerify(t)
	if shape.Records != 100 {
		t.Fatalf("records = %d, want 100", shape.Records)
	}
}

// TestRangeScanReadsNoDirtyValue: T1 updates key 1 and is still active when
// T2 scans over it; T1 then aborts. T2 must wait for T1's lock and deliver
// the value it reads once it holds the lock — never the one T1 wrote.
func TestRangeScanReadsNoDirtyValue(t *testing.T) {
	fx := newFixture(t, engine.Options{}, defaultTestOpts())
	for i := 0; i < 3; i++ {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i)), []byte("clean")); err != nil {
			t.Fatal(err)
		}
	}
	t1 := fx.e.TM.Begin()
	if err := fx.tree.Update(t1, keys.Uint64(1), []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	waits, _ := fx.e.Locks.Stats()
	t2 := fx.e.TM.Begin()
	seen := map[uint64]string{}
	scanned := make(chan error, 1)
	go func() {
		scanned <- fx.tree.RangeScan(t2, nil, nil, func(k keys.Key, v []byte) bool {
			seen[keys.ToUint64(k)] = string(v)
			return true
		})
	}()
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		if w, _ := fx.e.Locks.Stats(); w > waits {
			break // T2 is queued behind T1's X lock on key 1
		}
		if time.Now().After(deadline) {
			t.Fatal("the scan never waited for the updater's lock")
		}
	}
	if err := t1.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-scanned; err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 3; k++ {
		if seen[k] != "clean" {
			t.Fatalf("scan delivered key %d = %q; every key holds %q once T1 is rolled back", k, seen[k], "clean")
		}
		if _, held := fx.e.Locks.HeldMode(t2.ID, fx.tree.recLockName(keys.Uint64(k))); !held {
			t.Fatalf("scan delivered key %d without holding its lock", k)
		}
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestRangeScan(t *testing.T) {
	fx := newFixture(t, engine.Options{}, defaultTestOpts())
	for i := 0; i < 300; i++ {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i*2)), val(i*2)); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	err := fx.tree.RangeScan(nil, keys.Uint64(100), keys.Uint64(200), func(k keys.Key, v []byte) bool {
		got = append(got, keys.ToUint64(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("scan returned %d keys, want 50", len(got))
	}
	for i, k := range got {
		if k != uint64(100+2*i) {
			t.Fatalf("scan[%d] = %d, want %d", i, k, 100+2*i)
		}
	}
	// Early stop.
	n := 0
	err = fx.tree.RangeScan(nil, nil, nil, func(k keys.Key, v []byte) bool {
		n++
		return n < 10
	})
	if err != nil || n != 10 {
		t.Fatalf("early stop: n=%d err=%v", n, err)
	}
}

func TestCrashRecoveryCommittedSurvive(t *testing.T) {
	fx := newFixture(t, engine.Options{}, defaultTestOpts())
	for i := 0; i < 150; i++ {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	fx.tree.DrainCompletions()
	// Make everything durable-eligible: force the log but flush nothing.
	fx.e.Log.ForceAll()
	fx2 := fx.crashRestart(t, nil)
	shape := fx2.mustVerify(t)
	if shape.Records != 150 {
		t.Fatalf("after recovery: records = %d, want 150", shape.Records)
	}
	for i := 0; i < 150; i++ {
		v, ok, err := fx2.tree.Search(nil, keys.Uint64(uint64(i)))
		if err != nil || !ok || string(v) != string(val(i)) {
			t.Fatalf("after recovery: key %d ok=%v v=%q err=%v", i, ok, v, err)
		}
	}
}

func TestTxnCommitAbort(t *testing.T) {
	for _, pageOriented := range []bool{false, true} {
		t.Run(fmt.Sprintf("pageOriented=%v", pageOriented), func(t *testing.T) {
			fx := newFixture(t, engine.Options{PageOriented: pageOriented}, defaultTestOpts())
			// Committed transaction.
			tx := fx.e.TM.Begin()
			for i := 0; i < 30; i++ {
				if err := fx.tree.Insert(tx, keys.Uint64(uint64(i)), val(i)); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			// Aborted transaction: inserts + deletes + updates, all undone.
			tx2 := fx.e.TM.Begin()
			for i := 30; i < 60; i++ {
				if err := fx.tree.Insert(tx2, keys.Uint64(uint64(i)), val(i)); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			if err := fx.tree.Delete(tx2, keys.Uint64(5)); err != nil {
				t.Fatal(err)
			}
			if err := fx.tree.Update(tx2, keys.Uint64(6), []byte("doomed")); err != nil {
				t.Fatal(err)
			}
			if err := tx2.Abort(); err != nil {
				t.Fatal(err)
			}
			fx.tree.DrainCompletions()
			shape := fx.mustVerify(t)
			if shape.Records != 30 {
				t.Fatalf("records = %d, want 30", shape.Records)
			}
			for i := 0; i < 30; i++ {
				v, ok, _ := fx.tree.Search(nil, keys.Uint64(uint64(i)))
				if !ok || string(v) != string(val(i)) {
					t.Fatalf("key %d: ok=%v v=%q", i, ok, v)
				}
			}
		})
	}
}

// TestDuplicateCrossingSchedulesNothing: PostsScheduled counts postings the
// completion queue accepted. A split's posting is queued once; every later
// crossing of the unposted sibling finds it queued and adds nothing, so
// PostsPerformed / PostsScheduled is postings performed per posting
// scheduled, as in tsb and spatial.
func TestDuplicateCrossingSchedulesNothing(t *testing.T) {
	fx := newFixture(t, engine.Options{}, defaultTestOpts())
	st := &fx.tree.Stats
	k := uint64(0)
	insert := func() {
		t.Helper()
		if err := fx.tree.Insert(nil, keys.Uint64(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
		k++
	}
	// A root over leaves, every posting done.
	for st.RootGrowths.Load() == 0 {
		insert()
	}
	fx.tree.DrainCompletions()
	// One more leaf split, its posting left queued.
	splits, scheduled := st.LeafSplits.Load(), st.PostsScheduled.Load()
	for st.LeafSplits.Load() == splits {
		insert()
	}
	if got := st.PostsScheduled.Load() - scheduled; got != 1 {
		t.Fatalf("a leaf split scheduled %d postings, want 1", got)
	}
	// Reads of the last key descend to the split leaf and cross to its
	// unposted sibling; the posting they would schedule is already queued.
	crossings := st.SideTraversals.Load()
	for i := 0; i < 5; i++ {
		if _, found, err := fx.tree.Search(nil, keys.Uint64(k-1)); err != nil || !found {
			t.Fatalf("search: found=%v, %v", found, err)
		}
	}
	if st.SideTraversals.Load() == crossings {
		t.Fatal("no search crossed the unposted sibling")
	}
	if got := st.PostsScheduled.Load() - scheduled; got != 1 {
		t.Fatalf("%d crossings of a queued posting's sibling left %d postings scheduled, want 1",
			st.SideTraversals.Load()-crossings, got)
	}
	performed := st.PostsPerformed.Load()
	fx.tree.DrainCompletions()
	if got := st.PostsPerformed.Load() - performed; got != 1 {
		t.Fatalf("the queued posting was performed %d times, want once", got)
	}
}

// TestSingleKeyWriteAllocs: a single-key Insert, Update or Delete with no
// transaction holds its key and value in its leafWrite (oneWrite), so what
// it allocates is that leafWrite, the atomic action's transaction and its
// log payload. An update of a value to one of its length allocates 3
// objects, an insert and the delete of its key 6 together.
func TestSingleKeyWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; alloc counts are meaningless")
	}
	fx := newFixture(t, engine.Options{}, Options{})
	for i := 0; i < 500; i++ {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	fx.tree.DrainCompletions()
	key, other, v := keys.Uint64(77), keys.Uint64(1_000_000), val(78)
	if a := testing.AllocsPerRun(200, func() {
		if err := fx.tree.Update(nil, key, v); err != nil {
			t.Fatal(err)
		}
	}); a != 3 {
		t.Errorf("an update allocates %v objects, want 3", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		if err := fx.tree.Insert(nil, other, v); err != nil {
			t.Fatal(err)
		}
		if err := fx.tree.Delete(nil, other); err != nil {
			t.Fatal(err)
		}
	}); a != 6 {
		t.Errorf("an insert and a delete allocate %v objects, want 6", a)
	}
}

// TestScanAllocsPerLeaf: a scan copies each leaf's records in the range into
// one buffer, so a 100-record scan allocates in proportion to the leaves it
// visits, not the records it delivers — and what it delivers stays a copy
// (TestNoResultAliasesANode).
func TestScanAllocsPerLeaf(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; alloc counts are meaningless")
	}
	fx := newFixture(t, engine.Options{}, Options{LeafCapacity: 16, SyncCompletion: true})
	for i := 0; i < 1000; i++ {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	fx.tree.DrainCompletions()
	lo, hi := keys.Uint64(400), keys.Uint64(500)
	nodes, _ := nodeRecords(t, fx.tree)
	leaves := 0
	for _, n := range nodes {
		if n.Level == 0 && !n.Dead && keys.Compare(n.Low, hi) < 0 &&
			(n.High.Unbounded || keys.Compare(n.High.Key, lo) > 0) {
			leaves++
		}
	}
	got := 0
	scan := func() {
		got = 0
		if err := fx.tree.RangeScan(nil, lo, hi, func(keys.Key, []byte) bool { got++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	a := testing.AllocsPerRun(100, scan)
	if got != 100 {
		t.Fatalf("the scan delivered %d records, want 100", got)
	}
	t.Logf("a 100-record scan over %d leaves allocates %.1f objects", leaves, a)
	if a > float64(4*leaves+4) {
		t.Fatalf("a 100-record scan over %d leaves allocates %.1f objects, want at most %d", leaves, a, 4*leaves+4)
	}
}
