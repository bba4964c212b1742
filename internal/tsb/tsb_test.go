package tsb

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/keys"
	"repro/internal/pitree/pitreetest"
	"repro/internal/txn"
	"repro/internal/wal"
)

const testStoreID = 9

type fixture struct {
	e    *engine.Engine
	b    *Binding
	tree *Tree
}

func smallOpts() Options {
	return Options{
		DataCapacity:   8,
		IndexCapacity:  8,
		SyncCompletion: true,
	}
}

func newFixture(t testing.TB, opts Options) *fixture {
	t.Helper()
	return newEngineFixture(t, engine.Options{}, opts)
}

// newEngineFixture is newFixture over an engine with eopts.
func newEngineFixture(t testing.TB, eopts engine.Options, opts Options) *fixture {
	t.Helper()
	e := engine.New(eopts)
	b := Register(e.Reg)
	st := e.AddStore(testStoreID, Codec{})
	tree, err := Create(st, e.TM, e.Locks, b, "versions", opts)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	t.Cleanup(tree.Close)
	return &fixture{e: e, b: b, tree: tree}
}

// pins rotates snapshots over a churn. Each rotate takes a snapshot and
// releases all but the newest two, so the versions written since the older
// of those stay above the visibility horizon: a full node holds versions a
// reader may need and time-splits rather than prunes, and GC retires and
// frees the history that falls below the older pin.
type pins struct {
	e     *engine.Engine
	snaps []*txn.Snapshot
}

func (p *pins) rotate() {
	p.snaps = append(p.snaps, p.e.BeginSnapshot())
	for len(p.snaps) > 2 {
		p.snaps[0].Release()
		p.snaps = p.snaps[1:]
	}
}

func (p *pins) release() {
	for _, s := range p.snaps {
		s.Release()
	}
	p.snaps = nil
}

func (fx *fixture) crashRestart(t testing.TB) *fixture {
	t.Helper()
	return fx.restartFrom(t, fx.e.Crash(nil))
}

// restartFrom restarts over a crash image of fx's engine.
func (fx *fixture) restartFrom(t testing.TB, img *engine.CrashImage) *fixture {
	t.Helper()
	fx.tree.Close()
	return fx.reopen(t, img)
}

// reopen restarts over a crash image of fx's engine, whose tree is closed.
func (fx *fixture) reopen(t testing.TB, img *engine.CrashImage) *fixture {
	t.Helper()
	e2 := engine.Restarted(img, fx.e.Opts)
	b2 := Register(e2.Reg)
	st2 := e2.AddStore(testStoreID, Codec{})
	p, err := e2.AnalyzeAndRedo()
	if err != nil {
		t.Fatalf("analyze+redo: %v", err)
	}
	tree2, err := Open(st2, e2.TM, e2.Locks, b2, "versions", fx.tree.opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	pitreetest.FinishAudited(t, e2, func() error { return e2.FinishRecovery(p) })
	t.Cleanup(tree2.Close)
	return &fixture{e: e2, b: b2, tree: tree2}
}

func (fx *fixture) mustVerify(t testing.TB) Shape {
	t.Helper()
	fx.tree.DrainCompletions()
	shape, err := fx.tree.Verify()
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	return shape
}

// oracle tracks versions per key for as-of comparison.
type oracle struct {
	versions map[string][]ovsn // sorted by start
}

type ovsn struct {
	start   uint64
	val     string
	deleted bool
}

func newOracle() *oracle { return &oracle{versions: make(map[string][]ovsn)} }

func (o *oracle) put(k string, start uint64, val string, deleted bool) {
	o.versions[k] = append(o.versions[k], ovsn{start, val, deleted})
}

func (o *oracle) asOf(k string, t uint64) (string, bool) {
	vs := o.versions[k]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].start > t })
	if i == 0 {
		return "", false
	}
	v := vs[i-1]
	if v.deleted {
		return "", false
	}
	return v.val, true
}

func TestPutGetBasics(t *testing.T) {
	fx := newFixture(t, smallOpts())
	for i := 0; i < 50; i++ {
		if err := fx.tree.Put(nil, keys.Uint64(uint64(i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < 50; i++ {
		v, ok, err := fx.tree.Get(nil, keys.Uint64(uint64(i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %d: %q %v %v", i, v, ok, err)
		}
	}
	if _, ok, _ := fx.tree.Get(nil, keys.Uint64(999)); ok {
		t.Fatal("found missing key")
	}
	fx.mustVerify(t)
}

func TestVersionsAndTombstones(t *testing.T) {
	fx := newFixture(t, smallOpts())
	k := keys.Uint64(7)
	if err := fx.tree.Put(nil, k, []byte("one")); err != nil {
		t.Fatal(err)
	}
	t1 := fx.tree.Now()
	if err := fx.tree.Put(nil, k, []byte("two")); err != nil {
		t.Fatal(err)
	}
	t2 := fx.tree.Now()
	if err := fx.tree.Delete(nil, k); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := fx.tree.Get(nil, k); ok {
		t.Fatal("deleted key still current")
	}
	if v, ok, _ := fx.tree.GetAsOf(nil, k, t1); !ok || string(v) != "one" {
		t.Fatalf("as of t1: %q %v", v, ok)
	}
	if v, ok, _ := fx.tree.GetAsOf(nil, k, t2); !ok || string(v) != "two" {
		t.Fatalf("as of t2: %q %v", v, ok)
	}
	if _, ok, _ := fx.tree.GetAsOf(nil, k, 0); ok {
		t.Fatal("key visible before it existed")
	}
}

func TestAsOfOracleUnderSplits(t *testing.T) {
	fx := newFixture(t, smallOpts())
	orc := newOracle()
	rng := rand.New(rand.NewSource(11))
	const nKeys = 40
	var samples []uint64

	for round := 0; round < 30; round++ {
		for j := 0; j < 10; j++ {
			ki := rng.Intn(nKeys)
			k := keys.Uint64(uint64(ki))
			if rng.Intn(6) == 0 {
				if err := fx.tree.Delete(nil, k); err != nil {
					t.Fatal(err)
				}
				orc.put(string(k), fx.tree.Now(), "", true)
			} else {
				val := fmt.Sprintf("r%d-%d", round, j)
				if err := fx.tree.Put(nil, k, []byte(val)); err != nil {
					t.Fatal(err)
				}
				orc.put(string(k), fx.tree.Now(), val, false)
			}
		}
		samples = append(samples, fx.tree.Now())
	}
	fx.tree.DrainCompletions()
	shape := fx.mustVerify(t)
	if fx.tree.Stats.TimeSplits.Load() == 0 || fx.tree.Stats.KeySplits.Load() == 0 {
		t.Fatalf("want both split kinds: time=%d key=%d",
			fx.tree.Stats.TimeSplits.Load(), fx.tree.Stats.KeySplits.Load())
	}
	if shape.HistoryNodes == 0 {
		t.Fatal("no history nodes created")
	}

	// Every sampled historical time must agree with the oracle.
	for _, ts := range samples {
		for ki := 0; ki < nKeys; ki++ {
			k := keys.Uint64(uint64(ki))
			want, wantOK := orc.asOf(string(k), ts)
			got, ok, err := fx.tree.GetAsOf(nil, k, ts)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wantOK || (ok && string(got) != want) {
				t.Fatalf("asOf(%d, t=%d): got %q/%v want %q/%v", ki, ts, got, ok, want, wantOK)
			}
		}
	}
}

func TestScanAsOf(t *testing.T) {
	fx := newFixture(t, smallOpts())
	for i := 0; i < 30; i++ {
		if err := fx.tree.Put(nil, keys.Uint64(uint64(i)), []byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	t1 := fx.tree.Now()
	// Overwrite evens, delete multiples of 3.
	for i := 0; i < 30; i += 2 {
		if err := fx.tree.Put(nil, keys.Uint64(uint64(i)), []byte(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i += 3 {
		if err := fx.tree.Delete(nil, keys.Uint64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Scan at t1: all 30 with "a" values.
	n := 0
	err := fx.tree.ScanAsOf(t1, nil, nil, func(k keys.Key, v []byte) bool {
		if string(v) != fmt.Sprintf("a%d", keys.ToUint64(k)) {
			t.Fatalf("t1 scan got %q for %d", v, keys.ToUint64(k))
		}
		n++
		return true
	})
	if err != nil || n != 30 {
		t.Fatalf("t1 scan: n=%d err=%v", n, err)
	}
	// Scan now: multiples of 3 gone, evens updated.
	now := fx.tree.Now()
	var got []uint64
	err = fx.tree.ScanAsOf(now, nil, nil, func(k keys.Key, v []byte) bool {
		ki := keys.ToUint64(k)
		got = append(got, ki)
		want := fmt.Sprintf("a%d", ki)
		if ki%2 == 0 {
			want = fmt.Sprintf("b%d", ki)
		}
		if string(v) != want {
			t.Fatalf("now scan got %q for %d, want %q", v, ki, want)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ki := range got {
		if ki%3 == 0 {
			t.Fatalf("deleted key %d in scan", ki)
		}
	}
	if len(got) != 20 {
		t.Fatalf("now scan: %d keys, want 20", len(got))
	}
}

func TestCrashRecoveryVersions(t *testing.T) {
	fx := newFixture(t, smallOpts())
	orc := newOracle()
	for i := 0; i < 60; i++ {
		k := keys.Uint64(uint64(i % 20))
		val := fmt.Sprintf("v%d", i)
		if err := fx.tree.Put(nil, k, []byte(val)); err != nil {
			t.Fatal(err)
		}
		orc.put(string(k), fx.tree.Now(), val, false)
	}
	mid := fx.tree.Now()
	fx.tree.DrainCompletions()
	fx.e.Log.ForceAll()
	fx2 := fx.crashRestart(t)
	fx2.mustVerify(t)
	for ki := 0; ki < 20; ki++ {
		k := keys.Uint64(uint64(ki))
		want, wantOK := orc.asOf(string(k), mid)
		got, ok, err := fx2.tree.GetAsOf(nil, k, mid)
		if err != nil || ok != wantOK || (ok && string(got) != want) {
			t.Fatalf("after restart asOf(%d): %q/%v want %q/%v err=%v", ki, got, ok, want, wantOK, err)
		}
	}
	// New writes must get strictly newer timestamps than any old version.
	if err := fx2.tree.Put(nil, keys.Uint64(0), []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := fx2.tree.Get(nil, keys.Uint64(0)); !ok || string(v) != "fresh" {
		t.Fatalf("fresh write lost: %q %v", v, ok)
	}
	if v, ok, _ := fx2.tree.GetAsOf(nil, keys.Uint64(0), mid); !ok || string(v) == "fresh" {
		t.Fatalf("fresh write leaked into the past: %q %v", v, ok)
	}
}

func TestAbortUndoesVersions(t *testing.T) {
	fx := newFixture(t, smallOpts())
	if err := fx.tree.Put(nil, keys.Uint64(1), []byte("keep")); err != nil {
		t.Fatal(err)
	}
	tx := fx.e.TM.Begin()
	for i := 0; i < 20; i++ {
		if err := fx.tree.Put(tx, keys.Uint64(uint64(i)), []byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	fx.tree.DrainCompletions()
	if _, err := fx.tree.Verify(); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := fx.tree.Get(nil, keys.Uint64(1)); !ok || string(v) != "keep" {
		t.Fatalf("pre-existing version: %q %v", v, ok)
	}
	for i := 0; i < 20; i++ {
		if i == 1 {
			continue
		}
		if _, ok, _ := fx.tree.Get(nil, keys.Uint64(uint64(i))); ok {
			t.Fatalf("aborted version of key %d visible", i)
		}
	}
}

func TestAbortAcrossTimeSplit(t *testing.T) {
	// A version written by an open transaction, then copied by a time
	// split, must disappear from every copy when the transaction aborts.
	fx := newFixture(t, smallOpts())
	tx := fx.e.TM.Begin()
	if err := fx.tree.Put(tx, keys.Uint64(5), []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	// Force time splits by filling the same node with other keys'
	// versions (outside the transaction).
	for i := 0; i < 40; i++ {
		if err := fx.tree.Put(nil, keys.Uint64(uint64(i%4)), []byte(fmt.Sprintf("x%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if fx.tree.Stats.TimeSplits.Load() == 0 {
		t.Skip("workload produced no time split") // policy changed; keep test honest
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	fx.tree.DrainCompletions()
	if _, err := fx.tree.Verify(); err != nil {
		t.Fatal(err)
	}
	// The doomed version must be invisible at EVERY time.
	for ts := uint64(0); ts <= fx.tree.Now(); ts++ {
		if v, ok, _ := fx.tree.GetAsOf(nil, keys.Uint64(5), ts); ok && string(v) == "doomed" {
			t.Fatalf("aborted version visible at t=%d", ts)
		}
	}
}

func TestConcurrentPuts(t *testing.T) {
	opts := smallOpts()
	opts.SyncCompletion = false
	fx := newFixture(t, opts)
	const workers = 6
	const perWorker = 150
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := keys.Uint64(uint64(w*1000 + i%50)) // overwrites within worker
				if err := fx.tree.Put(nil, k, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- fmt.Errorf("worker %d put %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	shape := fx.mustVerify(t)
	if shape.CurrentVersions == 0 {
		t.Fatal("no versions")
	}
	for w := 0; w < workers; w++ {
		for ki := 0; ki < 50; ki++ {
			k := keys.Uint64(uint64(w*1000 + ki))
			if _, ok, err := fx.tree.Get(nil, k); err != nil || !ok {
				t.Fatalf("key %d-%d missing: %v", w, ki, err)
			}
		}
	}
}

func TestClippingUnderIndexSplits(t *testing.T) {
	// Small index capacity + alternating wide history creation forces
	// level-1 splits whose boundaries cross historical rects: terms get
	// clipped into both parents, and lookups must still be exact.
	opts := smallOpts()
	opts.IndexCapacity = 4
	opts.DataCapacity = 6
	fx := newFixture(t, opts)
	orc := newOracle()
	rng := rand.New(rand.NewSource(3))
	var samples []uint64
	for i := 0; i < 600; i++ {
		ki := rng.Intn(60)
		k := keys.Uint64(uint64(ki))
		val := fmt.Sprintf("v%d", i)
		if err := fx.tree.Put(nil, k, []byte(val)); err != nil {
			t.Fatal(err)
		}
		orc.put(string(k), fx.tree.Now(), val, false)
		if i%50 == 0 {
			samples = append(samples, fx.tree.Now())
			fx.tree.DrainCompletions()
		}
	}
	shape := fx.mustVerify(t)
	if shape.Height < 3 {
		t.Fatalf("height %d; want a multi-level index", shape.Height)
	}
	if fx.tree.Stats.IndexSplits.Load() == 0 {
		t.Fatal("no index splits")
	}
	for _, ts := range samples {
		for ki := 0; ki < 60; ki++ {
			k := keys.Uint64(uint64(ki))
			want, wantOK := orc.asOf(string(k), ts)
			got, ok, err := fx.tree.GetAsOf(nil, k, ts)
			if err != nil || ok != wantOK || (ok && string(got) != want) {
				t.Fatalf("asOf(%d,%d): %q/%v want %q/%v err=%v", ki, ts, got, ok, want, wantOK, err)
			}
		}
	}
}

// TestRediscoveredKeySiblingTermTimeBound: a key split's posting is lost
// (as a crash loses the queue), the LEFT half then time-splits, and only
// after that does a side traversal rediscover the right half and post its
// term. The task is built from the left half, whose time bound is by now
// later than the right half's own; the term must describe the right half.
func TestRediscoveredKeySiblingTermTimeBound(t *testing.T) {
	opts := smallOpts()
	opts.NoCompletion = true
	fx := newFixture(t, opts)
	put := func(k uint64, v string) {
		t.Helper()
		tx := fx.e.TM.Begin()
		if err := fx.tree.Put(tx, keys.Uint64(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	k := uint64(0)
	for ; fx.tree.Stats.KeySplits.Load() == 0; k++ {
		put(k, "v")
	}
	for i := 0; fx.tree.Stats.TimeSplits.Load() == 0; i++ {
		put(0, fmt.Sprintf("v%d", i)) // key 0 lives in the left half
	}
	if ks, ts := fx.tree.Stats.KeySplits.Load(), fx.tree.Stats.TimeSplits.Load(); ks != 1 || ts != 1 {
		t.Fatalf("%d key splits and %d time splits, want one of each", ks, ts)
	}

	fx.tree.opts.NoCompletion = false
	fx2 := fx.crashRestart(t)
	if _, ok, err := fx2.tree.Get(nil, keys.Uint64(k-1)); err != nil || !ok {
		t.Fatalf("key %d in the unposted right half: ok=%v err=%v", k-1, ok, err)
	}
	fx2.mustVerify(t)
	if fx2.tree.Stats.PostsPerformed.Load() == 0 {
		t.Fatal("the side traversal posted nothing")
	}
}

// TestPostedTermChildLatchedToCommit: a current node's index term is built
// from the node's rectangle, which the node's next split changes. The
// posting must therefore keep the child latched from reading the rectangle
// until its action's commit record is in the log: a splitter queued on the
// child's latch must, the moment it gets the latch, find that record (the
// commit is stalled just before its record is appended, so a latch released
// first would show a log without it).
func TestPostedTermChildLatchedToCommit(t *testing.T) {
	fx := newFixture(t, smallOpts())
	for k := uint64(0); fx.tree.Stats.KeySplits.Load() == 0; k++ {
		if err := fx.tree.Put(nil, keys.Uint64(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	inj := fault.New(1)
	fx.e.TM.SetInjector(inj)
	inj.Arm(txn.FPAACommit, fault.Spec{Delay: 50 * time.Millisecond})
	from := fx.e.Log.EndLSN()
	posting := func() (term, commit *wal.Record) {
		fx.e.Log.FullImage().Scan(from, func(r wal.Record) bool {
			switch {
			case r.Kind == KindPostTerm:
				term = &r
			case term != nil && r.Type == wal.RecCommit && r.TxnID == term.TxnID:
				commit = &r
			}
			return true
		})
		return term, commit
	}

	drained := make(chan struct{})
	go func() {
		fx.tree.DrainCompletions() // the key sibling's posting
		close(drained)
	}()
	var term *wal.Record
	for deadline := time.Now().Add(5 * time.Second); term == nil; term, _ = posting() {
		if time.Now().After(deadline) {
			t.Fatal("the posting never logged its term")
		}
		runtime.Gosched()
	}
	e, err := decRecord(1, term.Payload)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fx.tree.store.Pool.Fetch(e.Child)
	if err != nil {
		t.Fatal(err)
	}
	f.Latch.AcquireX() // as the child's next split would
	_, commit := posting()
	f.Latch.ReleaseX()
	fx.tree.store.Pool.Unpin(f)
	<-drained
	if commit == nil {
		t.Fatal("the child's latch was free with its term logged and the posting's commit record not yet in the log")
	}
	fx.mustVerify(t)
}
