package tsb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/keys"
)

// TestSnapshotBasicVisibility: committed data is visible, missing keys are
// not, tombstones read as not-found.
func TestSnapshotBasicVisibility(t *testing.T) {
	fx := newFixture(t, smallOpts())
	for i := 0; i < 30; i++ {
		if err := fx.tree.Put(nil, keys.Uint64(uint64(i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := fx.tree.Delete(nil, keys.Uint64(7)); err != nil {
		t.Fatalf("delete: %v", err)
	}
	snap := fx.e.BeginSnapshot()
	defer snap.Release()
	for i := 0; i < 30; i++ {
		v, ok, err := fx.tree.SnapshotGet(snap, keys.Uint64(uint64(i)), nil)
		if err != nil {
			t.Fatalf("snapshot get %d: %v", i, err)
		}
		if i == 7 {
			if ok {
				t.Fatalf("key 7: tombstone visible as %q", v)
			}
			continue
		}
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d: got %q ok=%v", i, v, ok)
		}
	}
	if _, ok, _ := fx.tree.SnapshotGet(snap, keys.Uint64(999), nil); ok {
		t.Fatal("found missing key")
	}
}

// TestSnapshotIgnoresRacingCommitter: a writer in flight at capture stays
// invisible even after it commits — including when its commit lands at
// the very next clock tick after the capture.
func TestSnapshotIgnoresRacingCommitter(t *testing.T) {
	fx := newFixture(t, smallOpts())
	k := keys.Uint64(1)
	if err := fx.tree.Put(nil, k, []byte("old")); err != nil {
		t.Fatalf("put: %v", err)
	}

	tx := fx.e.TM.Begin()
	if err := fx.tree.Put(tx, k, []byte("new")); err != nil {
		t.Fatalf("txn put: %v", err)
	}

	snap := fx.e.BeginSnapshot() // tx is in flight here
	defer snap.Release()

	if err := tx.Commit(); err != nil { // commits one tick after capture
		t.Fatalf("commit: %v", err)
	}

	v, ok, err := fx.tree.SnapshotGet(snap, k, nil)
	if err != nil || !ok || string(v) != "old" {
		t.Fatalf("snapshot saw racing committer: %q ok=%v err=%v", v, ok, err)
	}
	// Re-read: repeatable.
	v, ok, _ = fx.tree.SnapshotGet(snap, k, nil)
	if !ok || string(v) != "old" {
		t.Fatalf("snapshot not repeatable: %q ok=%v", v, ok)
	}
	// A fresh snapshot sees the commit.
	snap2 := fx.e.BeginSnapshot()
	defer snap2.Release()
	v, ok, _ = fx.tree.SnapshotGet(snap2, k, nil)
	if !ok || string(v) != "new" {
		t.Fatalf("fresh snapshot missed commit: %q ok=%v", v, ok)
	}
}

// TestSnapshotOwnWrites: a transaction reading through its own snapshot
// sees its uncommitted writes; other snapshots do not.
func TestSnapshotOwnWrites(t *testing.T) {
	fx := newFixture(t, smallOpts())
	k := keys.Uint64(42)
	if err := fx.tree.Put(nil, k, []byte("base")); err != nil {
		t.Fatalf("put: %v", err)
	}
	tx := fx.e.TM.Begin()
	if err := fx.tree.Put(tx, k, []byte("mine")); err != nil {
		t.Fatalf("txn put: %v", err)
	}
	own := fx.e.TM.BeginSnapshot(tx)
	defer own.Release()
	other := fx.e.BeginSnapshot()
	defer other.Release()

	if v, ok, _ := fx.tree.SnapshotGet(own, k, nil); !ok || string(v) != "mine" {
		t.Fatalf("own write invisible: %q ok=%v", v, ok)
	}
	if v, ok, _ := fx.tree.SnapshotGet(other, k, nil); !ok || string(v) != "base" {
		t.Fatalf("other snapshot saw uncommitted write: %q ok=%v", v, ok)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

// TestSnapshotRepeatableUnderChurn: while writers overwrite every key and
// force splits, each snapshot's reads stay frozen at its capture.
func TestSnapshotRepeatableUnderChurn(t *testing.T) {
	fx := newFixture(t, smallOpts())
	const n = 16
	writeRound := func(round int) {
		tx := fx.e.TM.Begin()
		for i := 0; i < n; i++ {
			if err := fx.tree.Put(tx, keys.Uint64(uint64(i)), []byte(fmt.Sprintf("r%d", round))); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	writeRound(0)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 1; !stop.Load(); round++ {
			writeRound(round)
		}
	}()

	for iter := 0; iter < 40; iter++ {
		snap := fx.e.BeginSnapshot()
		var want string
		for i := 0; i < n; i++ {
			v, ok, err := fx.tree.SnapshotGet(snap, keys.Uint64(uint64(i)), nil)
			if err != nil || !ok {
				t.Fatalf("iter %d key %d: ok=%v err=%v", iter, i, ok, err)
			}
			if i == 0 {
				want = string(v)
			} else if string(v) != want {
				t.Fatalf("iter %d: torn snapshot: key %d = %q, key 0 = %q", iter, i, v, want)
			}
		}
		// Repeat one read; it must not have moved.
		if v, ok, _ := fx.tree.SnapshotGet(snap, keys.Uint64(0), nil); !ok || string(v) != want {
			t.Fatalf("iter %d: repeat read moved: %q vs %q", iter, v, want)
		}
		snap.Release()
	}
	stop.Store(true)
	wg.Wait()
	fx.mustVerify(t)
}

// TestSnapshotScanMatchesScanAsOf: on a quiesced tree a snapshot scan and
// an as-of scan at the snapshot's timestamp return identical contents.
func TestSnapshotScanMatchesScanAsOf(t *testing.T) {
	fx := newFixture(t, smallOpts())
	for round := 0; round < 6; round++ {
		for i := 0; i < 40; i++ {
			if err := fx.tree.Put(nil, keys.Uint64(uint64(i*3)), []byte(fmt.Sprintf("r%d-%d", round, i))); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
	}
	if err := fx.tree.Delete(nil, keys.Uint64(9)); err != nil {
		t.Fatalf("delete: %v", err)
	}
	fx.tree.DrainCompletions()

	snap := fx.e.BeginSnapshot()
	defer snap.Release()
	collect := func(scan func(fn func(k keys.Key, v []byte) bool) error) map[string]string {
		out := make(map[string]string)
		if err := scan(func(k keys.Key, v []byte) bool {
			out[string(k)] = string(v)
			return true
		}); err != nil {
			t.Fatalf("scan: %v", err)
		}
		return out
	}
	bySnap := collect(func(fn func(keys.Key, []byte) bool) error {
		return fx.tree.SnapshotScan(snap, nil, nil, fn)
	})
	byAsOf := collect(func(fn func(keys.Key, []byte) bool) error {
		return fx.tree.ScanAsOf(snap.TS(), nil, nil, fn)
	})
	if len(bySnap) != len(byAsOf) {
		t.Fatalf("size mismatch: snapshot %d vs as-of %d", len(bySnap), len(byAsOf))
	}
	for k, v := range byAsOf {
		if bySnap[k] != v {
			t.Fatalf("key %x: snapshot %q vs as-of %q", k, bySnap[k], v)
		}
	}
}

// TestGCRetiresHistory: with nothing pinning the horizon, RunGC retires
// the history chains a version churn built, and current reads survive.
func TestGCRetiresHistory(t *testing.T) {
	fx := newFixture(t, smallOpts())
	const n = 8
	for round := 0; round < 60; round++ {
		for i := 0; i < n; i++ {
			if err := fx.tree.Put(nil, keys.Uint64(uint64(i)), []byte(fmt.Sprintf("r%d", round))); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
	}
	fx.tree.DrainCompletions()
	if fx.tree.Stats.TimeSplits.Load() == 0 {
		t.Fatal("churn produced no time splits; GC has nothing to test")
	}
	retired, err := fx.tree.RunGC()
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if retired == 0 {
		t.Fatal("gc retired nothing despite an open horizon")
	}
	if got := fx.tree.Stats.GCRetiredNodes.Load(); got != int64(retired) {
		t.Fatalf("stat mismatch: %d vs %d", got, retired)
	}
	if fx.tree.Stats.GCReclaimedVersions.Load() == 0 {
		t.Fatal("retired nodes reclaimed no versions")
	}
	fx.mustVerify(t)
	for i := 0; i < n; i++ {
		v, ok, err := fx.tree.Get(nil, keys.Uint64(uint64(i)))
		if err != nil || !ok || string(v) != "r59" {
			t.Fatalf("current read after gc: key %d %q ok=%v err=%v", i, v, ok, err)
		}
	}
	// A second pass over the already-collected tree retires at most the
	// stub nodes the first pass left linked, then goes quiet.
	again, err := fx.tree.RunGC()
	if err != nil {
		t.Fatalf("second gc: %v", err)
	}
	if again > retired {
		t.Fatalf("second pass retired more (%d) than first (%d)", again, retired)
	}
	fx.mustVerify(t)
}

// TestGCPinnedByLongSnapshot: a long-running snapshot pins every version
// it can see; GC must leave its reads intact, and releasing it opens the
// horizon.
func TestGCPinnedByLongSnapshot(t *testing.T) {
	fx := newFixture(t, smallOpts())
	const n = 8
	write := func(round int) {
		for i := 0; i < n; i++ {
			if err := fx.tree.Put(nil, keys.Uint64(uint64(i)), []byte(fmt.Sprintf("r%d", round))); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
	}
	write(0)
	snap := fx.e.BeginSnapshot() // pins version time at round 0
	for round := 1; round < 60; round++ {
		write(round)
	}
	fx.tree.DrainCompletions()

	if _, err := fx.tree.RunGC(); err != nil {
		t.Fatalf("gc: %v", err)
	}
	fx.mustVerify(t)
	for i := 0; i < n; i++ {
		v, ok, err := fx.tree.SnapshotGet(snap, keys.Uint64(uint64(i)), nil)
		if err != nil || !ok || string(v) != "r0" {
			t.Fatalf("pinned read lost: key %d %q ok=%v err=%v", i, v, ok, err)
		}
	}

	snap.Release()
	retired, err := fx.tree.RunGC()
	if err != nil {
		t.Fatalf("gc after release: %v", err)
	}
	if retired == 0 {
		t.Fatal("releasing the snapshot did not open the horizon")
	}
	fx.mustVerify(t)
	for i := 0; i < n; i++ {
		v, ok, err := fx.tree.Get(nil, keys.Uint64(uint64(i)))
		if err != nil || !ok || string(v) != "r59" {
			t.Fatalf("current read after gc: key %d %q ok=%v err=%v", i, v, ok, err)
		}
	}
}

// TestBackgroundGC: with Options.GC on, committed time splits schedule
// chain sweeps through the completion machinery — no RunGC call needed.
// Snapshots pinned across the first 60 rounds keep the versions a time
// split moves to history visible, so full nodes split rather than prune.
func TestBackgroundGC(t *testing.T) {
	opts := smallOpts()
	opts.GC = true
	fx := newFixture(t, opts)
	const n = 8
	p := pins{e: fx.e}
	for round := 0; round < 80; round++ {
		switch {
		case round < 60 && round%10 == 0:
			p.rotate()
		case round == 60:
			p.release()
		}
		for i := 0; i < n; i++ {
			if err := fx.tree.Put(nil, keys.Uint64(uint64(i)), []byte(fmt.Sprintf("r%d", round))); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
	}
	fx.tree.DrainCompletions()
	if fx.tree.Stats.GCRetiredNodes.Load() == 0 {
		t.Fatal("background GC retired nothing")
	}
	fx.mustVerify(t)
	for i := 0; i < n; i++ {
		v, ok, err := fx.tree.Get(nil, keys.Uint64(uint64(i)))
		if err != nil || !ok || string(v) != "r79" {
			t.Fatalf("current read: key %d %q ok=%v err=%v", i, v, ok, err)
		}
	}
}

// TestClockSeedSurvivesCrash is the regression test for the Open clock
// bug: the tree used to reseed its version clock from the log's end LSN —
// a byte offset, orders of magnitude above the version ticks — so
// post-restart timestamps jumped and as-of semantics warped. The clock
// must come back at most where it was (commit-stamp high water) and new
// versions must land strictly above every pre-crash one.
func TestClockSeedSurvivesCrash(t *testing.T) {
	fx := newFixture(t, smallOpts())
	pre := fx.e.TM.Begin()
	for i := 0; i < 20; i++ {
		if err := fx.tree.Put(pre, keys.Uint64(uint64(i)), []byte("pre")); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := pre.Commit(); err != nil { // forces the log; the stable prefix holds the stamps
		t.Fatalf("commit: %v", err)
	}
	preNow := fx.tree.Now()

	// Crash with a transaction mid-flight (its versions roll back; its
	// ticks must still never be reissued to a *committed* survivor).
	tx := fx.e.TM.Begin()
	_ = fx.tree.Put(tx, keys.Uint64(3), []byte("loser"))

	fx2 := fx.crashRestart(t)
	postNow := fx2.tree.Now()
	if postNow > preNow {
		t.Fatalf("clock inflated across restart: pre %d post %d", preNow, postNow)
	}
	if postNow == 0 {
		t.Fatal("clock not reseeded at all")
	}
	// New writes go strictly above the reseeded clock; reads as of the
	// restart instant must not see them.
	if err := fx2.tree.Put(nil, keys.Uint64(3), []byte("fresh")); err != nil {
		t.Fatalf("post-restart put: %v", err)
	}
	if v, ok, _ := fx2.tree.GetAsOf(nil, keys.Uint64(3), postNow); !ok || string(v) != "pre" {
		t.Fatalf("fresh write leaked below the reseeded clock: %q ok=%v", v, ok)
	}
	if v, ok, _ := fx2.tree.Get(nil, keys.Uint64(3)); !ok || string(v) != "fresh" {
		t.Fatalf("current read: %q ok=%v", v, ok)
	}
	fx2.mustVerify(t)
}

// TestSnapshotCrossesRestart: snapshots over recovered state read the
// committed prefix (the restart torture runs the full chaos version).
func TestSnapshotCrossesRestart(t *testing.T) {
	fx := newFixture(t, smallOpts())
	for round := 0; round < 5; round++ {
		tx := fx.e.TM.Begin()
		for i := 0; i < 10; i++ {
			if err := fx.tree.Put(tx, keys.Uint64(uint64(i)), []byte(fmt.Sprintf("r%d", round))); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	// Loser in flight at the crash.
	loser := fx.e.TM.Begin()
	_ = fx.tree.Put(loser, keys.Uint64(4), []byte("ghost"))

	fx2 := fx.crashRestart(t)
	snap := fx2.e.BeginSnapshot()
	defer snap.Release()
	for i := 0; i < 10; i++ {
		v, ok, err := fx2.tree.SnapshotGet(snap, keys.Uint64(uint64(i)), nil)
		if err != nil || !ok || string(v) != "r4" {
			t.Fatalf("key %d: %q ok=%v err=%v", i, v, ok, err)
		}
	}
}

// TestSnapshotGetZeroAllocs: the point-read path with a caller buffer
// must not allocate.
func TestSnapshotGetZeroAllocs(t *testing.T) {
	fx := newFixture(t, Options{DataCapacity: 64, IndexCapacity: 64, SyncCompletion: true})
	for i := 0; i < 200; i++ {
		if err := fx.tree.Put(nil, keys.Uint64(uint64(i)), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	fx.tree.DrainCompletions()
	snap := fx.e.BeginSnapshot()
	defer snap.Release()
	key := keys.Uint64(123)
	buf := make([]byte, 0, 64)
	// Warm up pools (opCtx, nav snapshots).
	for i := 0; i < 10; i++ {
		if _, ok, err := fx.tree.SnapshotGet(snap, key, buf); !ok || err != nil {
			t.Fatalf("warmup: ok=%v err=%v", ok, err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		_, ok, err := fx.tree.SnapshotGet(snap, key, buf)
		if !ok || err != nil {
			t.Fatalf("get: ok=%v err=%v", ok, err)
		}
	})
	if avg != 0 {
		t.Fatalf("SnapshotGet allocates: %.2f allocs/op", avg)
	}
}

// TestAbortRepairsCarriedVersion: a time split carries the newest
// below-split version of each key into the new current node — including
// an uncommitted one. When that writer aborts, logical undo must
// re-carry the committed predecessor in the same latched mutation as the
// removal; otherwise the node is left claiming "no older versions exist"
// and a snapshot reader returns not-found for a key with committed
// history. Each transaction writes every key twice so the undo also has
// to converge when the repair candidate is itself doomed.
func TestAbortRepairsCarriedVersion(t *testing.T) {
	fx := newFixture(t, smallOpts())
	const nKeys = 6
	want := make([]string, nKeys)
	for round := 0; round < 12; round++ {
		for i := 0; i < nKeys; i++ {
			want[i] = fmt.Sprintf("c%d-%d", round, i)
			if err := fx.tree.Put(nil, keys.Uint64(uint64(i)), []byte(want[i])); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		// With DataCapacity 8, the twelve uncommitted puts overflow the
		// leaves mid-transaction, so the time splits performed here carry
		// doomed versions.
		tx := fx.e.TM.Begin()
		for _, v := range []string{"doomedA", "doomedB"} {
			for i := 0; i < nKeys; i++ {
				if err := fx.tree.Put(tx, keys.Uint64(uint64(i)), []byte(v)); err != nil {
					t.Fatalf("txn put: %v", err)
				}
			}
		}
		if err := tx.Abort(); err != nil {
			t.Fatalf("abort: %v", err)
		}
		snap := fx.e.BeginSnapshot()
		for i := 0; i < nKeys; i++ {
			v, ok, err := fx.tree.SnapshotGet(snap, keys.Uint64(uint64(i)), nil)
			if err != nil {
				t.Fatalf("round %d key %d: %v", round, i, err)
			}
			if !ok || string(v) != want[i] {
				t.Fatalf("round %d key %d: got %q ok=%v, want %q (carried aborted version not re-carried)", round, i, v, ok, want[i])
			}
		}
		snap.Release()
	}
	fx.mustVerify(t)
}

// TestGCPinnedByMaskedWriter: a snapshot's GC pin must be min(ts, begin
// clocks of its in-flight set), not ts alone. Here a writer is in flight
// at capture (its versions are masked for this snapshot forever) and
// commits right after, leaving the active set. The snapshot still reads
// AROUND the masked versions to their committed predecessors — which sit
// in history nodes whose whole time range precedes the snapshot's read
// timestamp. A horizon of min(snapshot ts, active begins) would retire
// exactly those nodes.
func TestGCPinnedByMaskedWriter(t *testing.T) {
	fx := newFixture(t, smallOpts())
	const nKeys = 6
	for i := 0; i < nKeys; i++ {
		if err := fx.tree.Put(nil, keys.Uint64(uint64(i)), []byte("old")); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	// Writer in flight over every key, twice: with DataCapacity 8 the
	// uncommitted puts overflow the leaves, so time splits BEFORE the
	// capture carry the uncommitted versions forward and leave "old" in
	// history nodes with TimeHigh below the snapshot's read timestamp.
	tx := fx.e.TM.Begin()
	for _, v := range []string{"maskA", "maskB"} {
		for i := 0; i < nKeys; i++ {
			if err := fx.tree.Put(tx, keys.Uint64(uint64(i)), []byte(v)); err != nil {
				t.Fatalf("txn put: %v", err)
			}
		}
	}
	snap := fx.e.BeginSnapshot()        // tx in flight: "mask*" invisible to snap
	if err := tx.Commit(); err != nil { // writer leaves the active set
		t.Fatalf("commit: %v", err)
	}
	// Post-capture churn so GC has fresh splits to look at.
	for round := 0; round < 20; round++ {
		for i := 0; i < nKeys; i++ {
			if err := fx.tree.Put(nil, keys.Uint64(uint64(i)), []byte(fmt.Sprintf("r%d", round))); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
	}
	fx.tree.DrainCompletions()
	if _, err := fx.tree.RunGC(); err != nil {
		t.Fatalf("gc: %v", err)
	}
	fx.mustVerify(t)
	for i := 0; i < nKeys; i++ {
		v, ok, err := fx.tree.SnapshotGet(snap, keys.Uint64(uint64(i)), nil)
		if err != nil || !ok || string(v) != "old" {
			t.Fatalf("key %d: got %q ok=%v err=%v, want \"old\" (GC reclaimed versions a masked-writer snapshot still needed)", i, v, ok, err)
		}
	}
	snap.Release()
	retired, err := fx.tree.RunGC()
	if err != nil {
		t.Fatalf("gc after release: %v", err)
	}
	if retired == 0 {
		t.Fatal("releasing the snapshot did not open the horizon")
	}
	fx.mustVerify(t)
}

// TestSnapshotScanAllocsPerLeaf: a scan copies each leaf's items into one
// buffer, so a 100-key snapshot scan allocates in proportion to the
// current leaves it visits, not the keys it delivers — and what it
// delivers stays a copy (TestNoResultAliasesANode).
func TestSnapshotScanAllocsPerLeaf(t *testing.T) {
	fx := newFixture(t, Options{DataCapacity: 16, IndexCapacity: 64, SyncCompletion: true})
	for i := 0; i < 1000; i++ {
		if err := fx.tree.Put(nil, keys.Uint64(uint64(i)), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	fx.tree.DrainCompletions()
	snap := fx.e.BeginSnapshot()
	defer snap.Release()
	lo, hi := keys.Uint64(400), keys.Uint64(500)
	nodes, _ := nodeRecords(t, fx.tree)
	leaves := 0
	for _, n := range nodes {
		if n.Level == 0 && n.Current() && keys.Compare(n.Rect.KeyLow, hi) < 0 &&
			(n.Rect.KeyHigh.Unbounded || keys.Compare(n.Rect.KeyHigh.Key, lo) > 0) {
			leaves++
		}
	}
	got := 0
	a := testing.AllocsPerRun(100, func() {
		got = 0
		if err := fx.tree.SnapshotScan(snap, lo, hi, func(keys.Key, []byte) bool { got++; return true }); err != nil {
			t.Fatal(err)
		}
	})
	if got != 100 {
		t.Fatalf("the scan delivered %d keys, want 100", got)
	}
	t.Logf("a 100-key snapshot scan over %d leaves allocates %.1f objects", leaves, a)
	if a > float64(4*leaves+4) {
		t.Fatalf("a 100-key snapshot scan over %d leaves allocates %.1f objects, want at most %d", leaves, a, 4*leaves+4)
	}
}
