package tsb

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/txn"
	"repro/internal/wal"
)

// TestPruneKeepsSnapshotReads: a prune drops only versions no reader can
// see. Random puts and tombstones over a few keys at the small-node caps
// run beside snapshots pinned and released at random, and beside one
// writer whose open transaction supersedes a committed version until it
// rolls back after a prune. After every prune each live snapshot's point
// reads and scan, and the as-of reads at and above the visibility horizon,
// answer what an oracle of the versions says, sequence number included.
func TestPruneKeepsSnapshotReads(t *testing.T) {
	opts := smallOpts()
	opts.GC = true
	fx := newFixture(t, opts)
	tree := fx.tree
	rng := rand.New(rand.NewSource(55))
	const nkeys, ops, writerAt = 4, 3000, 1000
	key := func(k int) keys.Key { return keys.Uint64(uint64(k)) }

	committed := newOracle()
	var snaps []*txn.Snapshot
	// The writer's transaction, its one version (of key 0) and the
	// committed value that version supersedes.
	var writer *txn.Txn
	var wStart uint64
	var wVal, pred string
	var prunesAtBegin int64

	// asOf is what GetAsOf answers at time at: the writer's version is
	// there for it while the writer is open.
	asOf := func(k int, at uint64) (string, bool) {
		if writer != nil && k == 0 && at >= wStart {
			return wVal, true
		}
		return committed.asOf(string(key(k)), at)
	}
	check := func(op int) {
		t.Helper()
		for _, s := range snaps {
			want := map[string]string{}
			for k := 0; k < nkeys; k++ {
				// Every writer a snapshot sees committed before it and
				// started at or below its ts; the open writer it never sees.
				wv, wok := committed.asOf(string(key(k)), s.TS())
				if wok {
					want[string(key(k))] = wv
				}
				v, ok, err := tree.SnapshotGet(s, key(k), nil)
				if err != nil || ok != wok || string(v) != wv {
					t.Fatalf("op %d: snapshot at %d reads key %d = %q/%v (%v), want %q/%v", op, s.TS(), k, v, ok, err, wv, wok)
				}
			}
			got := map[string]string{}
			if err := tree.SnapshotScan(s, nil, nil, func(k keys.Key, v []byte) bool {
				got[string(k)] = string(v)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("op %d: snapshot at %d scans %v, want %v", op, s.TS(), got, want)
			}
		}
		h, now := fx.e.TM.VisibilityHorizon(), tree.Now()
		times := []uint64{h, now}
		if writer != nil {
			times = append(times, wStart-1, wStart)
		}
		for i := 0; i < 32 && now > h; i++ {
			times = append(times, h+uint64(rng.Int63n(int64(now-h))))
		}
		for _, at := range times {
			for k := 0; k < nkeys; k++ {
				wv, wok := asOf(k, at)
				v, ok, err := tree.GetAsOf(nil, key(k), at)
				if err != nil || ok != wok || string(v) != wv {
					t.Fatalf("op %d: key %d as of %d (horizon %d) = %q/%v (%v), want %q/%v", op, k, at, h, v, ok, err, wv, wok)
				}
			}
		}
	}

	for op := 0; op < ops; op++ {
		switch r := rng.Intn(100); {
		case r < 6 && len(snaps) < 4:
			snaps = append(snaps, fx.e.BeginSnapshot())
		case r < 12 && len(snaps) > 0:
			i := rng.Intn(len(snaps))
			snaps[i].Release()
			snaps = append(snaps[:i], snaps[i+1:]...)
		default:
			k := rng.Intn(nkeys)
			if writer != nil && k == 0 {
				k = 1 + rng.Intn(nkeys-1) // the writer holds key 0's lock
			}
			val := fmt.Sprintf("k%d-s%d", k, op)
			deleted := rng.Intn(8) == 0
			prunes := tree.Stats.Prunes.Load()
			var err error
			if deleted {
				err = tree.Delete(nil, key(k))
			} else {
				err = tree.Put(nil, key(k), []byte(val))
			}
			if err != nil {
				t.Fatal(err)
			}
			committed.put(string(key(k)), tree.newestStart(t, key(k)), val, deleted)
			if tree.Stats.Prunes.Load() > prunes {
				check(op)
			}
		}
		switch {
		case op == writerAt:
			// The writer supersedes a committed version of key 0 in a node
			// with room for both and with versions a prune at the writer's
			// begin clock drops, so one runs while it is open: no older
			// snapshot holds the horizon below that clock.
			for _, s := range snaps {
				s.Release()
			}
			snaps = nil
			for i := 0; ; i++ {
				if dead, n := tree.prunableNow(t, key(0)); dead > 0 && n < opts.DataCapacity-1 {
					break
				}
				k := 1 + i%(nkeys-1)
				val := fmt.Sprintf("k%d-s%d.%d", k, op, i)
				if err := tree.Put(nil, key(k), []byte(val)); err != nil {
					t.Fatal(err)
				}
				committed.put(string(key(k)), tree.newestStart(t, key(k)), val, false)
			}
			pred = fmt.Sprintf("k0-s%d", op)
			if err := tree.Put(nil, key(0), []byte(pred)); err != nil {
				t.Fatal(err)
			}
			committed.put(string(key(0)), tree.newestStart(t, key(0)), pred, false)
			writer = fx.e.TM.Begin()
			wVal = fmt.Sprintf("w-s%d", op)
			if err := tree.Put(writer, key(0), []byte(wVal)); err != nil {
				t.Fatal(err)
			}
			wStart, prunesAtBegin = tree.newestStart(t, key(0)), tree.Stats.Prunes.Load()
		case writer != nil && tree.Stats.Prunes.Load() > prunesAtBegin:
			if err := writer.Abort(); err != nil {
				t.Fatal(err)
			}
			writer = nil
			check(op)
			if v, ok, err := tree.Get(nil, key(0)); err != nil || !ok || string(v) != pred {
				t.Fatalf("after the rollback key 0 reads %q/%v (%v), want its predecessor %q", v, ok, err, pred)
			}
		}
		if op%500 == 499 {
			fx.mustVerify(t)
		}
	}
	if writer != nil {
		t.Fatal("no prune ran while the writer was open")
	}
	for _, s := range snaps {
		s.Release()
	}
	if tree.Stats.Prunes.Load() == 0 || tree.Stats.PrunedVersions.Load() == 0 {
		t.Fatalf("%d prunes dropped %d versions", tree.Stats.Prunes.Load(), tree.Stats.PrunedVersions.Load())
	}
	fx.mustVerify(t)
}

// leafImage returns the image of key's current data node.
func (tr *Tree) leafImage(t *testing.T, key uint64) []byte {
	t.Helper()
	var img []byte
	tr.inLeaf(t, keys.Uint64(key), func(n *Node) { img = encNodeImage(n) })
	return img
}

// newestStart returns the start of key's newest version: a commit ticks
// the clock too, so Now is past it.
func (tr *Tree) newestStart(t *testing.T, key keys.Key) uint64 {
	t.Helper()
	var start uint64
	tr.inLeaf(t, key, func(n *Node) {
		if lo, hi := keyGroup(n, key); hi > lo {
			start = n.startAt(hi - 1)
		}
	})
	return start
}

// prunableNow returns how many versions of key's current data node a prune
// at the clock would drop, and how many it holds.
func (tr *Tree) prunableNow(t *testing.T, key keys.Key) (dead, n int) {
	t.Helper()
	tr.inLeaf(t, key, func(leaf *Node) { dead, n = prunable(leaf, tr.Now()), leaf.Len() })
	return dead, n
}

// inLeaf calls fn with key's current data node, S-latched.
func (tr *Tree) inLeaf(t *testing.T, key keys.Key, fn func(*Node)) {
	t.Helper()
	o := tr.kern.NewOp(nil)
	defer o.Done()
	leaf, err := tr.descend(o, key, NoEnd-1, 0, latch.S, false)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Release(&leaf)
	fn(leaf.N)
}

// TestPruneCrashSafe crashes at every log prefix through a prune action and
// the put that retried after it. Each restart is well-formed and reads the
// last committed version of every key. A prune whose commit the crash cut
// off is rolled back and leaves its node pruned, as a retire does
// (TestRetireRolledBackStaysRetired).
func TestPruneCrashSafe(t *testing.T) {
	opts := slimOpts()
	opts.GC = true
	fx := newFixture(t, opts)
	tree := fx.tree
	type put struct {
		key    uint64
		val    string
		commit wal.LSN // the log's end after the put: its commit is below
	}
	var puts []put
	var from wal.LSN
	var pre []byte
	for i := 0; tree.Stats.Prunes.Load() == 0; i++ {
		if i > 1000 {
			t.Fatal("the puts never pruned")
		}
		k := uint64(i % 2)
		pre, from = tree.leafImage(t, k), fx.e.Log.EndLSN()
		val := sval(k, i)
		if err := tree.Put(nil, keys.Uint64(k), []byte(val)); err != nil {
			t.Fatal(err)
		}
		puts = append(puts, put{k, val, fx.e.Log.EndLSN()})
	}
	fx.e.Log.ForceAll()
	// The pruned image: the node before the put, pruned at the horizon
	// the record carries.
	var horizon uint64
	var pruneTxn wal.TxnID
	var pruneAt, pruneCommit wal.LSN
	fx.e.Log.FullImage().Scan(from, func(r wal.Record) bool {
		switch {
		case r.Type == wal.RecUpdate && r.Kind == KindPrune:
			h, err := decPrune(r.Payload)
			if err != nil {
				t.Fatal(err)
			}
			horizon, pruneTxn, pruneAt = h, r.TxnID, r.LSN
		case r.Type == wal.RecCommit && pruneTxn != 0 && r.TxnID == pruneTxn:
			pruneCommit = r.LSN
			return false
		}
		return true
	})
	if pruneCommit == wal.NilLSN {
		t.Fatal("no committed prune in the log")
	}
	node, err := decNodeImage(pre)
	if err != nil {
		t.Fatal(err)
	}
	applyPrune(node, horizon)
	pruned := encNodeImage(node)
	lastKey := puts[len(puts)-1].key

	tree.Close()
	rolledBack := 0
	for _, cut := range fx.e.Log.FullImage().Boundaries() {
		if cut < from {
			continue
		}
		fx2 := fx.reopen(t, fx.e.Crash(&cut))
		fx2.mustVerify(t)
		want := map[uint64]string{}
		for _, p := range puts {
			if p.commit <= cut {
				want[p.key] = p.val
			}
		}
		for k, v := range want {
			if got, ok, err := fx2.tree.Get(nil, keys.Uint64(k)); err != nil || !ok || string(got) != v {
				t.Fatalf("cut %d: key %d reads %q/%v (%v), want %q", cut, k, got, ok, err, v)
			}
		}
		if cut > pruneAt && cut <= pruneCommit {
			rolledBack++
			if got := fx2.tree.leafImage(t, lastKey); !bytes.Equal(got, pruned) {
				t.Fatalf("cut %d: the rolled-back prune left\n%x, want the pruned node\n%x", cut, got, pruned)
			}
		}
	}
	if rolledBack == 0 {
		t.Fatal("no cut fell between the prune record and its commit")
	}
}

// TestPruneWaitsForAdoptedLoser: an adopted restart loser pins the
// horizon at 0, so a split its rollback makes during restart undo prunes
// nothing, though the node holds versions a prune at the clock would drop.
// A transaction's small version is carried over a time split into a node
// that filler versions fill past the room its larger predecessor needs;
// the crash leaves the transaction a loser, and its undo has to split.
func TestPruneWaitsForAdoptedLoser(t *testing.T) {
	fx := newFixture(t, Options{SyncCompletion: true, GC: true})
	tree := fx.tree
	k := keys.Uint64(5)
	prev := maxValue(tree, k)
	if err := tree.Put(nil, k, prev); err != nil {
		t.Fatal(err)
	}
	loser := fx.e.TM.Begin()
	if err := tree.Put(loser, k, []byte("d")); err != nil {
		t.Fatal(err)
	}
	put := tree.Now()
	need := versionSize(k, prev) - versionSize(k, []byte("d"))
	for i := 0; ; i++ {
		if i > 10000 {
			t.Fatal("the filler never carried the loser's version into a full node")
		}
		if err := tree.Put(nil, keys.Uint64(uint64(i%4)), []byte("filler")); err != nil {
			t.Fatal(err)
		}
		if size, timeLow := currentLeaf(t, tree, k); timeLow > put && size+need > tree.kern.Room() {
			break
		}
	}
	if dead, _ := tree.prunableNow(t, k); dead == 0 {
		t.Fatal("the node holds nothing a prune at the clock would drop: the test lost its point")
	}
	fx.e.Log.ForceAll()
	fx2 := fx.crashRestart(t)
	s := &fx2.tree.Stats
	if s.Prunes.Load() != 0 {
		t.Fatalf("%d prunes while the adopted loser was unresolved", s.Prunes.Load())
	}
	if s.TimeSplits.Load()+s.KeySplits.Load() == 0 {
		t.Fatal("the restart's undo split no node")
	}
	fx2.mustVerify(t)
	if got, ok, err := fx2.tree.Get(nil, k); err != nil || !ok || !bytes.Equal(got, prev) {
		t.Fatalf("after restart: %d bytes, found=%v err=%v; want the predecessor", len(got), ok, err)
	}
}
