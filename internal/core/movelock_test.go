package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/lock"
	"repro/internal/txn"
)

// TestRecordMoveLocksBlockSplit exercises the record-set realization of
// the move lock (§4.2.2): a transaction holding an undoable update on a
// record that a split would move must block the (independent) split
// until it finishes.
func TestRecordMoveLocksBlockSplit(t *testing.T) {
	opts := defaultTestOpts()
	opts.RecordMoveLocks = true
	opts.LeafCapacity = 8
	fx := newFixture(t, engine.Options{PageOriented: true}, opts)

	// Fill one leaf to one-below capacity.
	for i := 0; i < 7; i++ {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i*10)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// tx updates a record in the upper half (it will be "to be moved").
	tx := fx.e.TM.Begin()
	if err := fx.tree.Update(tx, keys.Uint64(60), []byte("pending")); err != nil {
		t.Fatal(err)
	}

	// An eighth insert fills the leaf; the ninth forces the split, whose
	// record-granule move lock must wait for tx.
	if err := fx.tree.Insert(nil, keys.Uint64(5), val(99)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- fx.tree.Insert(nil, keys.Uint64(15), val(100))
	}()

	select {
	case err := <-done:
		t.Fatalf("split completed while the mover's record was update-locked (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
		// Blocked, as required.
	}
	if splits := fx.tree.Stats.LeafSplits.Load() + fx.tree.Stats.RootGrowths.Load(); splits != 0 {
		t.Fatalf("split happened under the move lock: %d", splits)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("insert after unblock: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("split never unblocked after the updater committed")
	}
	if fx.tree.Stats.MoveLockWaits.Load() == 0 {
		t.Fatal("no move-lock wait recorded")
	}
	if fx.tree.Stats.LeafSplits.Load()+fx.tree.Stats.RootGrowths.Load() == 0 {
		t.Fatal("split never happened")
	}
	fx.mustVerify(t)
}

// TestRecordMoveLocksCorrectness runs the transactional abort workload
// under the record-granule realization.
func TestRecordMoveLocksCorrectness(t *testing.T) {
	opts := defaultTestOpts()
	opts.RecordMoveLocks = true
	fx := newFixture(t, engine.Options{PageOriented: true}, opts)
	tx := fx.e.TM.Begin()
	for i := 0; i < 40; i++ {
		if err := fx.tree.Insert(tx, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := fx.e.TM.Begin()
	for i := 40; i < 80; i++ {
		if err := fx.tree.Insert(tx2, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	shape := fx.mustVerify(t)
	if shape.Records != 40 {
		t.Fatalf("records = %d, want 40", shape.Records)
	}
	// Crash and recover under the same options.
	fx.e.Log.ForceAll()
	fx2 := fx.crashRestart(t, nil)
	shape2 := fx2.mustVerify(t)
	if shape2.Records != 40 {
		t.Fatalf("after restart: records = %d", shape2.Records)
	}
}

// TestSplitMoveLockDeadlockDetected: two transactions each fill a leaf
// with their own inserts (so each holds the page's IX lock), then each
// inserts into the other's full leaf. Both splits run as independent
// atomic actions whose move lock waits for the other transaction's IX —
// a cycle in which every wait belongs to an atomic action, not to the
// transaction blocked behind it. The detector must see through that: one
// insert gets ErrDeadlock, and once its transaction aborts the other
// completes.
func TestSplitMoveLockDeadlockDetected(t *testing.T) {
	opts := defaultTestOpts()
	opts.LeafCapacity = 4
	fx := newFixture(t, engine.Options{PageOriented: true}, opts)
	insert := func(tx *txn.Txn, ks ...uint64) {
		t.Helper()
		for _, k := range ks {
			if err := fx.tree.Insert(tx, keys.Uint64(k), val(int(k))); err != nil {
				t.Fatalf("insert %d: %v", k, err)
			}
		}
	}
	// The fifth insert splits the root leaf into [0 10] and [20 30 40].
	insert(nil, 0, 10, 20, 30, 40)
	txs := [2]*txn.Txn{fx.e.TM.Begin(), fx.e.TM.Begin()}
	insert(txs[0], 1, 2) // fills the low leaf under txs[0]'s IX
	insert(txs[1], 50)   // fills the high leaf under txs[1]'s IX

	type result struct {
		who int
		err error
	}
	results := make(chan result, 2)
	for who, k := range [2]uint64{25, 5} { // each into the other's leaf
		go func(who int, k uint64) {
			results <- result{who, fx.tree.Insert(txs[who], keys.Uint64(k), val(int(k)))}
		}(who, k)
	}
	var victim result
	select {
	case victim = <-results:
	case <-time.After(2 * time.Second):
		t.Fatal("both inserts still blocked: the splits' move-lock waits form an undetected deadlock")
	}
	if !errors.Is(victim.err, lock.ErrDeadlock) {
		t.Fatalf("first insert to return: %v, want ErrDeadlock", victim.err)
	}
	if err := txs[victim.who].Abort(); err != nil {
		t.Fatal(err)
	}
	select {
	case survivor := <-results:
		if survivor.err != nil {
			t.Fatalf("surviving insert: %v", survivor.err)
		}
		if err := txs[survivor.who].Commit(); err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("survivor still blocked after the victim aborted")
	}
	fx.mustVerify(t)
}
