package tsb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/keys"
	"repro/internal/txn"
	"repro/internal/wal"
)

func TestMultiPutMultiGetRoundTrip(t *testing.T) {
	fx := newFixture(t, smallOpts())
	rng := rand.New(rand.NewSource(20))
	const n = 300
	perm := rng.Perm(n)
	var ks []keys.Key
	var vs [][]byte
	for _, i := range perm {
		ks = append(ks, keys.Uint64(uint64(i)))
		vs = append(vs, []byte(fmt.Sprintf("v-%d", i)))
	}
	for lo := 0; lo < n; lo += 64 {
		hi := min(lo+64, n)
		if err := fx.tree.MultiPut(nil, ks[lo:hi], vs[lo:hi]); err != nil {
			t.Fatalf("MultiPut: %v", err)
		}
	}
	if got := fx.tree.Stats.BatchOps.Load(); got == 0 {
		t.Fatal("BatchOps stayed zero")
	}
	if got := fx.tree.Stats.LeafVisitsSaved.Load(); got == 0 {
		t.Fatal("LeafVisitsSaved stayed zero")
	}

	gk := make([]keys.Key, 0, n+50)
	for i := 0; i < n+50; i++ {
		gk = append(gk, keys.Uint64(uint64(i)))
	}
	rng.Shuffle(len(gk), func(i, j int) { gk[i], gk[j] = gk[j], gk[i] })
	gv := make([][]byte, len(gk))
	found := make([]bool, len(gk))
	if err := fx.tree.MultiGet(nil, gk, gv, found); err != nil {
		t.Fatalf("MultiGet: %v", err)
	}
	for i, k := range gk {
		id := keys.ToUint64(k)
		if id < n {
			if !found[i] || string(gv[i]) != fmt.Sprintf("v-%d", id) {
				t.Fatalf("key %d: found=%v val=%q", id, found[i], gv[i])
			}
		} else if found[i] {
			t.Fatalf("absent key %d reported found", id)
		}
	}

	// Batched tombstones: current reads miss, as-of reads still see the
	// old versions.
	before := fx.tree.Now()
	var dk []keys.Key
	for i := 0; i < n; i += 3 {
		dk = append(dk, keys.Uint64(uint64(i)))
	}
	if err := fx.tree.MultiDelete(nil, dk); err != nil {
		t.Fatalf("MultiDelete: %v", err)
	}
	for i := 0; i < n; i++ {
		_, ok, err := fx.tree.Get(nil, keys.Uint64(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if (i%3 == 0) == ok {
			t.Fatalf("key %d after tombstone: present=%v", i, ok)
		}
	}
	for i := 0; i < n; i += 3 {
		v, ok, err := fx.tree.GetAsOf(nil, keys.Uint64(uint64(i)), before)
		if err != nil || !ok || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("as-of read of %d: ok=%v v=%q err=%v", i, ok, v, err)
		}
	}
	if _, err := fx.tree.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestMultiPutMatchesLoopedPuts requires the batch path and the per-key
// path to agree on final current contents for identical upsert streams.
func TestMultiPutMatchesLoopedPuts(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	fxA := newFixture(t, smallOpts())
	fxB := newFixture(t, smallOpts())
	for r := 0; r < 15; r++ {
		var ks []keys.Key
		var vs [][]byte
		for i := 0; i < 80; i++ {
			k := uint64(rng.Intn(400))
			ks = append(ks, keys.Uint64(k))
			vs = append(vs, []byte(fmt.Sprintf("r%d-%d", r, k)))
		}
		if err := fxA.tree.MultiPut(nil, ks, vs); err != nil {
			t.Fatalf("MultiPut: %v", err)
		}
		for i := range ks {
			if err := fxB.tree.Put(nil, ks[i], vs[i]); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
	}
	type kv struct{ k, v string }
	collect := func(tr *Tree) []kv {
		var out []kv
		if err := tr.ScanAsOf(tr.Now(), nil, nil, func(k keys.Key, v []byte) bool {
			out = append(out, kv{string(k), string(v)})
			return true
		}); err != nil {
			t.Fatalf("scan: %v", err)
		}
		return out
	}
	a, b := collect(fxA.tree), collect(fxB.tree)
	if len(a) != len(b) {
		t.Fatalf("content diverged: %d vs %d records", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestMultiPutTxnAbort(t *testing.T) {
	fx := newFixture(t, smallOpts())
	var ks []keys.Key
	var vs [][]byte
	for i := 0; i < 40; i++ {
		ks = append(ks, keys.Uint64(uint64(i)))
		vs = append(vs, []byte(fmt.Sprintf("keep-%d", i)))
	}
	tx := fx.e.TM.Begin()
	if err := fx.tree.MultiPut(tx, ks, vs); err != nil {
		t.Fatalf("MultiPut: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := fx.e.TM.Begin()
	vs2 := make([][]byte, len(ks))
	for i := range vs2 {
		vs2[i] = []byte("doomed")
	}
	if err := fx.tree.MultiPut(tx2, ks, vs2); err != nil {
		t.Fatalf("MultiPut in tx2: %v", err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	fx.tree.DrainCompletions()
	for i := 0; i < 40; i++ {
		v, ok, err := fx.tree.Get(nil, keys.Uint64(uint64(i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("keep-%d", i) {
			t.Fatalf("key %d after abort: ok=%v v=%q err=%v", i, ok, v, err)
		}
	}
	if _, err := fx.tree.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestBatchCheckpointRecLSN mirrors the core tree's test of the same
// name: the batched put's group append must mark the leaf dirty with the
// group's first LSN (recLSN) as well as its last (pageLSN), or a fuzzy
// checkpoint between the run and the next flush makes redo drop the
// run's earlier records after a crash.
func TestBatchCheckpointRecLSN(t *testing.T) {
	opts := smallOpts()
	opts.DataCapacity = 32 // one leaf holds seeds plus batched versions
	fx := newFixture(t, opts)
	var ks []keys.Key
	var vs [][]byte
	for i := 0; i < 6; i++ {
		ks = append(ks, keys.Uint64(uint64(i)))
		if err := fx.tree.Put(nil, ks[i], []byte(fmt.Sprintf("seed-%d", i))); err != nil {
			t.Fatalf("seed put: %v", err)
		}
		vs = append(vs, []byte(fmt.Sprintf("group-%d", i)))
	}
	fx.tree.DrainCompletions()
	if _, err := fx.e.FlushAll(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	if err := fx.tree.MultiPut(nil, ks, vs); err != nil {
		t.Fatalf("MultiPut: %v", err)
	}
	if _, err := fx.e.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := fx.e.Log.ForceAll(); err != nil {
		t.Fatalf("force: %v", err)
	}

	fx2 := fx.crashRestart(t)
	fx2.mustVerify(t)
	for i := 0; i < 6; i++ {
		v, ok, err := fx2.tree.Get(nil, ks[i])
		if err != nil || !ok {
			t.Fatalf("key %d: ok=%v err=%v", i, ok, err)
		}
		if string(v) != string(vs[i]) {
			t.Fatalf("key %d = %q after recovery, batch committed %q", i, v, vs[i])
		}
	}
}

// TestMultiOfOneLogsLikeSingle: a Multi* call with one key and the
// single-key call are the same run of one through the same kernel action,
// so on identical trees they must append byte-identical log records —
// kind, payload (timestamp and writer included), transaction chain, LSNs.
func TestMultiOfOneLogsLikeSingle(t *testing.T) {
	k, v := keys.Uint64(30), []byte("new")
	for _, tc := range []struct {
		name   string
		single func(tr *Tree, tx *txn.Txn) error
		multi  func(tr *Tree, tx *txn.Txn) error
	}{
		{"put", func(tr *Tree, tx *txn.Txn) error { return tr.Put(tx, k, v) },
			func(tr *Tree, tx *txn.Txn) error { return tr.MultiPut(tx, []keys.Key{k}, [][]byte{v}) }},
		{"delete", func(tr *Tree, tx *txn.Txn) error { return tr.Delete(tx, k) },
			func(tr *Tree, tx *txn.Txn) error { return tr.MultiDelete(tx, []keys.Key{k}) }},
	} {
		for _, inTxn := range []bool{false, true} {
			var logs [2][]wal.Record
			for side, op := range []func(*Tree, *txn.Txn) error{tc.single, tc.multi} {
				fx := newFixture(t, smallOpts())
				for i := 0; i < 20; i++ { // several leaves, key 30 among them
					if err := fx.tree.Put(nil, keys.Uint64(uint64(i*10)), []byte("seed")); err != nil {
						t.Fatal(err)
					}
				}
				fx.tree.DrainCompletions()
				from := fx.e.Log.EndLSN()
				var tx *txn.Txn
				if inTxn {
					tx = fx.e.TM.Begin()
				}
				if err := op(fx.tree, tx); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				fx.e.Log.FullImage().Scan(from, func(r wal.Record) bool {
					logs[side] = append(logs[side], r)
					return true
				})
				if tx != nil {
					_ = tx.Abort()
				}
			}
			if len(logs[0]) == 0 || !reflect.DeepEqual(logs[0], logs[1]) {
				t.Fatalf("%s inTxn=%v: single-key call logged\n%+v\nMulti* of one key logged\n%+v", tc.name, inTxn, logs[0], logs[1])
			}
		}
	}
}
