package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/keys"
	"repro/internal/txn"
	"repro/internal/wal"
)

func TestMultiPutMultiGetRoundTrip(t *testing.T) {
	fx := newFixture(t, engine.Options{}, defaultTestOpts())
	rng := rand.New(rand.NewSource(10))

	const n = 500
	perm := rng.Perm(n)
	ks := make([]keys.Key, 0, 64)
	vs := make([][]byte, 0, 64)
	flush := func() {
		if err := fx.tree.MultiPut(nil, ks, vs); err != nil {
			t.Fatalf("MultiPut: %v", err)
		}
		ks, vs = ks[:0], vs[:0]
	}
	for _, i := range perm {
		ks = append(ks, keys.Uint64(uint64(i)))
		vs = append(vs, val(i))
		if len(ks) == 64 {
			flush()
		}
	}
	flush()

	shape := fx.mustVerify(t)
	if shape.Records != n {
		t.Fatalf("records = %d, want %d", shape.Records, n)
	}
	if got := fx.tree.Stats.BatchOps.Load(); got == 0 {
		t.Fatal("BatchOps stayed zero")
	}
	if got := fx.tree.Stats.LeafVisitsSaved.Load(); got == 0 {
		t.Fatal("LeafVisitsSaved stayed zero")
	}

	// MultiGet over a shuffled mix of present and absent keys.
	gk := make([]keys.Key, 0, 2*n)
	for i := 0; i < 2*n; i++ {
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
			if !found[i] || string(gv[i]) != string(val(int(id))) {
				t.Fatalf("key %d: found=%v val=%q", id, found[i], gv[i])
			}
		} else if found[i] {
			t.Fatalf("absent key %d reported found", id)
		}
	}

	// MultiPut over existing keys takes the update path.
	up := []keys.Key{keys.Uint64(3), keys.Uint64(400), keys.Uint64(77)}
	if err := fx.tree.MultiPut(nil, up, [][]byte{[]byte("a"), []byte("b"), []byte("c")}); err != nil {
		t.Fatalf("MultiPut update: %v", err)
	}
	if v, ok, _ := fx.tree.Search(nil, keys.Uint64(400)); !ok || string(v) != "b" {
		t.Fatalf("updated key 400: ok=%v v=%q", ok, v)
	}

	// MultiDelete removes present keys and skips absent ones.
	dk := make([]keys.Key, 0, n/2+2)
	for i := 0; i < n; i += 2 {
		dk = append(dk, keys.Uint64(uint64(i)))
	}
	dk = append(dk, keys.Uint64(9999), keys.Uint64(10001))
	if err := fx.tree.MultiDelete(nil, dk); err != nil {
		t.Fatalf("MultiDelete: %v", err)
	}
	shape = fx.mustVerify(t)
	if shape.Records != n/2 {
		t.Fatalf("after delete: records = %d, want %d", shape.Records, n/2)
	}
	for i := 0; i < n; i++ {
		_, ok, _ := fx.tree.Search(nil, keys.Uint64(uint64(i)))
		if (i%2 == 0) == ok {
			t.Fatalf("key %d: present=%v", i, ok)
		}
	}
}

// TestMultiPutMatchesLoopedInserts drives identical operation streams
// through the batch path and the per-key path and requires identical
// final contents — the serial equivalence oracle for the vectorized path.
func TestMultiPutMatchesLoopedInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fxA := newFixture(t, engine.Options{}, defaultTestOpts())
	fxB := newFixture(t, engine.Options{}, defaultTestOpts())
	const rounds = 20
	for r := 0; r < rounds; r++ {
		var ks []keys.Key
		var vs [][]byte
		for i := 0; i < 100; i++ {
			k := uint64(rng.Intn(1000))
			ks = append(ks, keys.Uint64(k))
			vs = append(vs, []byte(fmt.Sprintf("r%d-%d", r, k)))
		}
		if err := fxA.tree.MultiPut(nil, ks, vs); err != nil {
			t.Fatalf("MultiPut: %v", err)
		}
		for i := range ks {
			if err := fxB.tree.Insert(nil, ks[i], vs[i]); err == ErrKeyExists {
				err = fxB.tree.Update(nil, ks[i], vs[i])
				if err != nil {
					t.Fatalf("update: %v", err)
				}
			} else if err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
	}
	type kv struct{ k, v string }
	collect := func(tr *Tree) []kv {
		var out []kv
		if err := tr.RangeScan(nil, nil, nil, func(k keys.Key, v []byte) bool {
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
	for _, pageOriented := range []bool{false, true} {
		t.Run(fmt.Sprintf("pageOriented=%v", pageOriented), func(t *testing.T) {
			fx := newFixture(t, engine.Options{PageOriented: pageOriented}, defaultTestOpts())
			var ks []keys.Key
			var vs [][]byte
			for i := 0; i < 40; i++ {
				ks = append(ks, keys.Uint64(uint64(i)))
				vs = append(vs, val(i))
			}
			tx := fx.e.TM.Begin()
			if err := fx.tree.MultiPut(tx, ks, vs); err != nil {
				t.Fatalf("MultiPut: %v", err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			// Aborted batch: updates, deletes, and fresh inserts all undone.
			tx2 := fx.e.TM.Begin()
			var ks2 []keys.Key
			var vs2 [][]byte
			for i := 20; i < 80; i++ {
				ks2 = append(ks2, keys.Uint64(uint64(i)))
				vs2 = append(vs2, []byte("doomed"))
			}
			if err := fx.tree.MultiPut(tx2, ks2, vs2); err != nil {
				t.Fatalf("MultiPut in tx2: %v", err)
			}
			if err := fx.tree.MultiDelete(tx2, []keys.Key{keys.Uint64(1), keys.Uint64(2)}); err != nil {
				t.Fatalf("MultiDelete in tx2: %v", err)
			}
			if err := tx2.Abort(); err != nil {
				t.Fatal(err)
			}
			fx.tree.DrainCompletions()
			shape := fx.mustVerify(t)
			if shape.Records != 40 {
				t.Fatalf("records = %d, want 40", shape.Records)
			}
			for i := 0; i < 40; i++ {
				v, ok, _ := fx.tree.Search(nil, keys.Uint64(uint64(i)))
				if !ok || string(v) != string(val(i)) {
					t.Fatalf("key %d: ok=%v v=%q", i, ok, v)
				}
			}
		})
	}
}

// TestBatchCrashMidApply arms the core.batchapply crash point mid-way
// through a non-transactional batch: every leaf-run is its own atomic
// action, so recovery must keep exactly the runs whose commit records
// reached the stable log and roll back any partially-logged run — no
// partial-batch ghosts.
func TestBatchCrashMidApply(t *testing.T) {
	inj := fault.New(77)
	fx := newFixture(t, engine.Options{Injector: inj}, defaultTestOpts())
	// Committed, forced baseline.
	var ks []keys.Key
	var vs [][]byte
	for i := 0; i < 100; i++ {
		ks = append(ks, keys.Uint64(uint64(i)))
		vs = append(vs, val(i))
	}
	if err := fx.tree.MultiPut(nil, ks, vs); err != nil {
		t.Fatalf("baseline MultiPut: %v", err)
	}
	fx.tree.DrainCompletions()
	fx.e.Log.ForceAll()

	// Crash on the 3rd leaf-run of the next batch. Kind None: the probe
	// itself succeeds, but stable state freezes from that instant.
	inj.Arm(FPBatchApply, fault.Spec{Kind: fault.None, Crash: true, After: 3})
	var ks2 []keys.Key
	var vs2 [][]byte
	for i := 100; i < 300; i++ {
		ks2 = append(ks2, keys.Uint64(uint64(i)))
		vs2 = append(vs2, []byte("post-crash"))
	}
	if err := fx.tree.MultiPut(nil, ks2, vs2); err != nil {
		t.Fatalf("MultiPut over crash point: %v", err)
	}
	if !inj.Crashed() {
		t.Fatal("crash point never fired")
	}

	fx2 := fx.crashRestart(t, nil)
	shape := fx2.mustVerify(t)
	// Per-op oracle: every baseline key intact; every batch key either
	// fully applied with the batch value or absent.
	for i := 0; i < 100; i++ {
		v, ok, err := fx2.tree.Search(nil, keys.Uint64(uint64(i)))
		if err != nil || !ok || string(v) != string(val(i)) {
			t.Fatalf("baseline key %d: ok=%v v=%q err=%v", i, ok, v, err)
		}
	}
	survivors := 0
	for i := 100; i < 300; i++ {
		v, ok, err := fx2.tree.Search(nil, keys.Uint64(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			if string(v) != "post-crash" {
				t.Fatalf("batch key %d: ghost value %q", i, v)
			}
			survivors++
		}
	}
	if want := shape.Records - 100; survivors != want {
		t.Fatalf("verify counted %d batch records, search found %d", want, survivors)
	}
}

// TestMultiGetAllocs: point batches riding the pooled per-op contexts and
// caller-provided result storage must not allocate.
func TestMultiGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; alloc counts are meaningless")
	}
	opts := defaultTestOpts()
	opts.LeafCapacity = 64
	opts.IndexCapacity = 64
	fx := newFixture(t, engine.Options{}, opts)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	fx.tree.DrainCompletions()

	ks := make([]keys.Key, 16)
	vals := make([][]byte, len(ks))
	found := make([]bool, len(ks))
	for i := range ks {
		ks[i] = keys.Uint64(uint64((i * 131) % n))
		vals[i] = make([]byte, 0, 64)
	}
	// Warm the op and scratch pools and the value buffers.
	for i := 0; i < 100; i++ {
		if err := fx.tree.MultiGet(nil, ks, vals, found); err != nil {
			t.Fatalf("warmup: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := fx.tree.MultiGet(nil, ks, vals, found); err != nil {
			t.Error(err)
		}
		for i := range found {
			if !found[i] {
				t.Error("key vanished")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("MultiGet allocates %.1f objects per batch, want 0", allocs)
	}
}

func TestBatchArgMismatch(t *testing.T) {
	fx := newFixture(t, engine.Options{}, defaultTestOpts())
	ks := []keys.Key{keys.Uint64(1)}
	if err := fx.tree.MultiPut(nil, ks, nil); err != errBatchArgs {
		t.Fatalf("MultiPut mismatch: %v", err)
	}
	if err := fx.tree.MultiGet(nil, ks, nil, nil); err != errBatchArgs {
		t.Fatalf("MultiGet mismatch: %v", err)
	}
	if err := fx.tree.MultiPut(nil, nil, nil); err != nil {
		t.Fatalf("empty MultiPut: %v", err)
	}
}

// TestBatchCheckpointRecLSN: a batched run's single group append must
// publish a recLSN covering its FIRST record when it dirties a clean
// page. A fuzzy checkpoint lands between the run and the page's next
// flush; if the page's dirty-table entry carried the group's LAST LSN,
// analysis would drop the earlier records of the run from redo and the
// crash would lose committed updates.
func TestBatchCheckpointRecLSN(t *testing.T) {
	fx := newFixture(t, engine.Options{}, defaultTestOpts())
	var ks []keys.Key
	var vs [][]byte
	for i := 0; i < 6; i++ {
		ks = append(ks, keys.Uint64(uint64(i)))
		if err := fx.tree.Insert(nil, ks[i], val(i)); err != nil {
			t.Fatalf("seed insert: %v", err)
		}
		vs = append(vs, []byte(fmt.Sprintf("group-%d", i)))
	}
	fx.tree.DrainCompletions()
	// Clean every frame so the batched run below is the clean->dirty
	// transition that assigns the leaf's recLSN.
	if _, err := fx.e.FlushAll(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	// One leaf-run of updates: records r1..rn in one group append.
	if err := fx.tree.MultiPut(nil, ks, vs); err != nil {
		t.Fatalf("MultiPut: %v", err)
	}
	// Fuzzy checkpoint captures the dirty leaf's recLSN; the page itself
	// is never flushed again before the crash.
	if _, err := fx.e.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := fx.e.Log.ForceAll(); err != nil {
		t.Fatalf("force: %v", err)
	}

	fx2 := fx.crashRestart(t, nil)
	fx2.mustVerify(t)
	for i := 0; i < 6; i++ {
		v, ok, err := fx2.tree.Search(nil, ks[i])
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
// kinds, payloads, transaction chain, LSNs.
func TestMultiOfOneLogsLikeSingle(t *testing.T) {
	k, v := keys.Uint64(30), []byte("new")
	for _, tc := range []struct {
		name   string
		single func(tr *Tree, tx *txn.Txn) error
		multi  func(tr *Tree, tx *txn.Txn) error
	}{
		{"insert", func(tr *Tree, tx *txn.Txn) error { return tr.Insert(tx, keys.Uint64(35), v) },
			func(tr *Tree, tx *txn.Txn) error { return tr.MultiPut(tx, []keys.Key{keys.Uint64(35)}, [][]byte{v}) }},
		{"update", func(tr *Tree, tx *txn.Txn) error { return tr.Update(tx, k, v) },
			func(tr *Tree, tx *txn.Txn) error { return tr.MultiPut(tx, []keys.Key{k}, [][]byte{v}) }},
		{"delete", func(tr *Tree, tx *txn.Txn) error { return tr.Delete(tx, k) },
			func(tr *Tree, tx *txn.Txn) error { return tr.MultiDelete(tx, []keys.Key{k}) }},
	} {
		for _, inTxn := range []bool{false, true} {
			var logs [2][]wal.Record
			for side, op := range []func(*Tree, *txn.Txn) error{tc.single, tc.multi} {
				fx := newFixture(t, engine.Options{PageOriented: true}, defaultTestOpts())
				for i := 0; i < 20; i++ { // several leaves, key 30 among them
					if err := fx.tree.Insert(nil, keys.Uint64(uint64(i*10)), val(i)); err != nil {
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
