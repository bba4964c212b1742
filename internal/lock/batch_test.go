package lock

import (
	"testing"

	"repro/internal/wal"
)

func TestTryLockDepBatchGrantsAll(t *testing.T) {
	m := NewManager()
	names := make([]Name, 40)
	for i := range names {
		names[i] = KeyName(5, []byte{byte(i), byte(i >> 4)})
	}
	const a = wal.TxnID(1)
	dep, fail := m.TryLockDepBatch(a, names, X)
	if fail != -1 {
		t.Fatalf("batch failed at %d", fail)
	}
	if dep != 0 {
		t.Fatalf("dep = %d on fresh locks", dep)
	}
	for _, n := range names {
		if mode, held := m.HeldMode(a, n); !held || mode != X {
			t.Fatalf("name %v not held X after batch", n)
		}
	}
	// Re-acquiring the same batch hits the already-held fast path.
	if _, fail := m.TryLockDepBatch(a, names, X); fail != -1 {
		t.Fatalf("re-batch failed at %d", fail)
	}
	// A duplicate name inside one batch is granted on the held path too.
	dup := []Name{names[0], names[0], names[1]}
	if _, fail := m.TryLockDepBatch(a, dup, X); fail != -1 {
		t.Fatalf("dup batch failed at %d", fail)
	}
	m.ReleaseAll(a)
}

func TestTryLockDepBatchConflictKeepsPrefix(t *testing.T) {
	m := NewManager()
	names := make([]Name, 10)
	for i := range names {
		names[i] = PageName(9, uint64(i))
	}
	const a, b = wal.TxnID(1), wal.TxnID(2)
	if err := m.Lock(b, names[6], X); err != nil {
		t.Fatal(err)
	}
	_, fail := m.TryLockDepBatch(a, names, X)
	if fail != 6 {
		t.Fatalf("fail index = %d, want 6", fail)
	}
	// The conflicting name itself was not granted. Other names may or may
	// not have been attempted yet (stripes are processed as groups, and
	// the batch stops at the first stripe containing a conflict), but
	// whatever WAS granted stays held — the caller is two-phase.
	if _, held := m.HeldMode(a, names[6]); held {
		t.Fatal("conflicting name reported held")
	}
	granted := 0
	for i, n := range names {
		if i == 6 {
			continue
		}
		if _, held := m.HeldMode(a, n); held {
			granted++
		}
	}
	if granted == 0 {
		t.Fatal("no name granted before the conflict")
	}
	// After the holder releases, a retry sees held names fast and grants
	// the rest.
	m.ReleaseAll(b)
	if _, fail := m.TryLockDepBatch(a, names, X); fail != -1 {
		t.Fatalf("retry failed at %d", fail)
	}
	m.ReleaseAll(a)
}

func TestTryLockDepBatchSharedAndUpgrade(t *testing.T) {
	m := NewManager()
	names := []Name{PageName(2, 1), PageName(2, 2), PageName(2, 3)}
	const a, b = wal.TxnID(3), wal.TxnID(4)
	if _, fail := m.TryLockDepBatch(a, names, S); fail != -1 {
		t.Fatalf("S batch failed at %d", fail)
	}
	// Another reader shares.
	if _, fail := m.TryLockDepBatch(b, names, S); fail != -1 {
		t.Fatalf("second S batch failed at %d", fail)
	}
	// Upgrade to X must fail while the other reader holds S.
	if _, fail := m.TryLockDepBatch(a, names, X); fail == -1 {
		t.Fatal("X upgrade batch granted over a concurrent S holder")
	}
	m.ReleaseAll(b)
	// Alone, the upgrade goes through in place.
	if _, fail := m.TryLockDepBatch(a, names, X); fail != -1 {
		t.Fatalf("upgrade batch failed at %d", fail)
	}
	for _, n := range names {
		if mode, held := m.HeldMode(a, n); !held || mode != X {
			t.Fatalf("name %v not upgraded to X", n)
		}
	}
	m.ReleaseAll(a)
}

// TestTryLockDepBatchDep: batch acquisition must surface the ELR commit
// dependency left behind by an early-released writer, exactly like the
// single-name TryLockDep path.
func TestTryLockDepBatchDep(t *testing.T) {
	m := NewManager()
	names := []Name{KeyName(7, []byte("k1")), KeyName(7, []byte("k2"))}
	const writer, reader = wal.TxnID(1), wal.TxnID(2)
	for _, n := range names {
		if err := m.Lock(writer, n, X); err != nil {
			t.Fatal(err)
		}
	}
	m.ReleaseAllAt(writer, 500) // early release: locks carry dep tag 500
	dep, fail := m.TryLockDepBatch(reader, names, S)
	if fail != -1 {
		t.Fatalf("batch failed at %d", fail)
	}
	if dep != 500 {
		t.Fatalf("dep = %d, want 500", dep)
	}
	m.NoteStable(501)
	m.ReleaseAll(reader)
}

func TestTryLockDepBatchNoAllocs(t *testing.T) {
	m := NewManager()
	const txn = wal.TxnID(9)
	// 16 names, a batch over two chunks, and one over three, larger than
	// maxFreeStates states in every stripe: a stripe's free list keeps as
	// many states as the last transaction released there.
	for _, n := range []int{16, batchChunk + 44, 600} {
		names := make([]Name, n)
		for i := range names {
			names[i] = PageName(3, uint64(i))
		}
		for i := 0; i < 100; i++ {
			if _, fail := m.TryLockDepBatch(txn, names, X); fail != -1 {
				t.Fatalf("warm batch failed at %d", fail)
			}
			m.ReleaseAll(txn)
		}
		avg := testing.AllocsPerRun(200, func() {
			if _, fail := m.TryLockDepBatch(txn, names, X); fail != -1 {
				panic("batch failed")
			}
			m.ReleaseAll(txn)
		})
		if avg != 0 {
			t.Fatalf("%d-name batch lock cycle allocates %.1f objects per run, want 0", n, avg)
		}
	}
}

// TestTryLockDepBatchLongConflict: a conflict in a later chunk of a long
// batch reports its index in the whole batch, and every earlier chunk was
// granted whole.
func TestTryLockDepBatchLongConflict(t *testing.T) {
	m := NewManager()
	names := make([]Name, 2*batchChunk+88)
	for i := range names {
		names[i] = PageName(9, uint64(i))
	}
	const a, b = wal.TxnID(1), wal.TxnID(2)
	conflict := batchChunk + 144
	if err := m.Lock(b, names[conflict], X); err != nil {
		t.Fatal(err)
	}
	if _, fail := m.TryLockDepBatch(a, names, X); fail != conflict {
		t.Fatalf("fail index = %d, want %d", fail, conflict)
	}
	for i, n := range names[:batchChunk] {
		if _, held := m.HeldMode(a, n); !held {
			t.Fatalf("name %d of the first chunk not granted", i)
		}
	}
	if _, held := m.HeldMode(a, names[conflict]); held {
		t.Fatal("conflicting name reported held")
	}
	m.ReleaseAll(b)
	if _, fail := m.TryLockDepBatch(a, names, X); fail != -1 {
		t.Fatalf("retry failed at %d", fail)
	}
	m.ReleaseAll(a)
}
