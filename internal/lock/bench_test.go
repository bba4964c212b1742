package lock

import (
	"sync/atomic"
	"testing"

	"repro/internal/wal"
)

// BenchmarkLockUncontended is the fast-path cost of one Lock plus its
// share of a ReleaseAll, single-threaded. The PR 2 acceptance bar is
// zero allocations per operation.
func BenchmarkLockUncontended(b *testing.B) {
	m := NewManager()
	space := SpaceID("bench", "t")
	txn := wal.TxnID(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Lock(txn, PageName(space, uint64(i%64)), X); err != nil {
			b.Fatal(err)
		}
		m.ReleaseAll(txn)
	}
}

// BenchmarkLockParallel measures disjoint-name lock throughput across
// goroutines; with striping, different names rarely share a mutex.
func BenchmarkLockParallel(b *testing.B) {
	m := NewManager()
	space := SpaceID("bench", "t")
	var next atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		txn := wal.TxnID(next.Add(1))
		i := 0
		for pb.Next() {
			name := PageName(space, uint64(txn)<<16|uint64(i%16))
			if err := m.Lock(txn, name, X); err != nil {
				b.Fatal(err)
			}
			i++
			if i%16 == 0 {
				m.ReleaseAll(txn)
			}
		}
		m.ReleaseAll(txn)
	})
}

// BenchmarkTryLockUncontended is the TryLock fast path (the hot call in
// consolidation and move-lock probes).
func BenchmarkTryLockUncontended(b *testing.B) {
	m := NewManager()
	space := SpaceID("bench", "t")
	txn := wal.TxnID(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !m.TryLock(txn, PageName(space, uint64(i%64)), IX) {
			b.Fatal("trylock failed uncontended")
		}
		m.ReleaseAll(txn)
	}
}

// BenchmarkKeyName is the record-name construction cost that replaced a
// fmt.Sprintf per lock call.
func BenchmarkKeyName(b *testing.B) {
	key := []byte("user:12345678")
	space := SpaceID("bench", "t")
	b.ReportAllocs()
	var sink Name
	for i := 0; i < b.N; i++ {
		sink = KeyName(space, key)
	}
	_ = sink
}

// BenchmarkTryLockDepBatch is one batch of 256 fresh X locks, the size of
// a preload transaction's key batch, plus its share of a ReleaseAll: the
// per-batch cost of TryLockDepBatch's stripe pass and grants.
func BenchmarkTryLockDepBatch(b *testing.B) {
	m := NewManager()
	names := make([]Name, 256)
	for i := range names {
		names[i] = PageName(SpaceID("bench", "t"), uint64(i))
	}
	txn := wal.TxnID(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, fail := m.TryLockDepBatch(txn, names, X); fail != -1 {
			b.Fatalf("batch failed at %d", fail)
		}
		m.ReleaseAll(txn)
	}
}
