package lock

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"repro/internal/wal"
)

// waitForWaiters polls until at least `want` blocking waits have been
// recorded — the waiter is queued under the stripe lock before the
// counter is visible, so a subsequent release is guaranteed to grant it.
func waitForWaiters(t *testing.T, m *Manager, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if w, _ := m.Stats(); w >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never blocked")
		}
		runtime.Gosched()
	}
}

// TestDepTagInheritAndFilter: a lock released at a commit LSN tags the
// entry; a later acquirer inherits the tag as a commit dependency; once
// stability covers the LSN the dependency disappears.
func TestDepTagInheritAndFilter(t *testing.T) {
	m := NewManager()
	n := PageName(1, 7)
	if err := m.Lock(1, n, X); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAllAt(1, 500)

	dep, err := m.LockDep(2, n, S)
	if err != nil {
		t.Fatal(err)
	}
	if dep != 500 {
		t.Fatalf("inherited dep = %d, want 500", dep)
	}
	m.ReleaseAll(2)

	// The record at 500 is stable once the stable point passes it.
	m.NoteStable(501)
	dep, err = m.LockDep(3, n, S)
	if err != nil {
		t.Fatal(err)
	}
	if dep != 0 {
		t.Fatalf("dep = %d after stability covered it, want 0", dep)
	}
	m.ReleaseAll(3)
}

// TestDepRetainsEmptyEntry: an empty lock entry carrying an unstable
// dependency must NOT be freed — a reader acquiring the name later
// still has to inherit the writer's commit LSN. Once stability covers
// the LSN, the retained entry is swept and recycled.
func TestDepRetainsEmptyEntry(t *testing.T) {
	m := NewManager()
	n := KeyName(2, []byte("retained"))
	if err := m.Lock(10, n, X); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAllAt(10, 900)
	if got := m.PendingDeps(); got != 1 {
		t.Fatalf("pending dep entries = %d, want 1 (entry was freed, dep lost)", got)
	}

	// A fresh acquirer of the otherwise-empty entry inherits the dep.
	dep, ok := m.TryLockDep(11, n, X)
	if !ok || dep != 900 {
		t.Fatalf("TryLockDep = (%d, %v), want (900, true)", dep, ok)
	}
	m.ReleaseAll(11)

	// Stability covers the LSN: sweep activity (any release on the
	// stripe) drains the retained entry.
	m.NoteStable(901)
	if err := m.Lock(12, n, S); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(12)
	if got := m.PendingDeps(); got != 0 {
		t.Fatalf("pending dep entries = %d after stability, want 0", got)
	}
	if dep, _ := m.TryLockDep(13, n, S); dep != 0 {
		t.Fatalf("stale dep %d resurfaced after sweep", dep)
	}
	m.ReleaseAll(13)
}

// TestDepThroughWaiterGrant: a waiter blocked behind the releasing
// writer receives the dependency through the grant itself.
func TestDepThroughWaiterGrant(t *testing.T) {
	m := NewManager()
	n := PageName(3, 9)
	if err := m.Lock(20, n, X); err != nil {
		t.Fatal(err)
	}
	got := make(chan uint64, 1)
	errCh := make(chan error, 1)
	go func() {
		dep, err := m.LockDep(21, n, X)
		errCh <- err
		got <- dep
	}()
	waitForWaiters(t, m, 1)
	m.ReleaseAllAt(20, 777)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if dep := <-got; dep != 777 {
		t.Fatalf("waiter inherited dep %d, want 777", dep)
	}
	m.ReleaseAll(21)
}

// TestDepBookkeepingZeroAlloc: the early-lock-release hot path — tagged
// release, retained entry, dependent acquire, stability sweep — must
// not allocate in steady state.
func TestDepBookkeepingZeroAlloc(t *testing.T) {
	m := NewManager()
	names := make([]Name, 8)
	for i := range names {
		names[i] = PageName(4, uint64(i))
	}
	const writer = wal.TxnID(100)
	const reader = wal.TxnID(101)
	lsn := uint64(1000)
	cycle := func() {
		for _, n := range names {
			if err := m.Lock(writer, n, X); err != nil {
				panic(err)
			}
		}
		lsn += 10
		m.ReleaseAllAt(writer, lsn)
		for _, n := range names {
			if _, ok := m.TryLockDep(reader, n, S); !ok {
				panic("reader blocked on released lock")
			}
		}
		m.NoteStable(lsn + 1)
		m.ReleaseAll(reader)
	}
	// Warm freelists, map buckets, and the pending ring.
	for i := 0; i < 100; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("dep bookkeeping cycle allocates %.1f objects per run, want 0", avg)
	}
}

// TestPendingDrainsUnderBatchedCommits: early-lock-release commits of 256
// keys park 256 dependency-only entries each; once the stable point has
// passed a commit, the next releases must drain what it parked. The queue
// then holds the last commit's entries, not every key ever committed.
func TestPendingDrainsUnderBatchedCommits(t *testing.T) {
	m := NewManager()
	const batch, commits = 256, 1000
	names := make([]Name, batch)
	var key [8]byte
	lsn := uint64(1000)
	for c := 0; c < commits; c++ {
		txn := wal.TxnID(c + 1)
		for i := range names {
			binary.LittleEndian.PutUint64(key[:], uint64(c*batch+i))
			names[i] = KeyName(1, key[:])
		}
		if _, fail := m.TryLockDepBatch(txn, names, X); fail >= 0 {
			t.Fatalf("commit %d: key %d not granted", c, fail)
		}
		lsn += 100
		m.ReleaseAllAt(txn, lsn)
		m.NoteStable(lsn + 1) // the commit's force returns
		if got := m.PendingDeps(); got > 2*batch {
			t.Fatalf("after %d commits %d entries are parked, want at most %d", c+1, got, 2*batch)
		}
	}
	// A few ordinary transactions later nothing is left but what they
	// themselves could park: O(open transactions), not O(history).
	for i := 0; i < 32*len(m.stripes); i++ {
		txn := wal.TxnID(commits + 1 + i)
		binary.LittleEndian.PutUint64(key[:], uint64(i))
		if err := m.Lock(txn, KeyName(2, key[:]), X); err != nil {
			t.Fatal(err)
		}
		m.ReleaseAll(txn)
	}
	if got := m.PendingDeps(); got > len(m.stripes) {
		t.Fatalf("%d entries still parked after the stable point passed them all", got)
	}
}
