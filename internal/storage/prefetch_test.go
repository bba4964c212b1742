package storage

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/fault"
)

// waitPrefetch polls until the prefetcher has drained pid into the pool
// (or the deadline passes); the worker is asynchronous by design.
func waitPrefetch(t testing.TB, p *Pool, pid PageID) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if p.resident(pid) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("page %d never became resident via prefetch", pid)
}

func seedPrefetchPages(t testing.TB, p *Pool, lg *testLogger, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		dirtyPage(t, p, lg, PageID(i), []byte{byte(i)})
	}
	if _, err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchWarmsAndCounts(t *testing.T) {
	p, log, _ := newFaultyPool(4, 30)
	lg := &testLogger{log: log}
	seedPrefetchPages(t, p, lg, 8)
	// Evict everything so prefetches do real reads.
	for i := 1; i <= 8; i++ {
		p.Drop(PageID(i))
	}
	p.EnablePrefetch(4)
	defer p.StopPrefetch()

	p.PrefetchAsync(3, nil)
	waitPrefetch(t, p, 3)
	st := p.Stats()
	if st.PrefetchIssued != 1 {
		t.Fatalf("PrefetchIssued = %d, want 1", st.PrefetchIssued)
	}
	// The foreground fetch that consumes the warmed page counts as a hit
	// and reads the right bytes.
	f, err := p.Fetch(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Data.([]byte), []byte{3}) {
		t.Fatalf("prefetched page content %v", f.Data)
	}
	p.Unpin(f)
	if st := p.Stats(); st.PrefetchHit != 1 {
		t.Fatalf("PrefetchHit = %d, want 1", st.PrefetchHit)
	}
	// A second fetch of the same page is a plain hit, not a prefetch hit.
	f, _ = p.Fetch(3)
	p.Unpin(f)
	if st := p.Stats(); st.PrefetchHit != 1 {
		t.Fatalf("PrefetchHit moved to %d on a plain re-fetch", st.PrefetchHit)
	}

	// Prefetching a resident page is a no-op.
	p.PrefetchAsync(3, nil)
	time.Sleep(10 * time.Millisecond)
	if st := p.Stats(); st.PrefetchIssued != 1 {
		t.Fatalf("resident prefetch issued a read: %d", st.PrefetchIssued)
	}

	// NilPage and disabled-pool hints are dropped silently.
	p.PrefetchAsync(NilPage, nil)
	p.StopPrefetch()
	p.PrefetchAsync(5, nil)
	p.StopPrefetch() // idempotent
}

// TestPrefetchFaultDegradesToSyncFetch: a fault at pool.prefetch drops
// the read-ahead (counted wasted); the foreground fetch then reads the
// page itself and sees correct data.
func TestPrefetchFaultDegradesToSyncFetch(t *testing.T) {
	p, log, inj := newFaultyPool(4, 31)
	lg := &testLogger{log: log}
	seedPrefetchPages(t, p, lg, 4)
	for i := 1; i <= 4; i++ {
		p.Drop(PageID(i))
	}
	p.EnablePrefetch(2)
	defer p.StopPrefetch()

	inj.Arm(FPPoolPrefetch, fault.Spec{Kind: fault.Transient, Count: -1})
	p.PrefetchAsync(2, nil)
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().PrefetchWasted == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := p.Stats()
	if st.PrefetchWasted == 0 {
		t.Fatal("injected prefetch fault never counted as wasted")
	}
	if st.PrefetchIssued != 0 {
		t.Fatalf("faulted prefetch counted as issued: %d", st.PrefetchIssued)
	}
	if p.resident(2) {
		t.Fatal("faulted prefetch still warmed the page")
	}
	// The scan's own fetch does the read synchronously and correctly.
	f, err := p.Fetch(2)
	if err != nil {
		t.Fatalf("foreground fetch after prefetch fault: %v", err)
	}
	if !bytes.Equal(f.Data.([]byte), []byte{2}) {
		t.Fatalf("foreground fetch content %v", f.Data)
	}
	p.Unpin(f)
	if st := p.Stats(); st.PrefetchHit != 0 {
		t.Fatalf("degraded fetch counted as prefetch hit: %d", st.PrefetchHit)
	}
}

// TestPrefetchEvictedBeforeUseCountsWasted: a warmed page evicted before
// the scan reaches it moves the tag to the wasted counter.
func TestPrefetchEvictedBeforeUseCountsWasted(t *testing.T) {
	p, log, _ := newFaultyPool(2, 32)
	lg := &testLogger{log: log}
	seedPrefetchPages(t, p, lg, 6)
	for i := 1; i <= 6; i++ {
		p.Drop(PageID(i))
	}
	p.EnablePrefetch(2)
	defer p.StopPrefetch()

	p.PrefetchAsync(1, nil)
	waitPrefetch(t, p, 1)
	// Flood the tiny pool so the warmed frame is evicted unused.
	for i := 2; i <= 6; i++ {
		f, err := p.Fetch(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f)
	}
	st := p.Stats()
	if st.PrefetchWasted+st.PrefetchHit == 0 {
		t.Fatalf("warmed page neither hit nor wasted: %+v", st)
	}
}
