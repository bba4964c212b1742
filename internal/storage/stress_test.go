package storage

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/wal"
)

// seedPages creates pages [2, 2+n) with one-byte contents, logging each
// format, and leaves every image on disk.
func seedPages(t *testing.T, p *Pool, logger *testLogger, n int) {
	t.Helper()
	for pid := PageID(2); pid < PageID(2+n); pid++ {
		f := mustCreate(t, p, pid)
		f.Latch.AcquireX()
		f.Data = []byte{byte(pid)}
		logger.LogUpdate(f, 0, nil)
		f.Latch.ReleaseX()
		p.Unpin(f)
	}
	if _, err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

// TestBoundedEvictionAccounting pins down the Stats bookkeeping of the
// bounded pool: evictions count replacement victims, every dirty victim
// is flushed exactly once, and the hit/miss split matches residency.
func TestBoundedEvictionAccounting(t *testing.T) {
	const capacity, n = 4, 12 // capacity 4 keeps a single shard: deterministic
	p, lg := newTestPool(capacity)
	logger := &testLogger{log: lg}
	for pid := PageID(2); pid < PageID(2+n); pid++ {
		f := mustCreate(t, p, pid)
		f.Latch.AcquireX()
		f.Data = []byte{byte(pid)}
		logger.LogUpdate(f, 0, nil)
		f.Latch.ReleaseX()
		p.Unpin(f)
	}

	s := p.Stats()
	if s.Evictions != n-capacity {
		t.Errorf("evictions = %d, want %d", s.Evictions, n-capacity)
	}
	if s.Flushes != s.Evictions {
		t.Errorf("flushes = %d, want %d (every victim was dirty)", s.Flushes, s.Evictions)
	}
	if s.Hits != 0 || s.Misses != 0 {
		t.Errorf("hits/misses = %d/%d before any Fetch", s.Hits, s.Misses)
	}
	if got := p.BufferedCount(); got != capacity {
		t.Errorf("buffered = %d, want %d", got, capacity)
	}

	// A page just installed is resident: two back-to-back fetches are a
	// hit each, and return the same frame.
	last := PageID(2 + n - 1)
	f1, err := p.Fetch(last)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := p.Fetch(last)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Error("resident page refetched into a different frame")
	}
	p.Unpin(f1)
	p.Unpin(f2)
	s2 := p.Stats()
	if s2.Hits != s.Hits+2 || s2.Misses != s.Misses {
		t.Errorf("hits/misses = %d/%d after two resident fetches, want %d/%d",
			s2.Hits, s2.Misses, s.Hits+2, s.Misses)
	}

	// Sweep all n pages: at most capacity can be resident, so at least
	// n-capacity fetches must miss, and every page must decode its image.
	for pid := PageID(2); pid < PageID(2+n); pid++ {
		f, err := p.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		if b := f.Data.([]byte); b[0] != byte(pid) {
			t.Errorf("page %d contents = %d", pid, b[0])
		}
		p.Unpin(f)
	}
	s3 := p.Stats()
	if got := (s3.Hits + s3.Misses) - (s2.Hits + s2.Misses); got != int64(n) {
		t.Errorf("sweep recorded %d fetches, want %d", got, n)
	}
	if got := s3.Misses - s2.Misses; got < int64(n-capacity) {
		t.Errorf("sweep misses = %d, want >= %d", got, n-capacity)
	}
	if r := s3.HitRatio(); r <= 0 || r >= 1 {
		t.Errorf("hit ratio = %v, want in (0, 1)", r)
	}
}

// TestFetchEvictChurn drives fully-unpinned re-fetches of a tiny bounded
// pool so that fetch misses, eviction write-backs, and re-installs of the
// same pages race constantly; run it under -race. Each page carries a
// counter incremented under the X latch, and every increment bumps a
// per-page high-water mark. Observing a counter below the mark means a
// fetch installed a stale stable image over newer contents (the
// fetch/evict race: a lost update). Unlike TestCheckpointStress, workers
// drop every pin between operations, so the pool is free to evict and
// reload the page under them between increments.
func TestFetchEvictChurn(t *testing.T) {
	const (
		capacity = 4
		nPages   = 16
		workers  = 8
		incs     = 3000
	)
	p, lg := newTestPool(capacity)
	logger := &testLogger{log: lg}
	for pid := PageID(2); pid < PageID(2+nPages); pid++ {
		f := mustCreate(t, p, pid)
		f.Latch.AcquireX()
		f.Data = make([]byte, 8)
		logger.LogUpdate(f, 0, nil)
		f.Latch.ReleaseX()
		p.Unpin(f)
	}
	if _, err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}

	var hi [nPages]atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := uint64(w)*0x9E3779B97F4A7C15 + 1
			var last wal.LSN
			for i := 0; i < incs; i++ {
				rnd = rnd*6364136223846793005 + 1442695040888963407
				idx := (rnd >> 32) % nPages
				pid := PageID(2 + idx)
				f, err := p.Fetch(pid)
				if err != nil {
					t.Errorf("fetch %d: %v", pid, err)
					return
				}
				f.Latch.AcquireX()
				b := f.Data.([]byte)
				v := binary.LittleEndian.Uint64(b)
				// The X latch serializes increments of one page, so under
				// it the high-water mark is exact: a lower counter means a
				// stale image was installed over newer contents.
				if prev := hi[idx].Load(); v < prev {
					t.Errorf("page %d: counter %d after %d was observed — lost update", pid, v, prev)
				}
				binary.LittleEndian.PutUint64(b, v+1)
				hi[idx].Store(v + 1)
				lsn := lg.Append(&wal.Record{
					Type: wal.RecUpdate, TxnID: wal.TxnID(w + 1), PrevLSN: last,
					StoreID: p.StoreID, PageID: uint64(pid),
				})
				last = lsn
				f.MarkDirty(lsn)
				f.Latch.ReleaseX()
				p.Unpin(f)
			}
		}(w)
	}
	wg.Wait()

	total := uint64(0)
	for idx := uint64(0); idx < nPages; idx++ {
		f, err := p.Fetch(PageID(2 + idx))
		if err != nil {
			t.Fatal(err)
		}
		v := binary.LittleEndian.Uint64(f.Data.([]byte))
		if want := hi[idx].Load(); v != want {
			t.Errorf("page %d: final counter %d, want %d", 2+idx, v, want)
		}
		total += v
		p.Unpin(f)
	}
	if total != workers*incs {
		t.Errorf("total increments = %d, want %d", total, workers*incs)
	}
	if _, err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	checkWALRule(t, p, lg)
}

// checkWALRule asserts that every stable page image carries a pageLSN at
// or below the log's stable watermark — the write-ahead rule. The images
// are read before StableLSN: the watermark is monotonic and every image
// was forced before it was written, so the later watermark read can only
// over-approximate.
func checkWALRule(t *testing.T, p *Pool, lg *wal.Log) {
	t.Helper()
	imgs := map[PageID][]byte{}
	for _, pid := range p.Disk().PageIDs() {
		if img, ok, err := p.Disk().Read(pid); err != nil {
			t.Fatalf("page %d: %v", pid, err)
		} else if ok {
			imgs[pid] = img
		}
	}
	stable := lg.StableLSN()
	for pid, img := range imgs {
		lsn, _, _, err := unframeImage(img)
		if err != nil {
			t.Errorf("page %d: bad stable image: %v", pid, err)
			continue
		}
		if wal.LSN(lsn) > stable {
			t.Errorf("WAL rule violated: page %d stable image has LSN %d > stable %d",
				pid, lsn, stable)
		}
	}
}

// TestCheckpointStress hammers a small bounded pool from many goroutines
// (fetch, re-fetch, dirty, unpin) while a checkpointer concurrently takes
// DirtyPages snapshots and fuzzy FlushAll sweeps. Run it under -race. It
// asserts that a pinned frame is never evicted (a re-fetch while pinned
// must return the identical frame) and that no flush ever violates the
// write-ahead rule.
func TestCheckpointStress(t *testing.T) {
	const (
		capacity = 16
		nPages   = 64
		workers  = 8
		ckpts    = 40
	)
	p, lg := newTestPool(capacity)
	seedPages(t, p, &testLogger{log: lg}, nPages)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := uint64(w)*0x9E3779B97F4A7C15 + 1
			var last wal.LSN
			for {
				select {
				case <-stop:
					return
				default:
				}
				rnd = rnd*6364136223846793005 + 1442695040888963407
				pid := PageID(2 + (rnd>>32)%nPages)
				f, err := p.Fetch(pid)
				if err != nil {
					t.Errorf("fetch %d: %v", pid, err)
					return
				}
				if f.ID != pid {
					t.Errorf("fetch %d returned frame for page %d", pid, f.ID)
				}
				// While f is pinned it cannot be evicted, so a second
				// fetch must find the very same frame.
				g, err := p.Fetch(pid)
				if err != nil {
					t.Errorf("refetch %d: %v", pid, err)
					p.Unpin(f)
					return
				}
				if g != f {
					t.Errorf("page %d: pinned frame was evicted and reloaded", pid)
				}
				p.Unpin(g)
				if rnd%4 == 0 {
					f.Latch.AcquireX()
					lsn := lg.Append(&wal.Record{
						Type: wal.RecUpdate, TxnID: wal.TxnID(w + 1), PrevLSN: last,
						StoreID: p.StoreID, PageID: uint64(pid),
					})
					last = lsn
					f.MarkDirty(lsn)
					f.Latch.ReleaseX()
				}
				p.Unpin(f)
			}
		}(w)
	}

	for i := 0; i < ckpts; i++ {
		dpt := p.DirtyPages()
		for pid, rec := range dpt {
			if rec == wal.NilLSN {
				t.Errorf("checkpoint %d: dirty page %d with nil recLSN", i, pid)
			}
		}
		if _, err := p.FlushAll(); err != nil {
			t.Errorf("checkpoint %d flush: %v", i, err)
		}
		checkWALRule(t, p, lg)
	}
	close(stop)
	wg.Wait()

	if _, err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	checkWALRule(t, p, lg)
	if got := p.BufferedCount(); got > capacity+workers {
		t.Errorf("buffered = %d after quiesce, want <= %d", got, capacity+workers)
	}
}
