package storage

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/wal"
)

// dirtyAt creates (or fetches) pid and dirties it at lsn.
func dirtyAt(t *testing.T, p *Pool, pid PageID, lsn wal.LSN) {
	t.Helper()
	f, err := p.FetchOrCreate(pid)
	if err != nil {
		t.Fatal(err)
	}
	f.Latch.AcquireX()
	f.Data = []byte{byte(pid)}
	f.MarkDirty(lsn)
	f.Latch.ReleaseX()
	p.Unpin(f)
}

// checkDirtyIndex compares the incremental dirty index with the full scan
// the checkpoint takes: same count, and the watermark is the scan's
// minimum recLSN.
func checkDirtyIndex(t testing.TB, p *Pool) {
	t.Helper()
	dpt := p.DirtyPages()
	oldest, n := p.DirtyWatermark()
	if n != len(dpt) {
		t.Fatalf("dirty index counts %d pages, the scan finds %d", n, len(dpt))
	}
	min := wal.NilLSN
	for _, rec := range dpt {
		if min == wal.NilLSN || rec < min {
			min = rec
		}
	}
	if oldest != min {
		t.Fatalf("dirty watermark = %d, oldest recLSN in the scan = %d", oldest, min)
	}
}

// TestDirtyIndexTracksBothRegimes drives every way a page enters and
// leaves the dirty set — MarkDirty in arbitrary recLSN order (as parallel
// redo produces), re-dirtying, FlushPage, FlushAll, eviction write-back,
// Drop — and checks the index against the full scan after each step.
func TestDirtyIndexTracksBothRegimes(t *testing.T) {
	for _, capacity := range []int{0, 16} {
		p, log := newTestPool(capacity)
		// Flushes force the log through each pageLSN; give it that much.
		log.Append(&wal.Record{Type: wal.RecUpdate, Payload: make([]byte, 1<<16)})
		rng := rand.New(rand.NewSource(int64(capacity) + 1))
		lsns := rng.Perm(12)
		for i, l := range lsns {
			dirtyAt(t, p, PageID(2+i), wal.LSN(100+10*l))
			checkDirtyIndex(t, p)
		}
		dirtyAt(t, p, 2, 5000) // already dirty: recLSN and index entry stay
		checkDirtyIndex(t, p)

		if err := p.FlushPage(PageID(2 + indexOf(lsns, 0))); err != nil { // the oldest
			t.Fatal(err)
		}
		checkDirtyIndex(t, p)
		if _, n := p.DirtyWatermark(); n != 11 {
			t.Fatalf("dirty count after one flush = %d, want 11", n)
		}
		p.Drop(PageID(2 + indexOf(lsns, 1)))
		checkDirtyIndex(t, p)

		if capacity > 0 {
			// Push clean pages through the bounded pool until dirty victims
			// are written back by eviction.
			for pid := PageID(100); pid < 160; pid++ {
				f := mustCreate(t, p, pid)
				p.Unpin(f)
			}
			if _, n := p.DirtyWatermark(); n >= 10 {
				t.Fatalf("eviction wrote nothing back: %d still dirty", n)
			}
			checkDirtyIndex(t, p)
		}
		if _, err := p.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if oldest, n := p.DirtyWatermark(); n != 0 || oldest != wal.NilLSN {
			t.Fatalf("after FlushAll the index holds %d pages, oldest %d", n, oldest)
		}
		dirtyAt(t, p, 3, 7000) // clean -> dirty again re-enters
		checkDirtyIndex(t, p)
	}
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// TestDirtyBelow: the pages under a cutoff come back, all of them when
// they fit the limit and the oldest ones when they do not.
func TestDirtyBelow(t *testing.T) {
	p, _ := newTestPool(0)
	rng := rand.New(rand.NewSource(7))
	for i, l := range rng.Perm(200) {
		dirtyAt(t, p, PageID(2+i), wal.LSN(1000+l))
	}
	recOf := p.DirtyPages()

	got := p.DirtyBelow(1050, 1000, nil)
	if len(got) != 50 {
		t.Fatalf("%d pages below the cutoff, want 50", len(got))
	}
	for _, pid := range got {
		if recOf[pid] >= 1050 {
			t.Fatalf("page %d (recLSN %d) is not below 1050", pid, recOf[pid])
		}
	}
	got = p.DirtyBelow(1150, 20, nil)
	if len(got) != 20 {
		t.Fatalf("limit 20 returned %d pages", len(got))
	}
	sort.Slice(got, func(i, j int) bool { return recOf[got[i]] < recOf[got[j]] })
	if recOf[got[0]] != 1000 || recOf[got[19]] != 1019 {
		t.Fatalf("limit did not keep the oldest: recLSNs %d..%d", recOf[got[0]], recOf[got[19]])
	}
	if got := p.DirtyBelow(1000, 10, nil); len(got) != 0 {
		t.Fatalf("nothing is below the oldest recLSN, got %v", got)
	}
}
