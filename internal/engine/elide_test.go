package engine

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/storage"
	"repro/internal/wal"
)

// TestElidedPageHoldsHorizon: a page a bounded pool elided stays in the
// checkpoint's dirty page table, so the recycle horizon a checkpoint sets
// never passes its chain. With the in-memory log released past that chain
// the page's next fetch replays it from the WAL segment files.
func TestElidedPageHoldsHorizon(t *testing.T) {
	v, _ := openWBOpts(t, Options{DataDir: t.TempDir(), PoolCapacity: 4})
	defer v.e.Close()
	// A window of log past the bootstrap's pages makes them due, so this
	// checkpoint writes them and page 10 is the oldest dirty page below.
	v.logPastWindow(40)
	if _, err := v.e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	v.put(10, []byte("kept"))
	rec := v.e.Log.EndLSN()
	for pid := storage.PageID(11); pid < 20; pid++ { // evicts page 10: elided
		v.put(pid, []byte("x"))
	}
	pool := v.st.Pool
	if _, ok := pool.DirtyPages()[10]; !ok || pool.ElidedCount() == 0 {
		t.Fatalf("page 10 is not elided: %d elided, dirty %v", pool.ElidedCount(), pool.DirtyPages())
	}
	if oldest, _ := pool.DirtyWatermark(); oldest >= rec {
		t.Fatalf("the dirty watermark %d does not cover page 10 (recLSN below %d)", oldest, rec)
	}
	// Log enough to leave memory and roll WAL segments, inside one redo
	// window of page 10, and checkpoint: page 10 is not due, and the
	// horizon must stop at it.
	big := bytes.Repeat([]byte{'y'}, 2000)
	for i := 0; i < 200; i++ {
		v.put(storage.PageID(30+i%4), big)
	}
	if _, err := v.e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wb := v.e.WriteBackStats()
	if wb.RecycleHorizon <= 1 || wb.RecycleHorizon >= rec {
		t.Fatalf("recycle horizon %d: want it past the log's start and below page 10's chain at %d", wb.RecycleHorizon, rec)
	}
	if wb.LogBufferFrom <= rec {
		t.Fatalf("the in-memory log still starts at %d, below page 10's chain at %d", wb.LogBufferFrom, rec)
	}
	if wb.Elided == 0 {
		t.Fatal("WriteBackStats counts no elided page")
	}
	replays := pool.Stats().Replays
	if got := v.read(10); got != "kept" {
		t.Fatalf("page 10 reads %q", got)
	}
	if pool.Stats().Replays == replays {
		t.Fatal("page 10 was not replayed")
	}
}

// TestCloseLeavesNothingElided: Close writes every elided page back, so a
// closed directory restarts without redoing a record.
func TestCloseLeavesNothingElided(t *testing.T) {
	dir := t.TempDir()
	v, _ := openWBOpts(t, Options{DataDir: dir, PoolCapacity: 4})
	for pid := storage.PageID(2); pid < 40; pid++ {
		v.put(pid, []byte(fmt.Sprint("v", pid)))
	}
	if v.st.Pool.ElidedCount() == 0 {
		t.Fatal("nothing was elided")
	}
	if err := v.e.Close(); err != nil {
		t.Fatal(err)
	}
	if n := v.st.Pool.ElidedCount(); n != 0 {
		t.Fatalf("Close left %d pages elided", n)
	}
	e, recovered, err := Open(Options{DataDir: dir, SegmentSize: wbSegment, Sync: wal.SyncNever, PoolCapacity: 4})
	if err != nil || !recovered {
		t.Fatalf("reopen: recovered=%v err=%v", recovered, err)
	}
	defer e.Close()
	registerSwap(e.Reg)
	st := e.AddStore(1, byteCodec{})
	p, err := e.AnalyzeAndRedo()
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.RedoneRecords != 0 {
		t.Fatalf("restart after Close redid %d records", p.Stats.RedoneRecords)
	}
	if err := e.FinishRecovery(p); err != nil {
		t.Fatal(err)
	}
	for pid := storage.PageID(2); pid < 40; pid++ {
		f, err := st.Pool.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(f.Data.([]byte)); got != fmt.Sprint("v", pid) {
			t.Fatalf("page %d reads %q", pid, got)
		}
		st.Pool.Unpin(f)
	}
}
