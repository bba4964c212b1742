package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// kindSwap replaces a page's contents and can be undone: its payload
// carries the old contents in front of the new.
const kindSwap wal.Kind = 251

func registerSwap(reg *storage.Registry) {
	registerSet(reg)
	split := func(p []byte) (old, new []byte) {
		n := binary.LittleEndian.Uint32(p)
		return p[4 : 4+n], p[4+n:]
	}
	reg.Register(kindSwap, storage.Handler{
		Redo: func(f *storage.Frame, rec *wal.Record) error {
			_, new := split(rec.Payload)
			f.Data = append([]byte(nil), new...)
			return nil
		},
		MakeUndo: func(rec *wal.Record, _ storage.LogReader) (storage.Compensation, error) {
			old, _ := split(rec.Payload)
			return storage.Compensation{Kind: kindSet, Payload: old}, nil
		},
		Image: true,
	})
}

// wbEnv is a file-backed engine with one byte-page store, for the
// write-back tests: 64 KiB WAL segments make the redo window 1 MiB.
type wbEnv struct {
	t  *testing.T
	e  *Engine
	st *storage.Store
}

const wbSegment = 64 << 10
const wbWindow = wal.RedoWindowSegments * wbSegment

func openWB(t *testing.T, dir string, interval time.Duration) (*wbEnv, bool) {
	t.Helper()
	return openWBOpts(t, Options{DataDir: dir, WriteBackInterval: interval})
}

// openWBOpts is openWB with the caller's options beside the fixed ones.
func openWBOpts(t *testing.T, o Options) (*wbEnv, bool) {
	t.Helper()
	o.SegmentSize, o.Sync = wbSegment, wal.SyncNever
	e, recovered, err := Open(o)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	registerSwap(e.Reg)
	v := &wbEnv{t: t, e: e, st: e.AddStore(1, byteCodec{})}
	if !recovered {
		aa := e.TM.BeginAtomicAction()
		if err := v.st.Bootstrap(aa); err != nil {
			t.Fatalf("bootstrap: %v", err)
		}
		if err := aa.Commit(); err != nil {
			t.Fatalf("bootstrap commit: %v", err)
		}
	}
	return v, recovered
}

// swap logs and applies "page pid := val" inside tx.
func (v *wbEnv) swap(tx *txn.Txn, pid storage.PageID, val []byte) {
	v.t.Helper()
	f, err := v.st.Pool.FetchOrCreate(pid)
	if err != nil {
		v.t.Fatalf("page %d: %v", pid, err)
	}
	f.Latch.AcquireX()
	old, _ := f.Data.([]byte)
	payload := binary.LittleEndian.AppendUint32(nil, uint32(len(old)))
	payload = append(append(payload, old...), val...)
	tx.LogUpdate(f, kindSwap, payload)
	f.Data = append([]byte(nil), val...)
	f.Latch.ReleaseX()
	v.st.Pool.Unpin(f)
}

// put is one committed user transaction writing val to pid.
func (v *wbEnv) put(pid storage.PageID, val []byte) {
	v.t.Helper()
	tx := v.e.TM.Begin()
	v.swap(tx, pid, val)
	if err := tx.Commit(); err != nil {
		v.t.Fatalf("commit: %v", err)
	}
}

// logPastWindow puts 2 000-byte values to pid until the log has grown by
// more than one redo window, so every page dirtied before the call is
// due under the write-back rule.
func (v *wbEnv) logPastWindow(pid storage.PageID) {
	v.t.Helper()
	from := v.e.Log.EndLSN()
	for round := 0; v.e.Log.EndLSN() <= from+wbWindow; round++ {
		v.put(pid, bytes.Repeat([]byte{byte(round)}, 2000))
	}
}

func (v *wbEnv) read(pid storage.PageID) string {
	v.t.Helper()
	f, err := v.st.Pool.Fetch(pid)
	if err != nil {
		v.t.Fatalf("fetch %d: %v", pid, err)
	}
	defer v.st.Pool.Unpin(f)
	return string(f.Data.([]byte))
}

// settle waits until cond holds, for the writer's next few ticks.
func settle(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// val256 is a 256-byte value naming its page and round.
func val256(pid storage.PageID, round int) []byte {
	b := make([]byte, 256)
	copy(b, fmt.Sprintf("page %d round %d", pid, round))
	return b
}

// TestWriteBackHoldsTheRedoWindow: under sustained writes the writer keeps
// the oldest dirty recLSN within the window of the log tail, and the
// pages inside the window are left alone — once the writes stop, nothing
// more is written although pages are still dirty.
func TestWriteBackHoldsTheRedoWindow(t *testing.T) {
	v, _ := openWB(t, t.TempDir(), time.Millisecond)
	defer v.e.Close()
	const pages = 400
	for round := 0; round < 40; round++ { // ~10 windows of log
		for i := 0; i < pages; i++ {
			pid := storage.PageID(2 + i)
			v.put(pid, val256(pid, round))
		}
		// One tick of slack: the writer has until its next look.
		settle(t, "the redo window is back in budget", func() bool {
			return v.e.WriteBackStats().RedoWindow <= wbWindow
		})
	}
	ws := v.e.WriteBackStats()
	if ws.Flushed == 0 {
		t.Fatalf("ten windows of log and nothing was written back: %+v", ws)
	}
	// Every put dirties a page once per window at most; the old policy
	// wrote every page every tick.
	if ws.Flushed > 40*pages/2 {
		t.Fatalf("%d page writes for %d updates: pages are not riding the window", ws.Flushed, 40*pages)
	}
	_, dirty := v.st.Pool.DirtyWatermark()
	if dirty == 0 {
		t.Fatalf("no page is dirty: in-window pages were written anyway: %+v", ws)
	}
	// Quiescent now: the tail stands still, so every dirty page stays in
	// the window and every tick must short-circuit.
	time.Sleep(30 * time.Millisecond)
	after := v.e.WriteBackStats()
	_, dirtyAfter := v.st.Pool.DirtyWatermark()
	if after.Flushed != ws.Flushed || dirtyAfter != dirty {
		t.Fatalf("in-window pages were written while idle: flushed %d -> %d, dirty %d -> %d", ws.Flushed, after.Flushed, dirty, dirtyAfter)
	}
	if after.IdleTicks == ws.IdleTicks || after.SkippedInWindow == ws.SkippedInWindow {
		t.Fatalf("idle ticks were not short-circuited: %+v -> %+v", ws, after)
	}
}

// TestCheckpointLeavesInWindowPageAlone: the redo window is the only
// write-back rule. A checkpoint taken while a dirty page is inside the
// window leaves it dirty, a second checkpoint does too, and the first
// tick after a window of log has passed it writes it.
func TestCheckpointLeavesInWindowPageAlone(t *testing.T) {
	v, _ := openWB(t, t.TempDir(), time.Hour) // ticks only when the test calls them
	defer v.e.Close()
	v.put(2, []byte("in window"))
	dirty := func() bool { _, ok := v.st.Pool.DirtyPages()[2]; return ok }
	for i := 0; i < 2; i++ {
		if _, err := v.e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if ws := v.e.WriteBackStats(); !dirty() || ws.Flushed != 0 {
			t.Fatalf("checkpoint %d wrote an in-window page: dirty %v, %+v", i+1, dirty(), ws)
		}
	}
	v.logPastWindow(3)
	if !dirty() {
		t.Fatal("page 2 was written with no tick and no checkpoint")
	}
	v.e.bg.tick()
	if ws := v.e.WriteBackStats(); dirty() || ws.Flushed == 0 {
		t.Fatalf("the tick left page 2 dirty out of the window: %+v", ws)
	}
	if got := v.read(2); got != "in window" {
		t.Fatalf("page 2 = %q", got)
	}
}

// TestIdleTickDoesNoPerFrameWork: with every pool inside its window a tick
// allocates nothing — it reads a few atomics, it does not snapshot, pin
// or sort frames.
func TestIdleTickDoesNoPerFrameWork(t *testing.T) {
	v, _ := openWB(t, t.TempDir(), time.Hour) // ticks only when the test calls them
	defer v.e.Close()
	for i := 0; i < 500; i++ {
		pid := storage.PageID(2 + i)
		v.put(pid, val256(pid, 0))
	}
	before := v.e.WriteBackStats()
	if allocs := testing.AllocsPerRun(200, v.e.bg.tick); allocs != 0 {
		t.Fatalf("an in-budget tick allocates %.1f times", allocs)
	}
	after := v.e.WriteBackStats()
	if after.IdleTicks-before.IdleTicks != after.Ticks-before.Ticks || after.Flushed != 0 {
		t.Fatalf("ticks over 500 in-window dirty pages were not idle: %+v", after)
	}
}

// TestLogBufferFollowsTheLiveLog: short transactions leave nothing for
// memory to keep, so after ten windows of log the buffer holds about one.
func TestLogBufferFollowsTheLiveLog(t *testing.T) {
	v, _ := openWB(t, t.TempDir(), time.Millisecond)
	defer v.e.Close()
	for round := 0; v.e.Log.EndLSN() < 10*wbWindow; round++ {
		for i := 0; i < 64; i++ {
			pid := storage.PageID(2 + i)
			v.put(pid, val256(pid, round))
		}
	}
	settle(t, "the log buffer is trimmed to the window", func() bool {
		return v.e.WriteBackStats().LogBuffered <= wbWindow
	})
	ws := v.e.WriteBackStats()
	if ws.LogBufferFrom <= 1 {
		t.Fatalf("trim LSN did not move: %+v", ws)
	}

}

// TestOldTransactionRollsBackPastTheWindow: a transaction older than the
// window pins the log buffer at its first record, so its rollback can
// still read what it wrote.
func TestOldTransactionRollsBackPastTheWindow(t *testing.T) {
	v, _ := openWB(t, t.TempDir(), time.Millisecond)
	defer v.e.Close()
	v.put(2, []byte("before"))
	old := v.e.TM.Begin()
	first := v.e.Log.EndLSN()
	v.swap(old, 2, []byte("uncommitted"))
	for round := 0; v.e.Log.EndLSN() < first+3*wbWindow; round++ {
		for i := 0; i < 64; i++ {
			pid := storage.PageID(10 + i)
			v.put(pid, val256(pid, round))
		}
	}
	time.Sleep(20 * time.Millisecond) // let ticks try to trim
	if ws := v.e.WriteBackStats(); ws.LogBufferFrom > first {
		t.Fatalf("log trimmed to %d past the open transaction's begin at %d", ws.LogBufferFrom, first)
	}
	if err := old.Abort(); err != nil {
		t.Fatalf("rollback of the old transaction: %v", err)
	}
	if got := v.read(2); got != "before" {
		t.Fatalf("page 2 = %q after rollback, want %q", got, "before")
	}
	// With the old transaction gone the buffer is released.
	settle(t, "the log buffer is released", func() bool {
		return v.e.WriteBackStats().LogBuffered <= wbWindow
	})
}

// TestKillWithAFullWindowUnflushed: the writer has written nothing — every
// dirty page is still inside the window — when the process dies. Restart
// must redo the whole window from the WAL files alone and return every
// acknowledged commit, with the in-memory log long trimmed.
func TestKillWithAFullWindowUnflushed(t *testing.T) {
	dir := t.TempDir()
	v, _ := openWB(t, dir, time.Millisecond)
	const pages = 300
	want := make(map[storage.PageID]string)
	for round := 0; v.e.Log.EndLSN() < wbWindow*3/4; round++ {
		for i := 0; i < pages; i++ {
			pid := storage.PageID(2 + i)
			val := val256(pid, round)
			v.put(pid, val)
			want[pid] = string(val)
		}
	}
	settle(t, "the log buffer is trimmed", func() bool { return v.e.WriteBackStats().LogBufferFrom > 1 })
	ws := v.e.WriteBackStats()
	if _, dirty := v.st.Pool.DirtyWatermark(); ws.Flushed != 0 || dirty < pages {
		t.Fatalf("want a full window of never-written pages, have %d dirty and %+v", dirty, ws)
	}
	// The kill: no Close, no flush. Only the writer goroutine is stopped,
	// as the process's death would stop it.
	v.e.bg.stop()

	v2, recovered := openWB(t, dir, time.Millisecond)
	defer v2.e.Close()
	if !recovered {
		t.Fatal("reopen found no log")
	}
	st, err := v2.e.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if st.RedoneRecords < len(want) {
		t.Fatalf("redo replayed %d records for %d never-written pages", st.RedoneRecords, len(want))
	}
	for pid, val := range want {
		if got := v2.read(pid); got != val {
			t.Fatalf("page %d = %q after the kill, want %q", pid, got, val)
		}
	}
}
