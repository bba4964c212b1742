package engine

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/storage"
)

// fileWorkload runs one deterministic, single-threaded workload against
// an engine: bootstrap the store, write pages via committed atomic
// actions, flush and checkpoint midway so the crash image mixes
// already-stable pages with redo-only tail updates.
func fileWorkload(t *testing.T, e *Engine, st *storage.Store) {
	t.Helper()
	aa := e.TM.BeginAtomicAction()
	if err := st.Bootstrap(aa); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if err := aa.Commit(); err != nil {
		t.Fatalf("bootstrap commit: %v", err)
	}
	write := func(pid storage.PageID, val string, create bool) {
		aa := e.TM.BeginAtomicAction()
		var f *storage.Frame
		var err error
		if create {
			f, err = st.Pool.Create(pid)
		} else {
			f, err = st.Pool.Fetch(pid)
		}
		if err != nil {
			t.Fatalf("page %d: %v", pid, err)
		}
		f.Latch.AcquireX()
		lsn := aa.LogUpdate(st.Pool.StoreID, uint64(pid), kindSet, []byte(val))
		f.Data = []byte(val)
		f.MarkDirty(lsn)
		f.Latch.ReleaseX()
		st.Pool.Unpin(f)
		if err := aa.Commit(); err != nil {
			t.Fatalf("commit page %d: %v", pid, err)
		}
	}
	for i := 0; i < 40; i++ {
		pid := storage.PageID(2 + i)
		write(pid, fmt.Sprintf("first.%d", pid), true)
	}
	// Midpoint: make the first half stable, then checkpoint. On the
	// file engine this also syncs the page file and recycles segments.
	if _, err := e.FlushAll(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Tail updates after the checkpoint: stable only in the log, so
	// recovery must redo them onto the flushed images.
	for i := 0; i < 40; i += 2 {
		pid := storage.PageID(2 + i)
		write(pid, fmt.Sprintf("second.%d", pid), false)
	}
	if err := e.Log.ForceAll(); err != nil {
		t.Fatalf("force: %v", err)
	}
}

// TestEngineFileMemRecoveryEquivalence runs the identical workload on a
// memory-backed engine and a file-backed engine, crashes both (the mem
// engine via the crash image, the file engine by abandoning the process
// state and replaying its directory), recovers both, and demands the
// recovered disk images be byte-identical. The file layer — CRC framing,
// segment stitching, master anchors, copy-on-write page files — must be
// invisible to recovery semantics.
func TestEngineFileMemRecoveryEquivalence(t *testing.T) {
	// Memory side.
	em := New(Options{})
	registerSet(em.Reg)
	stm := em.AddStore(1, byteCodec{})
	fileWorkload(t, em, stm)

	// File side: small segments so the workload spans several and the
	// checkpoint actually recycles some.
	dir := t.TempDir()
	ef, recovered, err := Open(Options{DataDir: dir, SegmentSize: 4096})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if recovered {
		t.Fatalf("fresh dir claims recovery")
	}
	registerSet(ef.Reg)
	stf := ef.AddStore(1, byteCodec{})
	fileWorkload(t, ef, stf)

	// Crash both. The mem engine snapshots its stable state; the file
	// engine is simply abandoned — no Close, no final flush — and its
	// next incarnation replays the real files.
	img := em.Crash(nil)
	em2 := Restarted(img, Options{})
	registerSet(em2.Reg)
	stm2 := em2.AttachStore(1, byteCodec{}, img.Disks[1])
	if _, err := em2.Recover(); err != nil {
		t.Fatalf("mem recover: %v", err)
	}

	ef2, recovered, err := Open(Options{DataDir: dir, SegmentSize: 4096})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !recovered {
		t.Fatalf("reopen found no log to recover")
	}
	registerSet(ef2.Reg)
	stf2 := ef2.AddStore(1, byteCodec{})
	if _, err := ef2.Recover(); err != nil {
		t.Fatalf("file recover: %v", err)
	}
	ws, _ := ef2.FileStats()
	if ws.ReplayRecords == 0 {
		t.Fatalf("file replay read no records")
	}

	// Materialize both recovered states and compare byte for byte.
	if _, err := em2.FlushAll(); err != nil {
		t.Fatalf("mem flush: %v", err)
	}
	if _, err := ef2.FlushAll(); err != nil {
		t.Fatalf("file flush: %v", err)
	}
	sm := stm2.Pool.Disk().Snapshot()
	sf := stf2.Pool.Disk().Snapshot()
	if sm.Len() != sf.Len() {
		t.Fatalf("recovered page counts differ: mem %d, file %d", sm.Len(), sf.Len())
	}
	for _, pid := range sm.PageIDs() {
		a, aok, aerr := sm.Read(pid)
		b, bok, berr := sf.Read(pid)
		if aerr != nil || berr != nil || aok != bok {
			t.Fatalf("page %d: mem ok=%v err=%v, file ok=%v err=%v", pid, aok, aerr, bok, berr)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("recovered page %d differs:\n mem  %q\n file %q", pid, a, b)
		}
	}
	if err := ef2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestEngineFileCloseReopen checks the clean-shutdown path: Close syncs
// everything, and the next Open still replays the log and recovers the
// same state (a clean shutdown is just a crash with no losers).
func TestEngineFileCloseReopen(t *testing.T) {
	dir := t.TempDir()
	e, _, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	registerSet(e.Reg)
	st := e.AddStore(1, byteCodec{})
	fileWorkload(t, e, st)
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	e2, recovered, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !recovered {
		t.Fatalf("reopen found no log")
	}
	registerSet(e2.Reg)
	st2 := e2.AddStore(1, byteCodec{})
	if _, err := e2.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	check := func(pid storage.PageID, want string) {
		f, err := st2.Pool.Fetch(pid)
		if err != nil {
			t.Fatalf("fetch %d: %v", pid, err)
		}
		if got := string(f.Data.([]byte)); got != want {
			t.Fatalf("page %d = %q, want %q", pid, got, want)
		}
		st2.Pool.Unpin(f)
	}
	check(2, "second.2")
	check(3, "first.3")
	if err := e2.Close(); err != nil {
		t.Fatalf("close 2: %v", err)
	}
}

// TestEngineFileBackgroundWriter checks that the background writer
// actually drains the dirty page table without any explicit flush.
func TestEngineFileBackgroundWriter(t *testing.T) {
	dir := t.TempDir()
	e, _, err := Open(Options{DataDir: dir, WriteBackInterval: time.Millisecond})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	registerSet(e.Reg)
	st := e.AddStore(1, byteCodec{})
	aa := e.TM.BeginAtomicAction()
	if err := st.Bootstrap(aa); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if err := aa.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	for i := 0; i < 30; i++ {
		aa := e.TM.BeginAtomicAction()
		pid := storage.PageID(2 + i)
		f, err := st.Pool.Create(pid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		f.Latch.AcquireX()
		lsn := aa.LogUpdate(1, uint64(pid), kindSet, []byte("bg"))
		f.Data = []byte("bg")
		f.MarkDirty(lsn)
		f.Latch.ReleaseX()
		st.Pool.Unpin(f)
		if err := aa.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(st.Pool.DirtyPages()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background writer left %d dirty pages", len(st.Pool.DirtyPages()))
		}
		time.Sleep(2 * time.Millisecond)
	}
	ws := e.WriteBackStats()
	if ws.Flushed == 0 || ws.Ticks == 0 {
		t.Fatalf("writer stats: %+v", ws)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
