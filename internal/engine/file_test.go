package engine

import (
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
		aa.LogUpdate(f, kindSet, []byte(val))
		f.Data = []byte(val)
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
// actually writes every due page without any explicit flush: a redo
// window of log past them makes 30 pages due, and nothing but the
// writer's ticks looks.
func TestEngineFileBackgroundWriter(t *testing.T) {
	v, _ := openWB(t, t.TempDir(), time.Millisecond)
	e, st := v.e, v.st
	for i := 0; i < 30; i++ {
		aa := e.TM.BeginAtomicAction()
		pid := storage.PageID(2 + i)
		f, err := st.Pool.Create(pid)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		f.Latch.AcquireX()
		aa.LogUpdate(f, kindSet, []byte("bg"))
		f.Data = []byte("bg")
		f.Latch.ReleaseX()
		st.Pool.Unpin(f)
		if err := aa.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	v.logPastWindow(100)
	dirty := func() int {
		n, d := 0, st.Pool.DirtyPages()
		for i := 0; i < 30; i++ {
			if _, ok := d[storage.PageID(2+i)]; ok {
				n++
			}
		}
		return n
	}
	// Only a tick writes here (no checkpoint, no eviction), and it counts
	// a batch once the batch is written: wait for the count too.
	deadline := time.Now().Add(5 * time.Second)
	for dirty() > 0 || e.WriteBackStats().Flushed < 30 {
		if time.Now().After(deadline) {
			t.Fatalf("background writer left %d dirty pages: %+v", dirty(), e.WriteBackStats())
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
