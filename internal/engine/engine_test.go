package engine

import (
	"errors"
	"testing"

	"repro/internal/storage"
	"repro/internal/wal"
)

// byteCodec stores raw byte slices.
type byteCodec struct{}

func (byteCodec) AppendPage(dst []byte, v any) ([]byte, error) {
	return append(dst, v.([]byte)...), nil
}
func (byteCodec) DecodePage(b []byte) (any, error) { return append([]byte(nil), b...), nil }

// A trivial record kind for engine-level tests: set page contents.
const kindSet wal.Kind = 250

func registerSet(reg *storage.Registry) {
	reg.Register(kindSet, storage.Handler{
		Redo: func(f *storage.Frame, rec *wal.Record) error {
			f.Data = append([]byte(nil), rec.Payload...)
			return nil
		},
		Image: true,
	})
}

func TestEngineMultiStoreCrashRestart(t *testing.T) {
	e := New(Options{})
	registerSet(e.Reg)
	stA := e.AddStore(1, byteCodec{})
	stB := e.AddStore(2, byteCodec{})

	aa := e.TM.BeginAtomicAction()
	if err := stA.Bootstrap(aa); err != nil {
		t.Fatal(err)
	}
	if err := stB.Bootstrap(aa); err != nil {
		t.Fatal(err)
	}
	write := func(st *storage.Store, pid storage.PageID, val string) {
		f, err := st.Pool.Create(pid)
		if err != nil {
			t.Fatal(err)
		}
		f.Latch.AcquireX()
		aa.LogUpdate(f, kindSet, []byte(val))
		f.Data = []byte(val)
		f.Latch.ReleaseX()
		st.Pool.Unpin(f)
	}
	write(stA, 5, "store-a")
	write(stB, 5, "store-b")
	if err := aa.Commit(); err != nil {
		t.Fatal(err)
	}
	e.Log.ForceAll()

	img := e.Crash(nil)
	if names, err := img.FS.ReadDir("."); err != nil || len(names) != 2 {
		t.Fatalf("crash image holds page files %v (%v), want two", names, err)
	}
	e2 := Restarted(img, Options{})
	registerSet(e2.Reg)
	stA2 := e2.AddStore(1, byteCodec{})
	stB2 := e2.AddStore(2, byteCodec{})
	if _, err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		st   *storage.Store
		want string
	}{{stA2, "store-a"}, {stB2, "store-b"}} {
		f, err := tc.st.Pool.Fetch(5)
		if err != nil {
			t.Fatalf("fetch: %v", err)
		}
		if string(f.Data.([]byte)) != tc.want {
			t.Fatalf("got %q want %q", f.Data, tc.want)
		}
		tc.st.Pool.Unpin(f)
	}
}

func TestEngineCheckpointAnchor(t *testing.T) {
	e := New(Options{})
	registerSet(e.Reg)
	st := e.AddStore(1, byteCodec{})
	aa := e.TM.BeginAtomicAction()
	if err := st.Bootstrap(aa); err != nil {
		t.Fatal(err)
	}
	_ = aa.Commit()
	lsn, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if e.Log.CheckpointLSN() != lsn {
		t.Fatal("anchor not recorded")
	}
	img, err := wal.DirImage(e.Crash(nil).FS, "wal")
	if err != nil || img.CheckpointLSN() != lsn {
		t.Fatalf("anchor lost across crash (%v)", err)
	}
}

func TestEngineDuplicateStorePanics(t *testing.T) {
	e := New(Options{})
	e.AddStore(1, byteCodec{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate store id did not panic")
		}
	}()
	e.AddStore(1, byteCodec{})
}

func TestEngineFlushAllBoundsRedo(t *testing.T) {
	e := New(Options{})
	registerSet(e.Reg)
	st := e.AddStore(1, byteCodec{})
	aa := e.TM.BeginAtomicAction()
	if err := st.Bootstrap(aa); err != nil {
		t.Fatal(err)
	}
	f, err := st.Pool.Create(9)
	if err != nil {
		t.Fatal(err)
	}
	f.Latch.AcquireX()
	aa.LogUpdate(f, kindSet, []byte("x"))
	f.Data = []byte("x")
	f.Latch.ReleaseX()
	st.Pool.Unpin(f)
	_ = aa.Commit()
	if err := e.Log.ForceAll(); err != nil {
		t.Fatal(err)
	}
	if n, err := e.FlushAll(); err != nil || n == 0 {
		t.Fatalf("flush all: n=%d err=%v", n, err)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	img := e.Crash(nil)
	e2 := Restarted(img, Options{})
	registerSet(e2.Reg)
	e2.AddStore(1, byteCodec{})
	stats, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.RedoneRecords != 0 {
		t.Fatalf("redo after flush+checkpoint did %d records, want 0", stats.RedoneRecords)
	}
}

func TestStoreMissingFromImage(t *testing.T) {
	e := New(Options{})
	registerSet(e.Reg)
	st := e.AddStore(1, byteCodec{})
	if _, err := st.Pool.Fetch(77); !errors.Is(err, storage.ErrPageNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// TestCheckpointMakesItsCleanPagesDurable: a page written back before a
// checkpoint is clean in its dirty page table, so a restart from that
// anchor redoes nothing of the page's older records; the checkpoint must
// have synced the page file first, or a crash loses the write (the file
// system keeps only synced bytes).
func TestCheckpointMakesItsCleanPagesDurable(t *testing.T) {
	e := New(Options{})
	registerSet(e.Reg)
	st := e.AddStore(1, byteCodec{})
	aa := e.TM.BeginAtomicAction()
	if err := st.Bootstrap(aa); err != nil {
		t.Fatal(err)
	}
	f, err := st.Pool.Create(5)
	if err != nil {
		t.Fatal(err)
	}
	f.Latch.AcquireX()
	aa.LogUpdate(f, kindSet, []byte("written back"))
	f.Data = []byte("written back")
	f.Latch.ReleaseX()
	st.Pool.Unpin(f)
	if err := aa.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e2 := Restarted(e.Crash(nil), Options{})
	registerSet(e2.Reg)
	st2 := e2.AddStore(1, byteCodec{})
	if _, err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	f, err = st2.Pool.Fetch(5)
	if err != nil {
		t.Fatalf("page written back before the checkpoint lost: %v", err)
	}
	defer st2.Pool.Unpin(f)
	if string(f.Data.([]byte)) != "written back" {
		t.Fatalf("page 5 = %q after restart", f.Data)
	}
}
