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
		lsn := aa.LogUpdate(st.Pool.StoreID, uint64(pid), kindSet, []byte(val))
		f.Data = []byte(val)
		f.MarkDirty(lsn)
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
	if len(img.Disks) != 2 {
		t.Fatalf("crash image has %d disks", len(img.Disks))
	}
	e2 := Restarted(img, Options{})
	registerSet(e2.Reg)
	stA2 := e2.AttachStore(1, byteCodec{}, img.Disks[1])
	stB2 := e2.AttachStore(2, byteCodec{}, img.Disks[2])
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
	img := e.Crash(nil)
	if img.LogImage.CheckpointLSN() != lsn {
		t.Fatal("anchor lost across crash")
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
	lsn := aa.LogUpdate(1, 9, kindSet, []byte("x"))
	f.Data = []byte("x")
	f.MarkDirty(lsn)
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
	e2.AttachStore(1, byteCodec{}, img.Disks[1])
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
