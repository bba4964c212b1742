package recovery

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/fsys"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// The counter fixture mirrors the one in package txn: pages hold a single
// int64 and records carry deltas, so recovered states are easy to assert.
const counterKind wal.Kind = 200

// counterSetKind sets a counter page to a value. Its record carries the
// page's whole contents (and the value before, for its undo), so it is an
// image kind: a chain walk may start from it.
const counterSetKind wal.Kind = 201

type counter struct{ v int64 }

type counterCodec struct{}

func (counterCodec) AppendPage(dst []byte, v any) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(dst, uint64(v.(*counter).v)), nil
}

func (counterCodec) DecodePage(b []byte) (any, error) {
	return &counter{v: int64(binary.LittleEndian.Uint64(b))}, nil
}

func delta(d int64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(d))
	return b[:]
}

func registerCounter(reg *storage.Registry) {
	reg.Register(counterKind, storage.Handler{
		Redo: func(f *storage.Frame, rec *wal.Record) error {
			if f.Data == nil {
				f.Data = &counter{}
			}
			f.Data.(*counter).v += int64(binary.LittleEndian.Uint64(rec.Payload))
			return nil
		},
		MakeUndo: func(rec *wal.Record, _ storage.LogReader) (storage.Compensation, error) {
			d := int64(binary.LittleEndian.Uint64(rec.Payload))
			return storage.Compensation{Kind: counterKind, Payload: delta(-d)}, nil
		},
	})
	reg.Register(counterSetKind, storage.Handler{
		Redo: func(f *storage.Frame, rec *wal.Record) error {
			f.Data = &counter{v: int64(binary.LittleEndian.Uint64(rec.Payload))}
			return nil
		},
		MakeUndo: func(rec *wal.Record, _ storage.LogReader) (storage.Compensation, error) {
			p := rec.Payload
			return storage.Compensation{Kind: counterSetKind, Payload: append(slices.Clone(p[8:16]), p[:8]...)}, nil
		},
		Image: true,
	})
}

type env struct {
	fs    *fsys.Mem
	log   *wal.Log
	reg   *storage.Registry
	tm    *txn.Manager
	pool  *storage.Pool
	store *storage.Store
}

// newEnv opens the log and the page file fs holds (nil: a fresh file
// system), continuing the log from what its segment files replay.
func newEnv(fs *fsys.Mem) *env {
	if fs == nil {
		fs = fsys.NewMem()
	}
	log, _, err := wal.OpenLog(fs, "wal", 0, wal.SyncAlways)
	if err != nil {
		panic(err)
	}
	disk, err := storage.OpenFileDisk(fs, "pages", 0)
	if err != nil {
		panic(err)
	}
	reg := storage.NewRegistry()
	registerCounter(reg)
	storage.RegisterMetaHandlers(reg)
	tm := txn.NewManager(log, lock.NewManager(), reg, txn.Options{})
	pool := storage.NewPool(1, disk, log, counterCodec{}, 0)
	reg.AddPool(pool)
	return &env{fs: fs, log: log, reg: reg, tm: tm, pool: pool, store: &storage.Store{Pool: pool}}
}

func (e *env) add(t *txn.Txn, pid storage.PageID, d int64) {
	f, err := e.pool.FetchOrCreate(pid)
	if err != nil {
		panic(err)
	}
	f.Latch.AcquireX()
	if f.Data == nil {
		f.Data = &counter{}
	}
	t.LogUpdate(f, counterKind, delta(d))
	f.Data.(*counter).v += d
	f.Latch.ReleaseX()
	e.pool.Unpin(f)
}

// set logs and applies a set of page pid to v under t.
func (e *env) set(t *txn.Txn, pid storage.PageID, v int64) {
	f, err := e.pool.FetchOrCreate(pid)
	if err != nil {
		panic(err)
	}
	f.Latch.AcquireX()
	if f.Data == nil {
		f.Data = &counter{}
	}
	c := f.Data.(*counter)
	t.LogUpdate(f, counterSetKind, append(delta(v), delta(c.v)...))
	c.v = v
	f.Latch.ReleaseX()
	e.pool.Unpin(f)
}

func (e *env) value(t testing.TB, pid storage.PageID) int64 {
	f, err := e.pool.FetchOrCreate(pid)
	if err != nil {
		t.Fatal(err)
	}
	defer e.pool.Unpin(f)
	if f.Data == nil {
		return 0
	}
	return f.Data.(*counter).v
}

// crash builds a restarted environment from e's stable state: the synced
// log, cut at truncateAt when that is given, and every page written so
// far (the page file is synced first: these tests are about the log).
func (e *env) crash(truncateAt *wal.LSN) *env {
	if err := e.pool.Disk().Sync(); err != nil {
		panic(err)
	}
	fs := e.fs.Crash(fsys.DropUnsynced)
	if truncateAt != nil {
		if err := wal.CutDir(fs, "wal", *truncateAt); err != nil {
			panic(err)
		}
	}
	return newEnv(fs)
}

// analyzeAndRedo runs restart's first two passes over the image e's log
// was continued from, as the engine does.
func (e *env) analyzeAndRedo(o Opts) (*Pending, error) {
	return AnalyzeAndRedoImage(e.log.FullImage(), e.reg, o)
}

// restart recovers e with default options: analysis, redo, then undo.
func (e *env) restart() (Stats, error) {
	p, err := e.analyzeAndRedo(Opts{})
	if err == nil {
		err = p.UndoLosers(e.tm)
	}
	return p.Stats, err
}

func TestRedoRebuildsFromEmptyDisk(t *testing.T) {
	e := newEnv(nil)
	tx := e.tm.Begin()
	e.add(tx, 5, 10)
	e.add(tx, 6, 20)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Nothing flushed: disk is empty; redo must recreate both pages.
	e2 := e.crash(nil)
	st, err := e2.restart()
	if err != nil {
		t.Fatal(err)
	}
	if st.RedoneRecords == 0 || st.LoserTxns != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if e2.value(t, 5) != 10 || e2.value(t, 6) != 20 {
		t.Fatalf("recovered values: %d %d", e2.value(t, 5), e2.value(t, 6))
	}
}

func TestLoserRolledBack(t *testing.T) {
	e := newEnv(nil)
	tc := e.tm.Begin()
	e.add(tc, 5, 10)
	if err := tc.Commit(); err != nil {
		t.Fatal(err)
	}
	tl := e.tm.Begin()
	e.add(tl, 5, 100)
	e.add(tl, 6, 100)
	e.log.ForceAll() // loser's updates reach the stable log, then crash

	e2 := e.crash(nil)
	st, err := e2.restart()
	if err != nil {
		t.Fatal(err)
	}
	if st.LoserTxns != 1 {
		t.Fatalf("losers = %d", st.LoserTxns)
	}
	if e2.value(t, 5) != 10 || e2.value(t, 6) != 0 {
		t.Fatalf("values after undo: %d %d", e2.value(t, 5), e2.value(t, 6))
	}
}

func TestLoserAtomicActionRolledBack(t *testing.T) {
	e := newEnv(nil)
	aa := e.tm.BeginAtomicAction()
	e.add(aa, 5, 7)
	e.log.ForceAll() // crash before the AA commits

	e2 := e.crash(nil)
	st, err := e2.restart()
	if err != nil {
		t.Fatal(err)
	}
	if st.LoserActions != 1 {
		t.Fatalf("loser actions = %d", st.LoserActions)
	}
	if e2.value(t, 5) != 0 {
		t.Fatal("atomic action not all-or-nothing")
	}
}

func TestUnforcedAACommitLostEntirely(t *testing.T) {
	// Relative durability: an unforced AA commit may be lost wholesale,
	// which is fine because nothing durable can depend on it.
	e := newEnv(nil)
	aa := e.tm.BeginAtomicAction()
	e.add(aa, 5, 7)
	if err := aa.Commit(); err != nil {
		t.Fatal(err)
	}
	// No force at all: stable log is empty.
	e2 := e.crash(nil)
	st, err := e2.restart()
	if err != nil {
		t.Fatal(err)
	}
	if e2.value(t, 5) != 0 {
		t.Fatal("unstable AA effects resurrected")
	}
	if st.AnalyzedRecords != 0 {
		t.Fatalf("analyzed %d records of an empty stable log", st.AnalyzedRecords)
	}
}

// A transaction's last record is its commit record: a log that ends there
// holds a winner, and restart neither undoes it nor appends anything for it.
func TestCommitRecordEndsTransaction(t *testing.T) {
	e := newEnv(nil)
	tx := e.tm.Begin()
	e.add(tx, 5, 3)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var types []wal.RecType
	e.log.FullImage().Scan(wal.NilLSN, func(r wal.Record) bool {
		types = append(types, r.Type)
		return true
	})
	if want := []wal.RecType{wal.RecUpdate, wal.RecCommit}; !slices.Equal(types, want) {
		t.Fatalf("one-update transaction logged %v, want %v", types, want)
	}
	e2 := e.crash(nil)
	end := e2.log.EndLSN()
	st, err := e2.restart()
	if err != nil {
		t.Fatal(err)
	}
	if st.LoserTxns != 0 || st.LoserActions != 0 || e2.log.EndLSN() != end {
		t.Fatalf("restart over a committed transaction: %+v, log grew %d -> %d", st, end, e2.log.EndLSN())
	}
	if e2.value(t, 5) != 3 {
		t.Fatal("committed effect lost")
	}
}

func TestIdempotentRestart(t *testing.T) {
	e := newEnv(nil)
	tx := e.tm.Begin()
	e.add(tx, 5, 10)
	_ = tx.Commit()
	tl := e.tm.Begin()
	e.add(tl, 5, 99)
	e.log.ForceAll()

	// First restart.
	e2 := e.crash(nil)
	if _, err := e2.restart(); err != nil {
		t.Fatal(err)
	}
	if e2.value(t, 5) != 10 {
		t.Fatal("first restart wrong")
	}
	// Crash again immediately (including the restart's own CLRs) and
	// restart a second time: same result.
	e2.log.ForceAll()
	e3 := e2.crash(nil)
	if _, err := e3.restart(); err != nil {
		t.Fatal(err)
	}
	if e3.value(t, 5) != 10 {
		t.Fatal("second restart diverged")
	}
}

func TestCheckpointBoundsRedo(t *testing.T) {
	e := newEnv(nil)
	for i := 0; i < 20; i++ {
		tx := e.tm.Begin()
		e.add(tx, storage.PageID(10+i%3), 1)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Flush everything, then checkpoint: the DPT is empty, so restart
	// should redo (almost) nothing.
	e.pool.FlushAll()
	if _, err := TakeCheckpoint(e.log, e.tm, e.pool); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tx := e.tm.Begin()
		e.add(tx, 10, 1)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	e2 := e.crash(nil)
	st, err := e2.restart()
	if err != nil {
		t.Fatal(err)
	}
	if st.RedoneRecords > 6 {
		t.Fatalf("redo did %d records; checkpoint should have bounded it", st.RedoneRecords)
	}
	if e2.value(t, 10) != 7+5 {
		t.Fatalf("page 10 = %d", e2.value(t, 10))
	}
}

func TestAnalysisSeesThroughCheckpoint(t *testing.T) {
	// A transaction active across a checkpoint must still be undone if
	// it never commits.
	e := newEnv(nil)
	tl := e.tm.Begin()
	e.add(tl, 5, 50)
	if _, err := TakeCheckpoint(e.log, e.tm, e.pool); err != nil {
		t.Fatal(err)
	}
	e.add(tl, 6, 60)
	e.log.ForceAll()

	e2 := e.crash(nil)
	st, err := e2.restart()
	if err != nil {
		t.Fatal(err)
	}
	if st.LoserTxns != 1 {
		t.Fatalf("losers = %d", st.LoserTxns)
	}
	if e2.value(t, 5) != 0 || e2.value(t, 6) != 0 {
		t.Fatalf("values: %d %d", e2.value(t, 5), e2.value(t, 6))
	}
}

func TestFlushedLoserPagesUndone(t *testing.T) {
	// The hard ARIES case: a loser's dirty page reaches disk (steal),
	// so undo must compensate on the stable image.
	e := newEnv(nil)
	tl := e.tm.Begin()
	e.add(tl, 5, 42)
	e.pool.FlushAll() // steal: forces log, writes page
	e2 := e.crash(nil)
	st, err := e2.restart()
	if err != nil {
		t.Fatal(err)
	}
	if st.LoserTxns != 1 {
		t.Fatalf("losers = %d", st.LoserTxns)
	}
	if e2.value(t, 5) != 0 {
		t.Fatalf("page 5 = %d after undo of flushed loser", e2.value(t, 5))
	}
}

// TestRestartBrokenChainFails: a restart whose redo walks a page chain that
// does not lead back to the page's stable image fails with ErrBrokenChain,
// and leaves the page as its stable image holds it. One chain jumps past
// the stable image; in the other, two records name the stable image as
// their predecessor, so the walk reaches it in fewer records than analysis
// counted at or past the page's recLSN.
func TestRestartBrokenChainFails(t *testing.T) {
	for _, tc := range []struct {
		name string
		// prev is the PagePrev of the i-th of two records logged against
		// page 5 after its stable image, given the LSN of the page's first
		// record, the stable image's pageLSN, and the first of the two.
		prev func(i int, first, stable, rec0 wal.LSN) wal.LSN
	}{
		{"jumps-past-stable", func(i int, first, _, rec0 wal.LSN) wal.LSN {
			if i == 0 {
				return first
			}
			return rec0
		}},
		{"shorter-than-counted", func(_ int, _, stable, _ wal.LSN) wal.LSN { return stable }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(nil)
			tx := e.tm.Begin()
			first := e.log.EndLSN()
			e.add(tx, 5, 10)
			e.add(tx, 5, 2)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if _, err := e.pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
			stable, ok := e.pool.StablePageLSN(5)
			if !ok || stable <= first {
				t.Fatalf("stable pageLSN %d %v, want past %d", stable, ok, first)
			}
			// Page 5 is clean at the checkpoint, so the restart's dirty page
			// table enters it at the first record below, past its pageLSN.
			if _, err := TakeCheckpoint(e.log, e.tm, e.pool); err != nil {
				t.Fatal(err)
			}
			var rec0 wal.LSN
			for i := 0; i < 2; i++ {
				lsn := e.log.Append(&wal.Record{Type: wal.RecUpdate, Kind: counterKind, TxnID: 99,
					StoreID: 1, PageID: 5, PagePrev: tc.prev(i, first, stable, rec0), Payload: delta(100)})
				if i == 0 {
					rec0 = lsn
				}
			}
			if err := e.log.ForceAll(); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				e2 := e.crash(nil)
				want, _, _ := e2.pool.Disk().Read(5)
				want = bytes.Clone(want)
				if _, err := e2.analyzeAndRedo(Opts{Workers: workers}); !errors.Is(err, storage.ErrBrokenChain) {
					t.Fatalf("workers=%d: restart over a broken chain: %v, want ErrBrokenChain", workers, err)
				}
				f, err := e2.pool.Fetch(5)
				if err != nil {
					t.Fatal(err)
				}
				lsn, dirty, v := f.PageLSN(), f.Dirty(), f.Data.(*counter).v
				e2.pool.Unpin(f)
				if lsn != stable || dirty || v != 12 {
					t.Fatalf("workers=%d: page 5 left at pageLSN %d (dirty %v) holding %d; want its stable image, %d holding 12",
						workers, lsn, dirty, v, stable)
				}
				if _, err := e2.pool.FlushAll(); err != nil {
					t.Fatal(err)
				}
				if got, _, _ := e2.pool.Disk().Read(5); !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: page 5's stable image changed", workers)
				}
			}
		})
	}
}

// TestRedoReadsEachPageOnce: restart reads the stable image of each page it
// redoes once — through the worker's prefetch or its fetch, with no probe
// of the image beside them — both for a page whose image already holds its
// records (skipped on the fetched frame) and for one that needs them.
func TestRedoReadsEachPageOnce(t *testing.T) {
	const pages = 200
	e := newEnv(nil)
	tx := e.tm.Begin()
	for pid := storage.PageID(2); pid < 2+pages; pid++ {
		e.add(tx, pid, 1)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := TakeCheckpoint(e.log, e.tm, e.pool); err != nil {
		t.Fatal(err)
	}
	// A second record on every page, and half the pages written after it:
	// analysis finds all of them dirty.
	tx = e.tm.Begin()
	for pid := storage.PageID(2); pid < 2+pages; pid++ {
		e.add(tx, pid, 10)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for pid := storage.PageID(2); pid < 2+pages; pid += 2 {
		if err := e.pool.FlushPage(pid); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		e2 := e.crash(nil)
		inj := fault.New(1)
		inj.Arm(storage.FPDiskRead, fault.Spec{After: 1 << 62}) // counts, never fires
		e2.pool.Disk().SetInjector(inj)
		p, err := e2.analyzeAndRedo(Opts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if reads := inj.Hits(storage.FPDiskRead); reads > pages {
			t.Errorf("workers=%d: redo of %d pages read %d images", workers, pages, reads)
		}
		if p.Stats.FetchSkippedPages != pages/2 {
			t.Errorf("workers=%d: %d pages skipped, want the %d written after their records", workers, p.Stats.FetchSkippedPages, pages/2)
		}
		for pid := storage.PageID(2); pid < 2+pages; pid++ {
			if v := e2.value(t, pid); v != 11 {
				t.Fatalf("workers=%d: page %d = %d after redo, want 11", workers, pid, v)
			}
		}
	}
}
