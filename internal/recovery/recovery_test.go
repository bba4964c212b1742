package recovery

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/fsys"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// The counter fixture mirrors the one in package txn: pages hold a single
// int64 and records carry deltas, so recovered states are easy to assert.
const counterKind wal.Kind = 200

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
