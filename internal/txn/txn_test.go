package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fsys"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/wal"
)

// counterKind is a test record kind: the page holds a *counter and the
// payload is a delta; undo applies the negated delta to the same page.
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
	fs   *fsys.Mem
	log  *wal.Log
	reg  *storage.Registry
	lm   *lock.Manager
	tm   *Manager
	pool *storage.Pool
}

func newEnv(t testing.TB, opts Options) *env {
	t.Helper()
	return openEnv(t, fsys.NewMem(), opts)
}

// openEnv opens the log and the page file fs holds, continuing the log
// from what its segment files replay.
func openEnv(t testing.TB, fs *fsys.Mem, opts Options) *env {
	t.Helper()
	log, _, err := wal.OpenLog(fs, "wal", 0, wal.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := storage.OpenFileDisk(fs, "pages", 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := storage.NewRegistry()
	registerCounter(reg)
	lm := lock.NewManager()
	tm := NewManager(log, lm, reg, opts)
	pool := storage.NewPool(1, disk, log, counterCodec{}, 0)
	reg.AddPool(pool)
	return &env{fs: fs, log: log, reg: reg, lm: lm, tm: tm, pool: pool}
}

// add applies a counter delta to page pid inside t, like a page operation
// would: log, mutate under latch, mark dirty.
func (e *env) add(t *Txn, pid storage.PageID, d int64) {
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

func TestCommitForcesLog(t *testing.T) {
	e := newEnv(t, Options{})
	tx := e.tm.Begin()
	e.add(tx, 5, 10)
	before := e.log.StableLSN()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if e.log.StableLSN() <= before {
		t.Fatal("user commit did not force the log")
	}
	if e.tm.ActiveCount() != 0 {
		t.Fatal("transaction still active after commit")
	}
}

func TestAACommitRelativeDurability(t *testing.T) {
	e := newEnv(t, Options{})
	aa := e.tm.BeginAtomicAction()
	e.add(aa, 5, 10)
	_, before := e.log.Stats()
	if err := aa.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, after := e.log.Stats(); after != before {
		t.Fatal("atomic action commit forced the log despite relative durability")
	}
	// The next user commit carries it to stability: the pre-commit end of
	// log covers every atomic-action record.
	tx := e.tm.Begin()
	e.add(tx, 6, 1)
	preCommit := e.log.EndLSN()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if e.log.StableLSN() < preCommit {
		t.Fatal("user commit did not flush the atomic action's records")
	}
}

func TestAACommitForcedWhenConfigured(t *testing.T) {
	e := newEnv(t, Options{ForceOnAACommit: true})
	aa := e.tm.BeginAtomicAction()
	e.add(aa, 5, 10)
	_, before := e.log.Stats()
	if err := aa.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, after := e.log.Stats(); after != before+1 {
		t.Fatal("ForceOnAACommit did not force")
	}
}

func TestAbortRestoresPages(t *testing.T) {
	e := newEnv(t, Options{})
	tx := e.tm.Begin()
	e.add(tx, 5, 10)
	e.add(tx, 5, 7)
	e.add(tx, 6, 3)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if v := e.value(t, 5); v != 0 {
		t.Fatalf("page 5 = %d after abort", v)
	}
	if v := e.value(t, 6); v != 0 {
		t.Fatalf("page 6 = %d after abort", v)
	}
	if e.tm.ActiveCount() != 0 {
		t.Fatal("active after abort")
	}
}

func TestAbortWritesCLRChain(t *testing.T) {
	e := newEnv(t, Options{})
	tx := e.tm.Begin()
	e.add(tx, 5, 10)
	e.add(tx, 5, 20)
	_ = tx.Abort()
	var clrs int
	var lastUndoNext wal.LSN
	e.log.FullImage().Scan(wal.NilLSN, func(r wal.Record) bool {
		if r.Type == wal.RecCLR {
			clrs++
			lastUndoNext = r.UndoNext
		}
		return true
	})
	if clrs != 2 {
		t.Fatalf("CLRs = %d, want 2", clrs)
	}
	// The first update is the transaction's first record: the CLR that
	// compensates it ends the undo chain.
	if lastUndoNext != wal.NilLSN {
		t.Fatalf("final UndoNext = %d, want NilLSN", lastUndoNext)
	}
}

// TestAbortHeldUndoesUnderTheTrackersLatches: AbortHeld is given only the
// caller's latch tracker. A page the tracker holds in X is compensated in
// place, under the caller's latch — latching it again would wait forever
// — and a page it holds in U is an error naming the record's kind and the
// page, which dooms the action.
func TestAbortHeldUndoesUnderTheTrackersLatches(t *testing.T) {
	for _, tc := range []struct {
		mode latch.Mode
		want string // "" for an undo that succeeds
	}{
		{mode: latch.X},
		{mode: latch.U, want: fmt.Sprintf("undo of kind %d on page 5 needs a latch its own operation holds in U", counterKind)},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			e := newEnv(t, Options{})
			aa := e.tm.BeginAtomicAction()
			e.add(aa, 5, 10)
			f, err := e.pool.Fetch(5)
			if err != nil {
				t.Fatal(err)
			}
			defer e.pool.Unpin(f)
			var tr latch.Tracker
			f.Latch.Acquire(tc.mode)
			tr.Acquired(f, 0, tc.mode)
			done := make(chan error, 1)
			go func() { done <- aa.AbortHeld(&tr) }()
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("the undo waits for a latch its caller holds")
			}
			if tc.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				if v := f.Data.(*counter).v; v != 0 {
					t.Fatalf("page 5 = %d after the abort", v)
				}
			} else if !errors.Is(err, ErrDoomed) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("abort: %v, want a doomed rollback: %s", err, tc.want)
			}
			tr.Released(f)
			f.Latch.Release(tc.mode)
			tr.AssertNoneHeld()
		})
	}
}

func TestNestedTopLevelActionSurvivesAbort(t *testing.T) {
	e := newEnv(t, Options{})
	tx := e.tm.Begin()
	e.add(tx, 5, 1) // undoable
	nt := tx.BeginNested()
	e.add(tx, 6, 100) // NTA: survives abort
	tx.CommitNested(nt)
	e.add(tx, 5, 2) // undoable
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if v := e.value(t, 5); v != 0 {
		t.Fatalf("page 5 = %d, want 0", v)
	}
	if v := e.value(t, 6); v != 100 {
		t.Fatalf("page 6 = %d, want 100 (NTA must survive)", v)
	}
}

func TestAbortNestedRollsBackOnlyNested(t *testing.T) {
	e := newEnv(t, Options{})
	tx := e.tm.Begin()
	e.add(tx, 5, 1)
	nt := tx.BeginNested()
	e.add(tx, 5, 50)
	e.add(tx, 6, 7)
	if err := tx.AbortNested(nt); err != nil {
		t.Fatal(err)
	}
	if v := e.value(t, 5); v != 1 {
		t.Fatalf("page 5 = %d, want 1", v)
	}
	if v := e.value(t, 6); v != 0 {
		t.Fatalf("page 6 = %d, want 0", v)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := e.value(t, 5); v != 1 {
		t.Fatalf("page 5 = %d after commit", v)
	}
}

func TestOnCommitHooks(t *testing.T) {
	e := newEnv(t, Options{})
	tx := e.tm.Begin()
	ran := false
	tx.OnCommit(func() { ran = true })
	if ran {
		t.Fatal("hook ran early")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("hook did not run on commit")
	}
	tx2 := e.tm.Begin()
	ran2 := false
	tx2.OnCommit(func() { ran2 = true })
	_ = tx2.Abort()
	if ran2 {
		t.Fatal("hook ran on abort")
	}
}

func TestLocksReleasedAtEnd(t *testing.T) {
	e := newEnv(t, Options{})
	tx := e.tm.Begin()
	if err := tx.Lock(lock.KeyName(1, []byte("k")), lock.X); err != nil {
		t.Fatal(err)
	}
	if e.lm.HeldCount(tx.ID) != 1 {
		t.Fatal("lock not recorded")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if e.lm.HeldCount(tx.ID) != 0 {
		t.Fatal("locks survived commit")
	}
}

func TestDoubleFinishRejected(t *testing.T) {
	e := newEnv(t, Options{})
	tx := e.tm.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != ErrNotActive {
		t.Fatalf("second commit: %v", err)
	}
	if err := tx.Abort(); err != ErrNotActive {
		t.Fatalf("abort after commit: %v", err)
	}
}

// TestReadOnlyTxnLogsNothing: a transaction has no begin record, so one
// that updates nothing — whether or not it took locks — commits or aborts
// without a log record and without joining a group force.
func TestReadOnlyTxnLogsNothing(t *testing.T) {
	e := newEnv(t, Options{})
	appends0, _ := e.log.Stats()
	forces0, _ := e.log.GroupCommitStats()
	name := lock.KeyName(1, []byte("ro"))
	for _, tc := range []struct {
		name   string
		lock   bool
		finish func(*Txn) error
	}{
		{"begin-commit", false, (*Txn).Commit},
		{"begin-lock-commit", true, (*Txn).Commit},
		{"begin-abort", false, (*Txn).Abort},
		{"begin-lock-abort", true, (*Txn).Abort},
	} {
		tx := e.tm.Begin()
		if tc.lock {
			if err := tx.Lock(name, lock.S); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if floor := e.tm.LogFloor(); floor != e.log.EndLSN() {
			t.Errorf("%s: an idle transaction holds the log floor at %d, log end %d", tc.name, floor, e.log.EndLSN())
		}
		if err := tc.finish(tx); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		appends, _ := e.log.Stats()
		forces, _ := e.log.GroupCommitStats()
		if appends != appends0 || forces != forces0 {
			t.Fatalf("%s: %d records appended, %d forces requested; want none", tc.name, appends-appends0, forces-forces0)
		}
		if _, held := e.lm.HeldMode(tx.ID, name); held || e.tm.ActiveCount() != 0 {
			t.Fatalf("%s: lock held=%v, %d transactions active after the end", tc.name, held, e.tm.ActiveCount())
		}
	}
}

func TestSnapshotATT(t *testing.T) {
	e := newEnv(t, Options{})
	t1 := e.tm.Begin()
	aa := e.tm.BeginAtomicAction()
	idle := e.tm.Begin() // logs nothing: in no ATT
	e.add(t1, 5, 1)
	e.add(aa, 6, 1)
	att := e.tm.SnapshotATT()
	if len(att) != 2 {
		t.Fatalf("ATT rows = %d", len(att))
	}
	bySys := map[bool]int{}
	for _, row := range att {
		bySys[row.System]++
		if row.LastLSN == wal.NilLSN || row.FirstLSN != row.LastLSN {
			t.Fatalf("ATT row %+v: one record logged, want FirstLSN == LastLSN != 0", row)
		}
	}
	if bySys[true] != 1 || bySys[false] != 1 {
		t.Fatalf("ATT composition: %v", bySys)
	}
	_ = t1.Commit()
	_ = aa.Commit()
	_ = idle.Commit()
}

func TestManyTxnIDsUnique(t *testing.T) {
	e := newEnv(t, Options{})
	seen := make(map[wal.TxnID]bool)
	for i := 0; i < 100; i++ {
		tx := e.tm.Begin()
		if seen[tx.ID] {
			t.Fatalf("duplicate txn id %d", tx.ID)
		}
		seen[tx.ID] = true
		_ = tx.Commit()
	}
}

func ExampleTxn_Commit() {
	log := wal.New()
	reg := storage.NewRegistry()
	tm := NewManager(log, lock.NewManager(), reg, Options{})
	tx := tm.Begin()
	fmt.Println(tx.State() == Active)
	_ = tx.Commit()
	fmt.Println(tx.State() == Committed)
	// Output:
	// true
	// true
}
