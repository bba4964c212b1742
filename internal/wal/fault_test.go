package wal

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/fsys"
)

// newFaultyLog returns a log wired to a fresh seeded injector.
func newFaultyLog(seed int64) (*Log, *fault.Injector) {
	l := New()
	inj := fault.New(seed)
	l.SetInjector(inj)
	return l, inj
}

func appendN(l *Log, n int) []LSN {
	lsns := make([]LSN, n)
	for i := 0; i < n; i++ {
		lsns[i] = l.Append(&Record{Type: RecUpdate, TxnID: TxnID(i + 1), StoreID: 1, PageID: uint64(i + 2)})
	}
	return lsns
}

func TestForceTransientRetries(t *testing.T) {
	l, inj := newFaultyLog(1)
	lsns := appendN(l, 3)
	inj.Arm(FPSync, fault.Spec{Kind: fault.Transient, Count: 2})
	if err := l.Force(lsns[2]); err != nil {
		t.Fatalf("transient sync fault not retried: %v", err)
	}
	if l.StableLSN() <= lsns[2] {
		t.Fatal("force returned nil without advancing stability")
	}
	if l.Damaged() {
		t.Fatal("log damaged after recovered transient fault")
	}
	if got := len(inj.Trips()); got != 2 {
		t.Fatalf("fault fired %d times, want 2", got)
	}
}

func TestForceTransientExhaustionDamagesLog(t *testing.T) {
	l, inj := newFaultyLog(2)
	lsns := appendN(l, 2)
	inj.Arm(FPSync, fault.Spec{Kind: fault.Transient, Count: -1})
	err := l.Force(lsns[1])
	if err == nil {
		t.Fatal("force succeeded against an endlessly failing device")
	}
	if !errors.Is(err, ErrLogFailed) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("error %v missing sentinels", err)
	}
	if !l.Damaged() {
		t.Fatal("log not latched damaged after retry exhaustion")
	}
	// Damage is sticky: later forces fail without touching the device,
	// even after the fault is disarmed.
	inj.Disarm(FPSync)
	if err := l.Force(lsns[1]); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("force after damage: %v", err)
	}
}

func TestForcePermanentDamagesLog(t *testing.T) {
	l, inj := newFaultyLog(3)
	lsns := appendN(l, 2)
	inj.Arm(FPSync, fault.Spec{Kind: fault.Permanent})
	if err := l.Force(lsns[1]); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("permanent fault: %v", err)
	}
	if !l.Damaged() {
		t.Fatal("log not damaged after permanent fault")
	}
}

func TestForceAlreadyStableSucceedsOnDamagedLog(t *testing.T) {
	l, inj := newFaultyLog(4)
	lsns := appendN(l, 3)
	if err := l.Force(lsns[2]); err != nil {
		t.Fatal(err)
	}
	inj.Arm(FPSync, fault.Spec{Kind: fault.Permanent})
	later := l.Append(&Record{Type: RecCommit, TxnID: 9})
	if err := l.Force(later); err == nil {
		t.Fatal("force of new record should have failed")
	}
	// Records that were stable before the device died stay stable:
	// forcing them is a no-op, not an error.
	for _, lsn := range lsns {
		if err := l.Force(lsn); err != nil {
			t.Fatalf("force of already-stable %d on damaged log: %v", lsn, err)
		}
	}
}

func TestForceTornStopsAtRecordBoundary(t *testing.T) {
	l, inj := newFaultyLog(5)
	lsns := appendN(l, 8)
	inj.Arm(FPSync, fault.Spec{Kind: fault.Torn})
	err := l.Force(lsns[7])
	if err == nil {
		t.Fatal("torn sync reported success")
	}
	if !fault.IsTorn(err) || !errors.Is(err, ErrLogFailed) {
		t.Fatalf("error %v is not a torn log failure", err)
	}
	if !l.Damaged() {
		t.Fatal("log not damaged after torn sync")
	}
	// The surviving prefix must end exactly at one of the record
	// boundaries strictly before the target.
	stable := l.StableLSN()
	if stable > lsns[7] {
		t.Fatalf("stable %d beyond torn target %d", stable, lsns[7])
	}
	ok := stable == 0
	for _, b := range lsns {
		if stable == b {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("stable point %d is not a record boundary (%v)", stable, lsns)
	}
	// The crash image is readable up to the tear and no further.
	img := crashImage(t, l, nil)
	n := 0
	img.Scan(NilLSN, func(rec Record) bool { n++; return true })
	if LSN(n) > 8 {
		t.Fatalf("crash image has %d records", n)
	}
}

func TestTornReproducibleFromSeed(t *testing.T) {
	run := func(seed int64) LSN {
		l, inj := newFaultyLog(seed)
		lsns := appendN(l, 10)
		inj.Arm(FPSync, fault.Spec{Kind: fault.Torn})
		if err := l.Force(lsns[9]); err == nil {
			t.Fatal("torn sync reported success")
		}
		return l.StableLSN()
	}
	if a, b := run(77), run(77); a != b {
		t.Fatalf("same seed tore at %d then %d", a, b)
	}
}

func TestForceGroupFollowersNotAckedOnFailure(t *testing.T) {
	l, inj := newFaultyLog(6)
	before := l.StableLSN()
	inj.Arm(FPSync, fault.Spec{Kind: fault.Permanent, Count: -1})

	const committers = 8
	var wg sync.WaitGroup
	errs := make([]error, committers)
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn := l.Append(&Record{Type: RecCommit, TxnID: TxnID(i + 1)})
			errs[i] = l.ForceGroup(lsn)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("committer %d acked with the log device dead", i)
		}
		if !errors.Is(err, ErrLogFailed) {
			t.Fatalf("committer %d: %v", i, err)
		}
	}
	if !l.Damaged() {
		t.Fatal("log not damaged")
	}
	if l.StableLSN() != before {
		t.Fatalf("stable advanced from %d to %d on a dead device", before, l.StableLSN())
	}
}

func TestForceGroupTransientRoundSucceeds(t *testing.T) {
	l, inj := newFaultyLog(7)
	inj.Arm(FPSync, fault.Spec{Kind: fault.Transient, Count: 3})

	const committers = 8
	var wg sync.WaitGroup
	errs := make([]error, committers)
	lsns := make([]LSN, committers)
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsns[i] = l.Append(&Record{Type: RecCommit, TxnID: TxnID(i + 1)})
			errs[i] = l.ForceGroup(lsns[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("committer %d failed across a transient fault: %v", i, err)
		}
		if !l.stableBeyond(lsns[i]) {
			t.Fatalf("committer %d acked but record %d not stable", i, lsns[i])
		}
	}
	if l.Damaged() {
		t.Fatal("log damaged by a recovered transient fault")
	}
}

func TestForceGroupTornAcksSurvivingPrefix(t *testing.T) {
	// Deterministic single-caller torn round: the caller's own record may
	// or may not survive inside the prefix; if it did, the force must
	// return nil even though the round reported an error. The first record
	// always survives (the tear is at a boundary past it), the last never.
	for _, force := range []func(*Log, LSN) error{(*Log).Force, (*Log).ForceGroup} {
		for _, i := range []int{0, 5} {
			l, inj := newFaultyLog(8)
			lsns := appendN(l, 6)
			inj.Arm(FPSync, fault.Spec{Kind: fault.Torn})
			err := force(l, lsns[i])
			stable := l.StableLSN()
			if lsns[i] < stable {
				if err != nil {
					t.Fatalf("record %d inside surviving prefix not acked: %v", i, err)
				}
			} else if err == nil {
				t.Fatalf("record %d beyond the tear acked", i)
			}
			// Either way the log is now damaged and future commits are refused.
			if err := l.ForceGroup(l.Append(&Record{Type: RecCommit, TxnID: 99})); !errors.Is(err, ErrLogFailed) {
				t.Fatalf("commit after torn round: %v", err)
			}
		}
	}
}

func TestCrashLatchFreezesStablePoint(t *testing.T) {
	l, inj := newFaultyLog(9)
	lsns := appendN(l, 4)
	if err := l.Force(lsns[3]); err != nil {
		t.Fatal(err)
	}
	before := l.StableLSN()
	inj.TripCrash()
	// New records appended after the crash instant can never be forced.
	late := l.Append(&Record{Type: RecCommit, TxnID: 42})
	if err := l.Force(late); err == nil {
		t.Fatal("force succeeded after crash latch")
	}
	if l.StableLSN() != before {
		t.Fatalf("stable moved from %d to %d after crash", before, l.StableLSN())
	}
}

// TestCutDirKeepsTornTail: a crash image cut at the stable point keeps a
// torn sync's partial record, which the next Open's replay truncates, and
// a cut at an earlier record boundary removes everything from there on.
func TestCutDirKeepsTornTail(t *testing.T) {
	tails := 0
	for seed := int64(1); seed <= 8; seed++ {
		l, inj := newFaultyLog(seed)
		lsns := appendN(l, 4)
		if err := l.Force(lsns[3]); err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, appendN(l, 4)...)
		inj.Arm(FPSync, fault.Spec{Kind: fault.Torn})
		if err := l.Force(lsns[7]); err == nil {
			t.Fatal("torn sync reported success")
		}
		stable := l.StableLSN()
		end := func(fs fsys.FS) LSN {
			img, err := DirImage(fs, l.sink.dir)
			if err != nil {
				t.Fatal(err)
			}
			return img.EndLSN()
		}
		fs := l.sink.fs.(*fsys.Mem).Crash(fsys.DropUnsynced)
		torn := end(fs) > stable
		if torn {
			tails++
		}
		if err := CutDir(fs, l.sink.dir, stable); err != nil {
			t.Fatal(err)
		}
		if got := end(fs) > stable; got != torn {
			t.Fatalf("seed %d: cut at the stable point %d changed whether a torn tail follows it (%v -> %v)", seed, stable, torn, got)
		}
		_, rd, err := Open(fs, l.sink.dir, 0, SyncAlways)
		if err != nil {
			t.Fatal(err)
		}
		if rd.EndLSN() != stable || end(fs) != stable {
			t.Fatalf("seed %d: replay of the cut image ends at %d, files at %d; stable point %d", seed, rd.EndLSN(), end(fs), stable)
		}
		fs = l.sink.fs.(*fsys.Mem).Crash(fsys.DropUnsynced)
		if err := CutDir(fs, l.sink.dir, lsns[1]); err != nil {
			t.Fatal(err)
		}
		if got := end(fs); got != lsns[1] {
			t.Fatalf("seed %d: cut at record %d left the files ending at %d", seed, lsns[1], got)
		}
	}
	if tails == 0 {
		t.Fatal("no seed left a torn tail")
	}
	t.Logf("%d of 8 seeds left a torn tail", tails)
}

// gateFS is an in-memory file system whose first file sync after arming
// announces itself on entered and parks until the gate opens.
type gateFS struct {
	*fsys.Mem
	armed   atomic.Bool
	entered chan struct{}
	gate    chan struct{}
}

func (g *gateFS) OpenFile(name string, flag int) (fsys.File, error) {
	f, err := g.Mem.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return gateFile{f, g}, nil
}

type gateFile struct {
	fsys.File
	g *gateFS
}

func (f gateFile) Sync() error {
	if f.g.armed.CompareAndSwap(true, false) {
		f.g.entered <- struct{}{}
		<-f.g.gate
	}
	return f.File.Sync()
}

// TestForceGroupErrorMeansNeverStable: a waiter whose record a torn sync
// still in flight is about to make stable must not be told it failed,
// even when another round's error (here the write stage refusing after
// the crash latch) reaches it first. Its committer would roll back a
// transaction that restart then finds committed: a ghost.
func TestForceGroupErrorMeansNeverStable(t *testing.T) {
	g := &gateFS{Mem: fsys.NewMem(), entered: make(chan struct{}, 1), gate: make(chan struct{})}
	l, _, err := OpenLog(g, "wal", 0, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(3)
	l.SetInjector(inj)
	if err := l.Force(appendN(l, 1)[0]); err != nil {
		t.Fatal(err)
	}
	w := appendN(l, 1)[0]
	last := appendN(l, 8)[7]

	// The torn sync trips the crash latch and parks in its own sync of
	// the surviving prefix.
	inj.Arm(FPSync, fault.Spec{Kind: fault.Torn, Crash: true})
	g.armed.Store(true)
	torn := make(chan struct{})
	go func() { _ = l.ForceGroup(last); close(torn) }()
	<-g.entered

	// A later committer's write round fails on the crash latch.
	other := appendN(l, 1)[0]
	go func() { _ = l.ForceGroup(other) }()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		l.gcMu.Lock()
		failed := l.gcErr != nil
		l.gcMu.Unlock()
		if failed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the write round after the crash latch never failed")
		}
	}

	done := make(chan error, 1)
	go func() { done <- l.ForceGroup(w) }()
	time.Sleep(20 * time.Millisecond)
	close(g.gate)
	<-torn
	err = <-done
	if stable := l.StableLSN(); err != nil && w < stable {
		t.Fatalf("ForceGroup(%d) = %v, but the torn sync made it stable (stable point %d)", w, err, stable)
	}
}
