package wal

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestPipelineOverlapsWriteAndSync: with every sync stalled by the
// wal.sync.slow latency failpoint, concurrent committers must start the
// next round's write stage while the previous round's sync is still in
// flight — the Overlaps counter observes it. The committers alone can
// fall into lockstep (all eight in every round leaves nobody to start the
// next one), so a straggler waits half a stall after each of its acks:
// the others have begun the next round by then and it commits inside
// that round's sync.
func TestPipelineOverlapsWriteAndSync(t *testing.T) {
	const stall = 2 * time.Millisecond
	l, inj := newFaultyLog(1)
	inj.Arm(FPSyncSlow, fault.Spec{Kind: fault.None, Count: -1, Delay: stall})

	const committers = 8
	const perG = 10
	var wg sync.WaitGroup
	done := make(chan struct{})
	straggled := make(chan struct{})
	go func() {
		defer close(straggled)
		for id := TxnID(1000); ; id++ {
			select {
			case <-done:
				return
			case <-time.After(stall / 2):
			}
			if err := l.ForceGroup(l.Append(&Record{Type: RecCommit, TxnID: id})); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lsn := l.Append(&Record{Type: RecCommit, TxnID: TxnID(g*perG + i + 1)})
				if err := l.ForceGroup(lsn); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	<-straggled
	st := l.PipelineStatsSnapshot()
	if st.Overlaps == 0 {
		t.Fatalf("no write round overlapped a stalled sync: %+v", st)
	}
	if st.WriteRounds == 0 || st.SyncRounds == 0 {
		t.Fatalf("pipeline stages did not run: %+v", st)
	}
	if l.StableLSN() != l.EndLSN() {
		t.Fatalf("stable %d != end %d after all commits acked", l.StableLSN(), l.EndLSN())
	}
}

// TestCrashBetweenWriteAndSync: a crash tripped at the wal.write point —
// bytes handed to the sink, fsync never issued — must freeze the stable
// point where it was. Nothing written-but-unsynced may ever be acked.
func TestCrashBetweenWriteAndSync(t *testing.T) {
	l, inj := newFaultyLog(3)
	lsns := appendN(l, 2)
	if err := l.Force(lsns[1]); err != nil {
		t.Fatal(err)
	}
	stable := l.StableLSN()

	inj.Arm(FPWrite, fault.Spec{Kind: fault.None, Crash: true})
	lsn := l.Append(&Record{Type: RecCommit, TxnID: 50})
	err := l.Force(lsn)
	if err == nil {
		t.Fatal("force acked across a crash between write and sync")
	}
	if !errors.Is(err, ErrLogFailed) {
		t.Fatalf("error %v missing ErrLogFailed", err)
	}
	if got := l.StableLSN(); got != stable {
		t.Fatalf("stable point moved %d -> %d across the crash", stable, got)
	}
	// The frozen stable prefix is exactly what a crash image replays.
	img := crashImage(t, l, nil)
	if img.EndLSN() != stable {
		t.Fatalf("crash image ends at %d, want %d", img.EndLSN(), stable)
	}
}

// TestForceGroupPipelinedFailureNotAcked: a permanent sync fault under
// the pipelined group commit must fail every waiter whose record did
// not reach stability — same contract as the serial path.
func TestForceGroupPipelinedFailureNotAcked(t *testing.T) {
	l, inj := newFaultyLog(4)
	lsns := appendN(l, 2)
	if err := l.ForceGroup(lsns[1]); err != nil {
		t.Fatal(err)
	}
	inj.Arm(FPSync, fault.Spec{Kind: fault.Permanent})
	doomed := l.Append(&Record{Type: RecCommit, TxnID: 42})
	if err := l.ForceGroup(doomed); err == nil {
		t.Fatal("pipelined group commit acked a record on a dead device")
	}
	if !l.Damaged() {
		t.Fatal("log not latched damaged")
	}
	// Sticky for later committers too.
	lsn := l.Append(&Record{Type: RecCommit, TxnID: 99})
	if err := l.ForceGroup(lsn); err == nil {
		t.Fatal("commit acked on damaged log")
	}
}
