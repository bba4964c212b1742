package wal

import (
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/fsys"
)

// TestTornSyncRewindsFileSink: in the pipelined path the write stage
// may have handed bytes to the file sink before the sync tears. The
// rewind must truncate the segment files back to the tear boundary so a
// replay of the surviving files ends exactly at the in-memory stable
// point — no ghost records from written-but-unsynced bytes.
//
// On the in-memory file system the replay is of the crash's durable state:
// the surviving prefix must have been synced, the rest must not.
func TestTornSyncRewindsFileSink(t *testing.T) { onBoth(t, testTornSyncRewinds) }

func testTornSyncRewinds(t *testing.T, fs fsys.FS, dir string, crash func(fsys.FS) fsys.FS) {
	fw, rd, err := Open(fs, dir, 0, SyncAlways)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if rd != nil {
		t.Fatal("fresh dir produced a reader")
	}
	l := New()
	l.SetSink(fw)
	inj := fault.New(7)
	l.SetInjector(inj)

	fileAppendN(t, l, 20, 'a')
	preStable := l.StableLSN()

	inj.Arm(FPSync, fault.Spec{Kind: fault.Torn})
	lsns := appendN(l, 10)
	err = l.Force(lsns[9])
	if err == nil {
		t.Fatal("torn sync acked")
	}
	stable := l.StableLSN()
	if stable < preStable {
		t.Fatalf("stable point went backwards: %d -> %d", preStable, stable)
	}
	if !l.Damaged() {
		t.Fatal("log not latched damaged after torn sync")
	}
	fw.Close()

	fw2, rd2, _ := replayRecords(t, crash(fs), dir, 0)
	defer fw2.Close()
	end := LSN(1)
	if rd2 != nil {
		end = rd2.EndLSN()
	}
	if end != stable {
		t.Fatalf("file replay ends at %d, in-memory stable point is %d", end, stable)
	}
}

// TestPermanentSyncRewindsFileSink: a permanent sync failure leaves
// written-but-unsynced bytes in the sink; the rewind drops them so the
// files agree with the frozen stable point.
func TestPermanentSyncRewindsFileSink(t *testing.T) { onBoth(t, testPermanentSyncRewinds) }

func testPermanentSyncRewinds(t *testing.T, fs fsys.FS, dir string, crash func(fsys.FS) fsys.FS) {
	fw, _, err := Open(fs, dir, 0, SyncAlways)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l := New()
	l.SetSink(fw)
	inj := fault.New(8)
	l.SetInjector(inj)

	fileAppendN(t, l, 20, 'c')
	stable := l.StableLSN()

	inj.Arm(FPSync, fault.Spec{Kind: fault.Permanent})
	lsns := appendN(l, 5)
	if err := l.Force(lsns[4]); err == nil {
		t.Fatal("force acked on a dead device")
	}
	if got := l.StableLSN(); got != stable {
		t.Fatalf("stable point moved %d -> %d on permanent failure", stable, got)
	}
	fw.Close()

	fw2, rd2, _ := replayRecords(t, crash(fs), dir, 0)
	defer fw2.Close()
	if rd2 == nil {
		t.Fatal("no reader after replay")
	}
	if rd2.EndLSN() != stable {
		t.Fatalf("file replay ends at %d, want the stable point %d", rd2.EndLSN(), stable)
	}
}

// TestPermanentSyncThenMoreAppends: after a permanent sync failure the
// log keeps taking appends, and every force of them is refused — by
// Force, ForceGroup and ForceAll alike. A reopen of the files, as they
// are and as a crash leaves them, must find exactly the stable prefix:
// every record below it, none past it, and no gap. The sync's rewind
// leaves the written point where the failed round put it, above the
// stable one; this holds the files to the stable point regardless.
func TestPermanentSyncThenMoreAppends(t *testing.T) {
	fs := fsys.NewMem()
	fw, _, err := Open(fs, "wal", 0, SyncAlways)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l := New()
	l.SetSink(fw)
	inj := fault.New(9)
	l.SetInjector(inj)
	want := fileAppendN(t, l, 20, 'd')
	stable := l.StableLSN()

	inj.Arm(FPSync, fault.Spec{Kind: fault.Permanent})
	for round := 0; round < 4; round++ {
		lsns := appendN(l, 3)
		for i, force := range []func() error{
			func() error { return l.Force(lsns[0]) },
			func() error { return l.ForceGroup(lsns[2]) },
			l.ForceAll,
		} {
			if err := force(); err == nil {
				t.Fatalf("round %d force %d acked on a dead device", round, i)
			}
		}
	}
	if got := l.StableLSN(); got != stable {
		t.Fatalf("stable point moved %d -> %d", stable, got)
	}
	fw.Close()

	for name, fs := range map[string]fsys.FS{"as left": fs, "after a crash": fs.Crash(fsys.DropUnsynced)} {
		fw2, rd, got := replayRecords(t, fs, "wal", 0)
		fw2.Close()
		if rd == nil || rd.EndLSN() != stable || !slices.Equal(got, want) {
			t.Fatalf("%s: replay of %d records, want the %d below the stable point %d", name, len(got), len(want), stable)
		}
	}
}

// TestPersistVSegmentCrossing: vectored persists that span both the
// in-memory 64KiB log segments and multiple on-disk segment files must
// replay byte-identically.
func TestPersistVSegmentCrossing(t *testing.T) {
	dir := t.TempDir()
	// Small on-disk segments force many rolls; payloads near the record
	// cap cross the in-memory segment boundary too.
	fw, _, err := OpenFileWAL(dir, minSegmentSz, SyncAlways)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l := New()
	l.SetSink(fw)
	var lsns []LSN
	for i := 0; i < 300; i++ {
		pl := make([]byte, 200+i%800)
		for j := range pl {
			pl[j] = byte(i + j)
		}
		lsns = append(lsns, l.Append(&Record{
			Type: RecUpdate, TxnID: TxnID(i + 1), StoreID: 1,
			PageID: uint64(i + 2), Payload: pl,
		}))
		// Force in bursts so individual PersistV calls carry multi-record
		// vectored batches.
		if i%17 == 0 {
			if err := l.ForceGroup(lsns[len(lsns)-1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.ForceAll(); err != nil {
		t.Fatal(err)
	}
	end := l.StableLSN()
	st := fw.Stats()
	if st.SegmentsCreated < 2 {
		t.Fatalf("only %d segments created; test did not cross file segments", st.SegmentsCreated)
	}
	fw.Close()

	fw2, rd2, got := replayRecords(t, fsys.OS, dir, minSegmentSz)
	defer fw2.Close()
	if rd2 == nil || rd2.EndLSN() != end {
		t.Fatalf("replay end = %v, want %d", rd2, end)
	}
	if len(got) != len(lsns) {
		t.Fatalf("replayed %d records, want %d", len(got), len(lsns))
	}
	for i := range lsns {
		if got[i] != lsns[i] {
			t.Fatalf("record %d at %d, want %d", i, got[i], lsns[i])
		}
	}
	rec, err := rd2.Read(lsns[123])
	if err != nil || rec.TxnID != 124 {
		t.Fatalf("read back: %+v err=%v", rec, err)
	}
	for j, b := range rec.Payload {
		if b != byte(123+j) {
			t.Fatalf("payload byte %d corrupted through vectored persist", j)
		}
	}
}
