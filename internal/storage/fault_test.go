package storage

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/wal"
)

// newFaultyPool builds a pool over a page file wired to a fresh seeded
// injector, with the injector also on the pool's eviction path.
func newFaultyPool(capacity int, seed int64) (*Pool, *wal.Log, *fault.Injector) {
	log := wal.New()
	inj := fault.New(seed)
	d := memDisk()
	d.SetInjector(inj)
	p := NewPool(1, d, log, byteCodec{}, capacity)
	p.SetInjector(inj)
	return p, log, inj
}

func dirtyPage(t testing.TB, p *Pool, lg *testLogger, pid PageID, b []byte) {
	t.Helper()
	f := mustCreate(t, p, pid)
	f.Latch.AcquireX()
	f.Data = append([]byte(nil), b...)
	lg.LogUpdate(f, 0, nil)
	f.Latch.ReleaseX()
	p.Unpin(f)
}

func TestFlushTransientDiskFaultRetried(t *testing.T) {
	p, log, inj := newFaultyPool(0, 1)
	lg := &testLogger{log: log}
	dirtyPage(t, p, lg, 3, []byte("survives"))
	inj.Arm(FPDiskWrite, fault.Spec{Kind: fault.Transient, Count: 2})
	if err := p.FlushPage(3); err != nil {
		t.Fatalf("transient write fault not retried: %v", err)
	}
	if len(p.DirtyPages()) != 0 {
		t.Fatal("page still dirty after successful flush")
	}
	img, ok, err := p.Disk().Read(3)
	if err != nil || !ok {
		t.Fatalf("stable image missing: %v %v", ok, err)
	}
	_, _, content, err := unframeImage(img)
	if err != nil || !bytes.Equal(content, []byte("survives")) {
		t.Fatalf("stable image %q err=%v", content, err)
	}
}

func TestTornPageWriteKeepsStaleImageAndDirtyFrame(t *testing.T) {
	p, log, inj := newFaultyPool(0, 2)
	lg := &testLogger{log: log}
	dirtyPage(t, p, lg, 3, []byte("old"))
	if err := p.FlushPage(3); err != nil {
		t.Fatal(err)
	}

	// Dirty it again, then tear the write-back: the stale "old" image
	// must persist and the frame must stay dirty so a later flush (or
	// redo) still covers the page.
	f, err := p.Fetch(3)
	if err != nil {
		t.Fatal(err)
	}
	f.Latch.AcquireX()
	f.Data = []byte("new")
	lg.LogUpdate(f, 0, nil)
	f.Latch.ReleaseX()
	p.Unpin(f)

	inj.Arm(FPDiskWrite, fault.Spec{Kind: fault.Torn})
	err = p.FlushPage(3)
	if !fault.IsTorn(err) {
		t.Fatalf("flush over torn write: %v", err)
	}
	if len(p.DirtyPages()) != 1 {
		t.Fatal("torn flush cleaned the frame")
	}
	img, ok, rerr := p.Disk().Read(3)
	if rerr != nil || !ok {
		t.Fatalf("stable image gone: %v %v", ok, rerr)
	}
	if _, _, content, _ := unframeImage(img); !bytes.Equal(content, []byte("old")) {
		t.Fatalf("stable image is %q, want the stale %q", content, "old")
	}
	// Disarmed, the retry path flushes the new contents.
	inj.Disarm(FPDiskWrite)
	if err := p.FlushPage(3); err != nil {
		t.Fatal(err)
	}
	img, _, _ = p.Disk().Read(3)
	if _, _, content, _ := unframeImage(img); !bytes.Equal(content, []byte("new")) {
		t.Fatalf("stable image is %q after reflush", content)
	}
}

func TestPermanentDiskFaultLatchesBroken(t *testing.T) {
	p, log, inj := newFaultyPool(0, 3)
	lg := &testLogger{log: log}
	dirtyPage(t, p, lg, 3, []byte("x"))
	inj.Arm(FPDiskWrite, fault.Spec{Kind: fault.Permanent})
	if err := p.FlushPage(3); !fault.IsPermanent(err) {
		t.Fatalf("flush on dead device: %v", err)
	}
	// The device is broken for good, even with the point disarmed.
	inj.Disarm(FPDiskWrite)
	if err := p.FlushPage(3); !errors.Is(err, ErrDiskFailed) {
		t.Fatalf("flush after permanent fault: %v", err)
	}
	// Reads keep working: degraded mode serves what is stable.
	if _, _, err := p.Disk().Read(3); err != nil {
		t.Fatalf("read on write-dead device: %v", err)
	}
}

func TestEvictionWriteBackFailureKeepsVictimBuffered(t *testing.T) {
	const capacity = 4
	p, log, inj := newFaultyPool(capacity, 4)
	lg := &testLogger{log: log}
	for pid := PageID(2); pid < 2+capacity; pid++ {
		dirtyPage(t, p, lg, pid, []byte{byte(pid)})
	}
	// The next create must evict a dirty victim; fail that write-back.
	inj.Arm(FPPoolEvict, fault.Spec{Kind: fault.Permanent})
	_, err := p.Create(50)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("create over failed eviction: %v", err)
	}
	inj.Disarm(FPPoolEvict)
	// Nothing was lost: every original page is intact (the victim was
	// reattached — its contents existed nowhere else) and still dirty.
	if got := len(p.DirtyPages()); got != capacity {
		t.Fatalf("dirty pages = %d, want %d", got, capacity)
	}
	for pid := PageID(2); pid < 2+capacity; pid++ {
		f, err := p.Fetch(pid)
		if err != nil {
			t.Fatalf("fetch %d: %v", pid, err)
		}
		if f.Data.([]byte)[0] != byte(pid) {
			t.Fatalf("page %d contents lost", pid)
		}
		p.Unpin(f)
	}
	// And the failed create did not leave a ghost frame.
	if _, err := p.Fetch(50); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("fetch of failed create: %v", err)
	}
}

func TestFetchReadTransientRetried(t *testing.T) {
	p, log, inj := newFaultyPool(2, 5)
	lg := &testLogger{log: log}
	for pid := PageID(2); pid < 8; pid++ {
		dirtyPage(t, p, lg, pid, []byte{byte(pid)})
	}
	if _, err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	inj.Arm(FPDiskRead, fault.Spec{Kind: fault.Transient, Count: 2})
	// Sweep: some fetch must miss and re-read from disk through the
	// transient fault.
	for pid := PageID(2); pid < 8; pid++ {
		f, err := p.Fetch(pid)
		if err != nil {
			t.Fatalf("fetch %d: %v", pid, err)
		}
		if f.Data.([]byte)[0] != byte(pid) {
			t.Fatalf("page %d corrupted", pid)
		}
		p.Unpin(f)
	}
	if inj.Hits(FPDiskRead) == 0 {
		t.Fatal("no disk reads probed the failpoint")
	}
}

func TestCrashLatchFreezesDisk(t *testing.T) {
	p, log, inj := newFaultyPool(0, 6)
	lg := &testLogger{log: log}
	dirtyPage(t, p, lg, 3, []byte("stable"))
	if err := p.FlushPage(3); err != nil {
		t.Fatal(err)
	}
	imgA, _, err := p.Disk().Read(3)
	if err != nil {
		t.Fatal(err)
	}

	// Dirty again, crash, and try to flush: nothing may reach the disk.
	f, _ := p.Fetch(3)
	f.Latch.AcquireX()
	f.Data = []byte("volatile")
	lg.LogUpdate(f, 0, nil)
	f.Latch.ReleaseX()
	p.Unpin(f)
	inj.TripCrash()
	if err := p.FlushPage(3); !errors.Is(err, ErrDiskFailed) {
		t.Fatalf("flush after crash: %v", err)
	}
	imgB, ok, err := p.Disk().Read(3)
	if err != nil || !ok || !bytes.Equal(imgA, imgB) {
		t.Fatal("disk image changed after the crash instant")
	}
}
