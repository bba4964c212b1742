package txn

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/fsys"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/wal"
)

// blockFS is an in-memory file system whose file syncs park until the
// gate is closed, freezing the flush pipeline's sync stage mid-flight.
type blockFS struct {
	*fsys.Mem
	gate chan struct{}
}

func (b *blockFS) OpenFile(name string, flag int) (fsys.File, error) {
	f, err := b.Mem.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return blockFile{f, b.gate}, nil
}

type blockFile struct {
	fsys.File
	gate chan struct{}
}

func (f blockFile) Sync() error {
	<-f.gate
	return f.File.Sync()
}

// blockSink moves e's log to segment files on a blockFS and returns it.
func blockSink(t *testing.T, e *env) *blockFS {
	t.Helper()
	fs := &blockFS{Mem: fsys.NewMem(), gate: make(chan struct{})}
	fw, _, err := wal.Open(fs, "wal", 0, wal.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	e.log.SetSink(fw)
	return fs
}

// TestELRReleasesLocksBeforeStable: under early lock release a writer's
// locks come free as soon as its commit record is in the log buffer,
// while its Commit call stays parked until the record is stable.
//
// TestELRReaderParksUntilWriterStable is the naive-ELR regression: a
// read-only transaction that observed early-released state has nothing
// of its own to force — its "own force" completes trivially first — but
// its ack must still wait for the writer's commit LSN to become stable.
func TestELRReaderParksUntilWriterStable(t *testing.T) {
	e := newEnv(t, Options{})
	sink := blockSink(t, e)

	name := lock.KeyName(1, []byte("elr"))
	writer := e.tm.Begin()
	if err := writer.Lock(name, lock.X); err != nil {
		t.Fatal(err)
	}
	e.add(writer, storage.PageID(1), 1)

	writerDone := make(chan error, 1)
	go func() { writerDone <- writer.Commit() }()

	// Early lock release: the reader acquires the writer's lock while
	// the writer's commit is still parked in the blocked sync stage.
	reader := e.tm.Begin()
	deadline := time.Now().Add(5 * time.Second)
	for !reader.TryLock(name, lock.S) {
		if time.Now().After(deadline) {
			t.Fatal("reader never acquired the early-released lock")
		}
		runtime.Gosched()
	}
	select {
	case err := <-writerDone:
		t.Fatalf("writer commit returned (%v) before its record was stable", err)
	default:
	}

	readerDone := make(chan error, 1)
	go func() { readerDone <- reader.Commit() }()

	// The reader is read-only, so a naive ELR acks it immediately. The
	// commit dependency must hold the ack while the writer's LSN is
	// unstable.
	select {
	case err := <-readerDone:
		t.Fatalf("reader acked (%v) while the observed commit was unstable", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(sink.gate)
	if err := <-writerDone; err != nil {
		t.Fatalf("writer commit: %v", err)
	}
	if err := <-readerDone; err != nil {
		t.Fatalf("reader commit: %v", err)
	}
	// Both acks implied stability: the stable prefix covers the writer's
	// commit record, the last record it logged.
	if e.log.StableLSN() <= writer.LastLSN() {
		t.Fatalf("stable LSN %d does not cover the writer's commit record at %d", e.log.StableLSN(), writer.LastLSN())
	}
	if v := e.value(t, storage.PageID(1)); v != 1 {
		t.Fatalf("page value %d, want 1", v)
	}
}

// TestELRUpdateDependentParksToo: an update transaction that read
// early-released state commits with its own record; its force target
// must cover max(ownLSN, depLSN). With stability a prefix this is
// automatic — the regression here is that the dependent's ack never
// lands while the log is still parked before the writer's record.
func TestELRUpdateDependentParksToo(t *testing.T) {
	e := newEnv(t, Options{})
	sink := blockSink(t, e)

	name := lock.KeyName(1, []byte("chain"))
	w1 := e.tm.Begin()
	if err := w1.Lock(name, lock.X); err != nil {
		t.Fatal(err)
	}
	e.add(w1, storage.PageID(2), 1)
	w1Done := make(chan error, 1)
	go func() { w1Done <- w1.Commit() }()

	w2 := e.tm.Begin()
	deadline := time.Now().Add(5 * time.Second)
	for !w2.TryLock(name, lock.X) {
		if time.Now().After(deadline) {
			t.Fatal("second writer never acquired the early-released lock")
		}
		runtime.Gosched()
	}
	e.add(w2, storage.PageID(2), 10)
	w2Done := make(chan error, 1)
	go func() { w2Done <- w2.Commit() }()

	select {
	case err := <-w1Done:
		t.Fatalf("first writer acked (%v) before stability", err)
	case err := <-w2Done:
		t.Fatalf("dependent writer acked (%v) before stability", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(sink.gate)
	if err := <-w1Done; err != nil {
		t.Fatal(err)
	}
	if err := <-w2Done; err != nil {
		t.Fatal(err)
	}
	if v := e.value(t, storage.PageID(2)); v != 11 {
		t.Fatalf("page value %d, want 11", v)
	}
}

// TestELRDepBookkeepingZeroAlloc: folding inherited commit dependencies
// into the transaction on the lock hot path must not allocate.
func TestELRDepBookkeepingZeroAlloc(t *testing.T) {
	e := newEnv(t, Options{})
	names := make([]lock.Name, 4)
	for i := range names {
		names[i] = lock.PageName(7, uint64(i))
	}
	reader := e.tm.Begin()
	defer func() { _ = reader.Commit() }()
	// Warm the lock tables.
	for i := 0; i < 50; i++ {
		for _, n := range names {
			if !reader.TryLock(n, lock.S) {
				t.Fatal("uncontended TryLock failed")
			}
		}
		e.lm.ReleaseAll(reader.ID)
	}
	avg := testing.AllocsPerRun(200, func() {
		for _, n := range names {
			if !reader.TryLock(n, lock.S) {
				panic("uncontended TryLock failed")
			}
		}
		e.lm.ReleaseAll(reader.ID)
	})
	if avg != 0 {
		t.Fatalf("dep fold on lock path allocates %.1f objects per run, want 0", avg)
	}
}
