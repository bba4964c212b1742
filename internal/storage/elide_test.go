package storage

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/fsys"
	"repro/internal/wal"
)

// The elision tests' record kinds: a page image (the page's whole content,
// as a tree's format record is) and an append to the page's bytes.
const (
	kindTestImage  wal.Kind = 901
	kindTestAppend wal.Kind = 902
)

func registerTestKinds(reg *Registry) {
	reg.Register(kindTestImage, Handler{Image: true, Redo: func(f *Frame, rec *wal.Record) error {
		f.Data = bytes.Clone(rec.Payload)
		return nil
	}})
	reg.Register(kindTestAppend, Handler{Redo: func(f *Frame, rec *wal.Record) error {
		b, ok := f.Data.([]byte)
		if !ok {
			return fmt.Errorf("append to page %d holding %T", f.ID, f.Data)
		}
		f.Data = append(bytes.Clone(b), rec.Payload...)
		return nil
	}})
}

// elideEnv is one bounded pool that elides: its log, its registry, and a
// page file behind an injector, both on one in-memory file system.
type elideEnv struct {
	t    testing.TB
	fs   *fsys.Mem
	boot *wal.Reader // the log the file system held when the env opened
	log  *wal.Log
	inj  *fault.Injector
	p    *Pool
	lg   *testLogger
}

func newElideEnv(t testing.TB, capacity int, fs *fsys.Mem, seed int64) *elideEnv {
	log, boot, err := wal.OpenLog(fs, "wal", 0, wal.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := OpenFileDisk(fs, "pages", 0)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(seed)
	disk.SetInjector(inj)
	reg := NewRegistry()
	registerTestKinds(reg)
	p := NewPool(1, disk, log, byteCodec{}, capacity)
	p.SetInjector(inj)
	reg.AddPool(p)
	return &elideEnv{t: t, fs: fs, boot: boot, log: log, inj: inj, p: p, lg: &testLogger{log: log}}
}

// format installs b as a fresh image of pid, as an allocation does.
func (e *elideEnv) format(pid PageID, b []byte) error {
	f, err := e.p.Create(pid)
	if err != nil {
		return err
	}
	f.Latch.AcquireX()
	e.lg.LogUpdate(f, kindTestImage, b)
	f.Data = bytes.Clone(b)
	f.Latch.ReleaseX()
	e.p.Unpin(f)
	return nil
}

// add appends b to pid's bytes, logged.
func (e *elideEnv) add(pid PageID, b []byte) error {
	f, err := e.p.Fetch(pid)
	if err != nil {
		return err
	}
	f.Latch.AcquireX()
	e.lg.LogUpdate(f, kindTestAppend, b)
	f.Data = append(bytes.Clone(f.Data.([]byte)), b...)
	f.Latch.ReleaseX()
	e.p.Unpin(f)
	return nil
}

func (e *elideEnv) read(pid PageID) ([]byte, error) {
	f, err := e.p.Fetch(pid)
	if err != nil {
		return nil, err
	}
	f.Latch.AcquireS()
	b := bytes.Clone(f.Data.([]byte))
	f.Latch.ReleaseS()
	e.p.Unpin(f)
	return b, nil
}

// restart rebuilds the environment from what a crash leaves — the synced
// log and page file — with a bounded pool of capacity, and redoes the
// whole log through it, evicting (and eliding) as it goes.
func (e *elideEnv) restart(capacity int, seed int64) *elideEnv {
	e.t.Helper()
	n := newElideEnv(e.t, capacity, e.fs.Crash(fsys.DropUnsynced), seed)
	if n.boot == nil {
		return n
	}
	var err error
	n.boot.Scan(wal.NilLSN, func(rec wal.Record) bool {
		if rec.PageID != 0 {
			err = n.p.reg.ApplyRedo(&rec)
		}
		return err == nil
	})
	if err != nil {
		e.t.Fatalf("restart redo: %v", err)
	}
	return n
}

// checkTable holds the dirty page table to the pool it indexes: its count
// and oldest recLSN are DirtyPages' (checkDirtyIndex); every elided page
// owns a heap entry at its recLSN, and no page is both elided and
// buffered; and the heap holds one entry per dirty frame, in-flight victim
// and elided page. Call it on a quiet pool.
func (e *elideEnv) checkTable() {
	e.t.Helper()
	checkDirtyIndex(e.t, e.p)
	for i := range e.p.shards {
		e.p.shards[i].mu.Lock()
		defer e.p.shards[i].mu.Unlock()
	}
	t := &e.p.dirty
	t.mu.Lock()
	defer t.mu.Unlock()
	elided, dirty := 0, 0
	for i := range e.p.shards {
		sh := &e.p.shards[i]
		for _, f := range sh.frames {
			if f.Dirty() {
				dirty++
			}
		}
		for _, op := range sh.flushing {
			if op.f.Dirty() {
				dirty++
			}
		}
		for pid, en := range sh.elided {
			elided++
			if f, ok := sh.frames[pid]; ok && !f.loading {
				e.t.Fatalf("page %d is both elided and buffered", pid)
			}
			if i := en.pos - 1; i < 0 || i >= len(t.heap) || t.heap[i].pos != &en.pos || t.heap[i].rec != en.rec() || t.heap[i].pid != pid {
				e.t.Fatalf("elided page %d (recLSN %d) does not own a heap entry at its recLSN (position %d)", pid, en.rec(), en.pos)
			}
		}
	}
	if elided != e.p.ElidedCount() || len(t.heap) != dirty+elided {
		e.t.Fatalf("%d elided entries, ElidedCount %d; %d dirty frames and victims; %d heap entries",
			elided, e.p.ElidedCount(), dirty, len(t.heap))
	}
}

// TestPoolModel drives a bounded pool that elides with seeded fetches,
// updates, formats, flushes, drops and reuses, crashes and restarts,
// failing eviction writes and failing replays, against a map of page
// contents. Every read must equal the model; the dirty page table must
// account for every elided page; a failed replay must leave its page
// elided and a later fetch must still rebuild it; after a crash, redo
// through a bounded pool (which elides too) must rebuild the model.
func TestPoolModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { poolModel(t, seed) })
	}
}

func poolModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const pages, capacity = 40, 6
	e := newElideEnv(t, capacity, fsys.NewMem(), seed)
	model := map[PageID][]byte{}
	next := PageID(2)
	injected := func(err error) bool { return errors.Is(err, fault.ErrInjected) }
	for op := 0; op < 3000; op++ {
		var pid PageID
		if len(model) > 0 {
			pid = PageID(2 + rng.Intn(int(next-2)))
		}
		_, exists := model[pid]
		switch r := rng.Intn(100); {
		case r < 8 || len(model) == 0:
			if next < 2+pages {
				b := []byte{byte(next)}
				if err := e.format(next, b); err != nil && !injected(err) {
					t.Fatalf("op %d: format %d: %v", op, next, err)
				} else if err == nil {
					model[next] = b
					next++
				}
			}
		case r < 45 && exists:
			b := []byte{byte(rng.Intn(256))}
			if err := e.add(pid, b); err == nil {
				model[pid] = append(model[pid], b...)
			} else if !injected(err) {
				t.Fatalf("op %d: add to %d: %v", op, pid, err)
			}
		case r < 75 && exists:
			got, err := e.read(pid)
			if err != nil && !injected(err) {
				t.Fatalf("op %d: read %d: %v", op, pid, err)
			}
			if err == nil && !bytes.Equal(got, model[pid]) {
				t.Fatalf("op %d: page %d reads %v, model %v", op, pid, got, model[pid])
			}
		case r < 80 && exists:
			if err := e.p.FlushPage(pid); err != nil && !injected(err) {
				t.Fatalf("op %d: flush %d: %v", op, pid, err)
			}
		case r < 82:
			if _, err := e.p.FlushAll(); err != nil && !injected(err) {
				t.Fatalf("op %d: flush all: %v", op, err)
			} else if err == nil && e.p.ElidedCount() != 0 {
				t.Fatalf("op %d: FlushAll left %d pages elided", op, e.p.ElidedCount())
			}
		case r < 86 && exists:
			// De-allocate and reuse: the new incarnation starts from an
			// image and must never see the old one's chain.
			e.p.Drop(pid)
			b := []byte{0xd0, byte(op)}
			err := e.format(pid, b)
			for try := 0; injected(err) && try < 8; try++ {
				err = e.format(pid, b) // retried until the armed faults have passed
			}
			if err != nil {
				t.Fatalf("op %d: reformat %d: %v", op, pid, err)
			}
			model[pid] = b
		case r < 90:
			e.inj.Arm(FPPoolEvict, fault.Spec{Kind: fault.Transient, Count: 1 + int64(rng.Intn(3))})
		case r < 94:
			kind := fault.Permanent
			if rng.Intn(2) == 0 {
				kind = fault.Transient
			}
			e.inj.Arm(FPPoolReplay, fault.Spec{Kind: kind, Count: 1 + int64(rng.Intn(4))})
		case r < 96:
			e.inj.Disarm(FPPoolEvict)
			e.inj.Disarm(FPPoolReplay)
			if err := e.log.ForceAll(); err != nil {
				t.Fatal(err)
			}
			e = e.restart(capacity, seed+int64(op))
			for p, want := range model {
				if got, err := e.read(p); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("op %d: after restart page %d reads %v (%v), model %v", op, p, got, err, want)
				}
			}
		}
		e.checkTable()
	}
	e.inj.Disarm(FPPoolEvict)
	e.inj.Disarm(FPPoolReplay)
	if e.p.Stats().Elisions == 0 || e.p.Stats().Replays == 0 {
		t.Fatalf("the model never elided or replayed: %+v", e.p.Stats())
	}
	for p, want := range model {
		if got, err := e.read(p); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("at the end page %d reads %v (%v), model %v", p, got, err, want)
		}
	}
}

// TestPoolModelConcurrent runs the model's update and read mix from
// several goroutines over disjoint pages of one small pool, so elisions,
// replays and the fetches that wait on them cross between shards and
// goroutines (run it at -cpu 1,2,4).
func TestPoolModelConcurrent(t *testing.T) {
	const workers, perWorker = 4, 12
	e := newElideEnv(t, 8, fsys.NewMem(), 7)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			model := map[PageID][]byte{}
			base := PageID(2 + w*perWorker)
			for i := 0; i < perWorker; i++ {
				if err := e.format(base+PageID(i), nil); err != nil {
					errs <- err
					return
				}
				model[base+PageID(i)] = nil
			}
			for op := 0; op < 2000; op++ {
				pid := base + PageID(rng.Intn(perWorker))
				if rng.Intn(3) == 0 {
					b := []byte{byte(op)}
					if err := e.add(pid, b); err != nil {
						errs <- err
						return
					}
					model[pid] = append(model[pid], b...)
					continue
				}
				got, err := e.read(pid)
				if err != nil || !bytes.Equal(got, model[pid]) {
					errs <- fmt.Errorf("worker %d op %d: page %d reads %v (%v), model %v", w, op, pid, got, err, model[pid])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	e.checkTable()
	if e.p.Stats().Replays == 0 {
		t.Fatal("no page was replayed")
	}
}

// TestElideChainCap: a dirty victim whose chain since its stable image is
// at most maxElideChain records is dropped unwritten; one past the cap is
// written back as before — every record of a group counting.
func TestElideChainCap(t *testing.T) {
	e := newElideEnv(t, 1, fsys.NewMem(), 1)
	if err := e.format(2, []byte{1}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < maxElideChain; i++ {
		if err := e.add(2, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.format(3, nil); err != nil { // evicts page 2, maxElideChain records long
		t.Fatal(err)
	}
	if s := e.p.Stats(); s.Elisions != 1 || s.Flushes != 0 || !e.p.isElided(2) {
		t.Fatalf("a chain at the cap: %+v, page 2 elided %v", s, e.p.isElided(2))
	}
	// One group of maxElideChain records on page 3, after its format: one
	// past the cap. The records are appended as a group is, each naming
	// its predecessor, and the page is marked once for all of them.
	f, err := e.p.Fetch(3)
	if err != nil {
		t.Fatal(err)
	}
	f.Latch.AcquireX()
	var first, last wal.LSN
	for i := 0; i < maxElideChain; i++ {
		prev := last
		if i == 0 {
			prev = f.PageLSN()
		}
		last = e.log.Append(&wal.Record{Type: wal.RecUpdate, Kind: kindTestAppend, TxnID: 99,
			StoreID: f.StoreID(), PageID: uint64(f.ID), PagePrev: prev, Payload: []byte{byte(i)}})
		if i == 0 {
			first = last
		}
		f.Data = append(bytes.Clone(f.Data.([]byte)), byte(i))
	}
	f.MarkDirtyGroup(first, last, maxElideChain)
	f.Latch.ReleaseX()
	e.p.Unpin(f)
	if got := f.chain.Load(); got != maxElideChain+1 {
		t.Fatalf("page 3's chain is %d records, want %d", got, maxElideChain+1)
	}
	if _, err := e.read(2); err != nil { // evicts page 3
		t.Fatal(err)
	}
	if s := e.p.Stats(); s.Elisions != 1 || s.Flushes != 1 || e.p.isElided(3) {
		t.Fatalf("a chain past the cap: %+v, page 3 elided %v", s, e.p.isElided(3))
	}
	if got, err := e.read(3); err != nil || len(got) != maxElideChain {
		t.Fatalf("page 3 reads %v (%v)", got, err)
	}
}

// TestElideDropReuse: Drop forgets an elided page, and a page ID reused
// after it — or formatted again while still elided — starts from its new
// image: no fetch ever replays the earlier incarnation's chain.
func TestElideDropReuse(t *testing.T) {
	e := newElideEnv(t, 1, fsys.NewMem(), 1)
	if err := e.format(2, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.p.FlushAll(); err != nil { // a stable image of the old incarnation
		t.Fatal(err)
	}
	for _, b := range []string{"-a", "-b"} {
		if err := e.add(2, []byte(b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.format(3, nil); err != nil { // elides page 2
		t.Fatal(err)
	}
	if !e.p.isElided(2) {
		t.Fatal("page 2 is not elided")
	}
	e.p.Drop(2)
	if e.p.isElided(2) || e.p.ElidedCount() != 0 {
		t.Fatal("Drop left page 2 elided")
	}
	if _, ok := e.p.DirtyPages()[2]; ok {
		t.Fatal("a dropped page is still in the dirty page table")
	}
	if err := e.format(2, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := e.add(2, []byte("+1")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.read(3); err != nil { // elides page 2 again
		t.Fatal(err)
	}
	if got, err := e.read(2); err != nil || string(got) != "new+1" {
		t.Fatalf("reused page 2 reads %q (%v), want %q", got, err, "new+1")
	}
	// Formatted again while elided, without a Drop: Create takes the
	// entry's place in the dirty page table and replays nothing.
	if _, err := e.read(3); err != nil {
		t.Fatal(err)
	}
	if !e.p.isElided(2) {
		t.Fatal("page 2 is not elided the second time")
	}
	replays := e.p.Stats().Replays
	if err := e.format(2, []byte("third")); err != nil {
		t.Fatal(err)
	}
	if e.p.Stats().Replays != replays {
		t.Fatal("formatting an elided page replayed its chain")
	}
	if _, err := e.read(3); err != nil {
		t.Fatal(err)
	}
	if got, err := e.read(2); err != nil || string(got) != "third" {
		t.Fatalf("page 2 reads %q (%v), want %q", got, err, "third")
	}
	e.checkTable()
}

// TestElideBrokenChain: a chain that does not lead back to the stable
// image fails the fetch with ErrBrokenChain, and the page stays elided.
func TestElideBrokenChain(t *testing.T) {
	e := newElideEnv(t, 1, fsys.NewMem(), 1)
	if err := e.format(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := e.format(3, nil); err != nil { // elides page 2
		t.Fatal(err)
	}
	sh := e.p.shard(2)
	sh.mu.Lock()
	en := sh.elided[2]
	// Name a record of page 3 as page 2's last, at the same recLSN.
	rec := en.rec()
	en.page = e.log.EndLSN() - 1
	en.back = uint32(en.page - rec)
	sh.mu.Unlock()
	if _, err := e.read(2); err == nil {
		t.Fatal("a fetch over a broken chain succeeded")
	}
	if !e.p.isElided(2) {
		t.Fatal("a failed replay dropped the entry")
	}
	e.checkTable()
}

// TestElideSkippedRecordFails: two records logged against a page before it
// is marked both name the stable image as their predecessor, so the walk
// from the second skips the first. The walk reaches the stable image in one
// record where the page counted two, and the fetch fails instead of
// installing the page without the first update.
func TestElideSkippedRecordFails(t *testing.T) {
	e := newElideEnv(t, 1, fsys.NewMem(), 1)
	if err := e.format(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.p.FlushAll(); err != nil { // a stable image at the format
		t.Fatal(err)
	}
	f, err := e.p.Fetch(2)
	if err != nil {
		t.Fatal(err)
	}
	f.Latch.AcquireX()
	var lsns [2]wal.LSN
	for i, b := range []string{"-a", "-b"} {
		lsns[i] = e.log.Append(&wal.Record{Type: wal.RecUpdate, Kind: kindTestAppend, TxnID: 99,
			StoreID: f.StoreID(), PageID: uint64(f.ID), PagePrev: f.PageLSN(), Payload: []byte(b)})
		f.Data = append(bytes.Clone(f.Data.([]byte)), b...)
	}
	f.MarkDirtyGroup(lsns[0], lsns[1], 2)
	f.Latch.ReleaseX()
	e.p.Unpin(f)
	if err := e.format(3, nil); err != nil { // elides page 2
		t.Fatal(err)
	}
	if !e.p.isElided(2) {
		t.Fatal("page 2 is not elided")
	}
	if got, err := e.read(2); !errors.Is(err, ErrBrokenChain) {
		t.Fatalf("a fetch over a skipped record reads %q, %v; want ErrBrokenChain", got, err)
	}
	if !e.p.isElided(2) {
		t.Fatal("a failed replay dropped the entry")
	}
	e.checkTable()
}

// evict drops pid's frame as an eviction does — detached, unpinned, under
// its shard's mutex — and reports whether the pool elided it.
func (e *elideEnv) evict(pid PageID) bool {
	sh := e.p.shard(pid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f := sh.frames[pid]
	if f == nil || f.pins.Load() != 0 {
		return false
	}
	sh.removeAt(f.clockIdx)
	if !e.p.elide(sh, f) {
		sh.reattach(f)
		return false
	}
	sh.recycle(f)
	return true
}

// elideAll formats pids in order, one log record each (so their recLSNs
// rise in that order), and elides each of them.
func (e *elideEnv) elideAll(pids ...PageID) {
	e.t.Helper()
	for _, pid := range pids {
		if err := e.format(pid, []byte{byte(pid)}); err != nil {
			e.t.Fatal(err)
		}
	}
	for _, pid := range pids {
		if !e.evict(pid) {
			e.t.Fatalf("page %d was not elided", pid)
		}
	}
}

// TestDirtyBelowOldestElided: the writer's batch is the oldest due pages
// of either kind. Two elided pages older than every buffered one must come
// back even when more buffered pages than the limit are due too.
func TestDirtyBelowOldestElided(t *testing.T) {
	e := newElideEnv(t, 64, fsys.NewMem(), 1)
	e.elideAll(2, 3)
	for pid := PageID(10); pid < 20; pid++ {
		if err := e.format(pid, nil); err != nil {
			t.Fatal(err)
		}
	}
	recOf := e.p.DirtyPages()
	got := e.p.DirtyBelow(e.log.EndLSN(), 4, nil)
	if len(got) != 4 {
		t.Fatalf("limit 4 returned %v", got)
	}
	slices.SortFunc(got, func(a, b PageID) int { return cmp.Compare(recOf[a], recOf[b]) })
	if got[0] != 2 || got[1] != 3 || got[2] != 10 || got[3] != 11 {
		t.Fatalf("DirtyBelow returned %v, want the oldest four: [2 3 10 11]", got)
	}
	e.checkTable()
}

// TestDirtyWatermarkFollowsElided: once the oldest elided page is written
// back, or dropped, the watermark moves to the next-oldest dirty page at
// once.
func TestDirtyWatermarkFollowsElided(t *testing.T) {
	e := newElideEnv(t, 64, fsys.NewMem(), 1)
	e.elideAll(2, 3)
	if err := e.format(4, nil); err != nil {
		t.Fatal(err)
	}
	recOf := e.p.DirtyPages()
	want := func(pid PageID, n int) {
		t.Helper()
		if oldest, got := e.p.DirtyWatermark(); oldest != recOf[pid] || got != n {
			t.Fatalf("watermark %d over %d pages, want page %d's recLSN %d over %d", oldest, got, pid, recOf[pid], n)
		}
		e.checkTable()
	}
	want(2, 3)
	if n, failed, err := e.p.FlushBatch([]PageID{2}); n != 1 || len(failed) != 0 || err != nil {
		t.Fatalf("FlushBatch of elided page 2: %d written, failed %v, %v", n, failed, err)
	}
	want(3, 2)
	e.p.Drop(3)
	want(4, 1)
}

// TestElideDropRacesFailedWrite: a Drop of an elided page while the writer
// is rebuilding and writing it (writeElided) forgets the page, and the
// write's failure must not hand the dirty page table entry back to the
// forgotten entry. The Drop lands while the replay stalls, before the
// replayed frame takes over the entry, or while the disk write stalls,
// after it. (If the Drop comes late it finds the page elided again and
// the test passes without the race; it never fails a correct pool.)
func TestElideDropRacesFailedWrite(t *testing.T) {
	for _, stall := range []string{FPPoolReplay, FPDiskWrite} {
		t.Run(stall, func(t *testing.T) {
			e := newElideEnv(t, 64, fsys.NewMem(), 1)
			e.elideAll(2)
			if err := e.format(3, nil); err != nil {
				t.Fatal(err)
			}
			e.inj.Arm(FPDiskWrite, fault.Spec{Kind: fault.Torn, Delay: 50 * time.Millisecond})
			if stall == FPPoolReplay {
				e.inj.Arm(FPPoolReplay, fault.Spec{Kind: fault.None, Delay: 50 * time.Millisecond})
			}
			done := make(chan []PageID)
			go func() {
				_, failed, _ := e.p.FlushBatch([]PageID{2})
				done <- failed
			}()
			for e.inj.Hits(stall) == 0 {
				time.Sleep(time.Millisecond)
			}
			e.p.Drop(2)
			if failed := <-done; len(failed) != 1 {
				t.Fatalf("the torn write of page 2 did not fail: failed %v", failed)
			}
			if e.p.isElided(2) {
				t.Fatal("page 2 is elided after its Drop")
			}
			if _, ok := e.p.DirtyPages()[2]; ok {
				t.Fatal("a dropped page is still in the dirty page table")
			}
			e.checkTable()
			if _, n := e.p.DirtyWatermark(); n != 1 {
				t.Fatalf("%d dirty pages, want page 3 alone", n)
			}
		})
	}
}

// TestElideReusesEntries: an elision takes its entry from the shard's
// spare list, which the replay of an earlier elided page fills, so in a
// warm elide + replay cycle the elision allocates nothing; what the cycle
// allocates is the replay's read and redo of the page.
func TestElideReusesEntries(t *testing.T) {
	e := newElideEnv(t, 4, fsys.NewMem(), 1)
	if err := e.format(2, []byte{1}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	var allocs uint64
	const cycles = 100
	for i := 0; i < cycles+1; i++ {
		runtime.ReadMemStats(&before)
		elided := e.evict(2)
		runtime.ReadMemStats(&after)
		if !elided {
			t.Fatalf("cycle %d: page 2 was not elided", i)
		}
		if i > 0 { // the first elision allocates its entry
			allocs += after.Mallocs - before.Mallocs
		}
		if _, err := e.read(2); err != nil { // the replay, which frees the entry
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	if allocs != 0 {
		t.Fatalf("%d warm elisions allocated %d objects, want 0", cycles, allocs)
	}
	if s := e.p.Stats(); s.Elisions != cycles+1 || s.Replays != cycles+1 {
		t.Fatalf("%d elisions and %d replays, want %d each", s.Elisions, s.Replays, cycles+1)
	}
	e.checkTable()
}

// TestFetchForRedo: a restart fetch of a page whose stable image holds the
// records to redo reads the image once and leaves the page unbuffered; one
// whose image is older gets the page decoded from that one read, and a
// page that never reached the disk is created. Fetches of the same page
// racing such a fetch read it themselves and see its stable contents.
func TestFetchForRedo(t *testing.T) {
	e := newElideEnv(t, 8, fsys.NewMem(), 1)
	for pid := PageID(2); pid <= 4; pid++ {
		if err := e.format(pid, []byte{byte(pid)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := e.p.disk.Sync(); err != nil {
		t.Fatal(err)
	}
	re := newElideEnv(t, 8, e.fs.Crash(fsys.DropUnsynced), 2) // nothing buffered
	re.inj.Arm(FPDiskRead, fault.Spec{After: 1 << 62})        // counts, never fires
	stable, _ := re.p.StablePageLSN(2)
	reads := func() int64 { return re.inj.Hits(FPDiskRead) }
	before := reads()
	if f, err := re.p.FetchForRedo(2, stable); err != nil || f != nil {
		t.Fatalf("covered page: frame %v, %v", f, err)
	}
	if got := reads() - before; got != 1 || re.p.resident(2) {
		t.Fatalf("covered page: %d reads, buffered %v; want 1 read and no frame", got, re.p.resident(2))
	}
	f, err := re.p.FetchForRedo(3, stable+1<<20)
	if err != nil || f == nil || !bytes.Equal(f.Data.([]byte), []byte{3}) {
		t.Fatalf("page needing redo: frame %v, %v", f, err)
	}
	re.p.Unpin(f)
	if got := reads() - before; got != 2 {
		t.Fatalf("two restart fetches read %d images", got)
	}
	if f, err := re.p.FetchForRedo(9, stable); err != nil || f == nil || f.Data != nil {
		t.Fatalf("page never written: frame %v, %v", f, err)
	} else {
		re.p.Unpin(f)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 { // no frame, or the one a racing fetch buffered
				f, err := re.p.FetchForRedo(4, stable)
				if err != nil || f != nil && !bytes.Equal(f.Data.([]byte), []byte{4}) {
					t.Errorf("covered page: frame %v, %v", f, err)
				}
				if f != nil {
					re.p.Unpin(f)
				}
				return
			}
			b, err := re.read(4)
			if err != nil || !bytes.Equal(b, []byte{4}) {
				t.Errorf("fetch racing a covered restart fetch: %v, %v", b, err)
			}
		}(i)
	}
	wg.Wait()
}
