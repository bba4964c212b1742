package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsys"
	"repro/internal/keys"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/wal"
)

// walFiles counts the live segments and the pooled free files of dir's WAL.
func walFiles(t *testing.T, dir string) (segs, free int) {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch name := e.Name(); {
		case strings.HasPrefix(name, "wal-free-"):
			free++
		case strings.HasSuffix(name, ".seg"):
			segs++
		}
	}
	return segs, free
}

// TestCloseCompactsPageFile: a Close after rewrites that left superseded
// images all over the page file packs it: the closed file holds no stale
// block, ends at its last image, and keeps under 2 % of its blocks free —
// the gap between 1 + live blocks and the start of the lowest image that
// had to move, which the one fsync of a compaction cannot close — and
// every record reads back after a reopen.
func TestCloseCompactsPageFile(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir, SegmentSize: wbSegment, Sync: wal.SyncNever}
	e, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.Create(e.AddStore(1, core.Codec{}), e.TM, e.Locks, core.Register(e.Reg, false), "t", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterCloser(tree.Close)
	const records = 20_000
	want := make([][]byte, records)
	filler := keys.Uint64(records) // past the checked keys
	put := func(step uint64, round int, insert bool) {
		t.Helper()
		for k := uint64(0); k < records; k += 100 * step {
			tx := e.TM.Begin()
			for i := k; i < min(k+100*step, records); i += step {
				v := val256(storage.PageID(i), round)[:60+(int(i)+round*7)%90]
				op := tree.Update
				if insert {
					op = tree.Insert
				}
				if err := op(tx, keys.Uint64(i), v); err != nil {
					t.Fatal(err)
				}
				want[i] = v
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		// Log a redo window past the round, so its checkpoint finds every
		// page the round dirtied due and writes it: the next round's
		// rewrites then supersede those images.
		from := e.Log.EndLSN()
		for i := 0; e.Log.EndLSN() <= from+wbWindow; i++ {
			op := tree.Update
			if insert && i == 0 {
				op = tree.Insert
			}
			tx := e.TM.Begin()
			if err := op(tx, filler, bytes.Repeat([]byte{byte(i)}, 1000)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	put(1, 0, true)
	put(3, 1, false)
	put(7, 2, false)
	path := filepath.Join(dir, "store-1.pages")
	before, err := storage.CensusPageFile(fsys.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := storage.CensusPageFile(fsys.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for n, k := range c.Extents {
		live += n * k
	}
	t.Logf("before Close: %d blocks, %d free, %d stale; after: %d blocks, %d live", before.Blocks, before.Free, before.Stale, c.Blocks, live)
	if before.Free+before.Stale == 0 {
		t.Fatalf("the rewrites left no superseded image: nothing to compact")
	}
	if c.Stale != 0 || c.Blocks != 1+live+c.Free || 50*c.Free >= c.Blocks || c.Bytes != int64(c.Blocks*c.BlockSize) || len(c.Images) != len(before.Images) {
		t.Fatalf("closed page file: %d blocks of %d B (%d bytes), %d free, %d stale, %d pages; want 1 + %d live blocks and under 2 %% free, %d pages",
			c.Blocks, c.BlockSize, c.Bytes, c.Free, c.Stale, len(c.Images), live, len(before.Images))
	}

	e2, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	b := core.Register(e2.Reg, false)
	st := e2.AddStore(1, core.Codec{})
	p, err := e2.AnalyzeAndRedo()
	if err != nil {
		t.Fatal(err)
	}
	tree2, err := core.Open(st, e2.TM, e2.Locks, b, "t", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e2.RegisterCloser(tree2.Close)
	if err := e2.FinishRecovery(p); err != nil {
		t.Fatal(err)
	}
	tx := e2.TM.Begin()
	for i, v := range want {
		if got, ok, err := tree2.Search(tx, keys.Uint64(uint64(i))); err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %d after reopen: ok=%v err=%v", i, ok, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tree2.Verify(); err != nil {
		t.Fatal(err)
	}
}

// openFDsUnder counts this process's open descriptors on files below dir.
func openFDsUnder(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir) {
			n++
		}
	}
	return n
}

// TestCloseTruncatesLog: a clean Close leaves the checkpoint record and
// nothing else — the segment holding it, no pooled free file — and the
// next Open redoes no record and finds the tree whole.
func TestCloseTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir, SegmentSize: wbSegment, Sync: wal.SyncNever}
	e, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.Create(e.AddStore(1, core.Codec{}), e.TM, e.Locks, core.Register(e.Reg, false), "t", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterCloser(tree.Close)
	const records = 20_000
	for k := uint64(0); k < records; k += 100 {
		tx := e.TM.Begin()
		for i := k; i < k+100; i++ {
			if err := tree.Insert(tx, keys.Uint64(i), val256(storage.PageID(i), 0)[:100]); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if segs, _ := walFiles(t, dir); segs < 2*wal.RedoWindowSegments {
		t.Fatalf("the load left only %d WAL segments: nothing to truncate", segs)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, free := walFiles(t, dir); segs > 2 || free != 0 {
		t.Fatalf("a closed directory holds %d WAL segments and %d free files", segs, free)
	}

	e2, recovered, err := Open(opts)
	if err != nil || !recovered {
		t.Fatalf("reopen: recovered=%v err=%v", recovered, err)
	}
	defer e2.Close()
	b := core.Register(e2.Reg, false)
	st := e2.AddStore(1, core.Codec{})
	p, err := e2.AnalyzeAndRedo()
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.RedoneRecords != 0 || p.Stats.AnalyzedRecords != 1 {
		t.Fatalf("restart of a closed directory analysed %d records and redid %d, want 1 and 0", p.Stats.AnalyzedRecords, p.Stats.RedoneRecords)
	}
	tree2, err := core.Open(st, e2.TM, e2.Locks, b, "t", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e2.RegisterCloser(tree2.Close)
	if err := e2.FinishRecovery(p); err != nil {
		t.Fatal(err)
	}
	shape, err := tree2.Verify()
	if err != nil || shape.Records != records {
		t.Fatalf("after reopen: %d records, want %d (err=%v)", shape.Records, records, err)
	}
}

// TestCheckpointBoundsLogWithoutWriter: no background writer, a few hot
// pages updated without end. Every Checkpoint must itself write what has
// left the redo window, or the first-dirtied page pins the log forever.
func TestCheckpointBoundsLogWithoutWriter(t *testing.T) {
	dir := t.TempDir()
	v, _ := openWB(t, dir, 0)
	defer v.e.Close()
	for round := 0; v.e.Log.EndLSN() < 6*wbWindow; round++ {
		for i := 0; i < 64; i++ {
			pid := storage.PageID(2 + i)
			v.put(pid, val256(pid, round))
		}
		if round%8 != 7 {
			continue
		}
		if _, err := v.e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if segs, _ := walFiles(t, dir); segs > wal.RedoWindowSegments+2 {
			t.Fatalf("%d live WAL segments after a checkpoint at LSN %d: %+v", segs, v.e.Log.EndLSN(), v.e.WriteBackStats())
		}
	}
	ws := v.e.WriteBackStats()
	if ws.Flushed == 0 || ws.Ticks != 0 || ws.RecycleHorizon+wbWindow < v.e.Log.EndLSN()-wbWindow {
		t.Fatalf("checkpoints did not hold the window by themselves: %+v", ws)
	}
}

// TestFinishRecoveryTrimsLog: restart replays the whole surviving log
// into memory; once undo has ended nothing reads it again, so
// FinishRecovery hands it back without waiting for a tick or a checkpoint.
func TestFinishRecoveryTrimsLog(t *testing.T) {
	dir := t.TempDir()
	v, _ := openWB(t, dir, 0)
	v.put(2, []byte("before"))
	for round := 0; v.e.Log.EndLSN() < 3*wbWindow; round++ {
		for i := 0; i < 64; i++ {
			pid := storage.PageID(10 + i)
			v.put(pid, val256(pid, round))
		}
	}
	loser := v.e.TM.Begin()
	v.swap(loser, 2, []byte("uncommitted"))
	if err := v.e.Log.ForceAll(); err != nil {
		t.Fatal(err)
	}
	// The kill: v is abandoned with its transaction open.

	v2, recovered := openWB(t, dir, 0)
	defer v2.e.Close()
	if !recovered {
		t.Fatal("reopen found no log")
	}
	if ws := v2.e.WriteBackStats(); ws.LogBuffered < 3*wbWindow {
		t.Fatalf("restart holds %d log bytes in memory, less than the log", ws.LogBuffered)
	}
	st, err := v2.e.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.LoserTxns != 1 || v2.read(2) != "before" {
		t.Fatalf("%d losers undone, page 2 = %q", st.LoserTxns, v2.read(2))
	}
	// One buffer segment holds the stable point; undo's own records may
	// have started a second.
	if ws := v2.e.WriteBackStats(); ws.LogBuffered > 2*wbSegment {
		t.Fatalf("%d log bytes still in memory after FinishRecovery: %+v", ws.LogBuffered, ws)
	}
	// An audit continued over what is left must notice the gap, not skip it.
	if _, err := recovery.AuditSpaceTail(nil, v2.e.Log.FullImage(), 1); err == nil {
		t.Fatal("a space audit continued across the released log")
	}
}

// TestCloseDuringRestartKeepsLog: an engine closed before restart has
// finished — right after Open, or after redo with the losers not yet
// undone — takes no shutdown checkpoint and refuses an explicit one: its
// transaction table is empty, so the checkpoint would recycle the very
// log the next Open has to replay and roll back from.
func TestCloseDuringRestartKeepsLog(t *testing.T) {
	for _, stage := range []string{"after Open", "after redo"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			v, _ := openWB(t, dir, 0)
			v.put(2, []byte("before"))
			for round := 0; v.e.Log.EndLSN() < wbWindow/2; round++ {
				for i := 0; i < 16; i++ {
					pid := storage.PageID(10 + i)
					v.put(pid, val256(pid, round))
				}
			}
			last := v.read(10)
			loser := v.e.TM.Begin()
			v.swap(loser, 2, []byte("uncommitted"))
			if err := v.e.Log.ForceAll(); err != nil {
				t.Fatal(err)
			}
			// The kill: v is abandoned with its transaction open and no page
			// written since bootstrap.

			v2, recovered := openWB(t, dir, 0)
			if !recovered {
				t.Fatal("reopen found no log")
			}
			segs, _ := walFiles(t, dir)
			if stage == "after redo" {
				if _, err := v2.e.AnalyzeAndRedo(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := v2.e.Checkpoint(); err == nil {
				t.Fatal("Checkpoint succeeded on an engine that has not finished restart")
			}
			if err := v2.e.Close(); err != nil {
				t.Fatal(err)
			}
			if got, _ := walFiles(t, dir); got < segs {
				t.Fatalf("Close during restart left %d of %d WAL segments", got, segs)
			}

			v3, _ := openWB(t, dir, 0)
			defer v3.e.Close()
			st, err := v3.e.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if st.LoserTxns != 1 || v3.read(2) != "before" || v3.read(10) != last {
				t.Fatalf("%d losers undone, page 2 = %q, page 10 intact = %v", st.LoserTxns, v3.read(2), v3.read(10) == last)
			}
		})
	}
}

// TestCheckpointWriteBackStopsOnPermanentFault: with the page device dead
// the checkpoint's write-back pass gives up at its first fruitless batch,
// the checkpoint is still taken, and the horizon stays where the unwritten
// pages pin it.
func TestCheckpointWriteBackStopsOnPermanentFault(t *testing.T) {
	inj := fault.New(18)
	v, _ := openWBOpts(t, Options{DataDir: t.TempDir(), Injector: inj})
	e := v.e
	defer e.Close()
	for i := 0; i < 3*maxWriteBackPerTick; i++ {
		pid := storage.PageID(2 + i)
		v.put(pid, val256(pid, 0))
	}
	// Every page above is inside the window: this checkpoint leaves them
	// dirty. A window of log past them makes them all due at the next.
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	v.logPastWindow(storage.PageID(2 + 3*maxWriteBackPerTick))
	before := e.WriteBackStats()
	if before.Flushed != 0 {
		t.Fatalf("the checkpoint wrote in-window pages: %+v", before)
	}
	inj.Arm(storage.FPDiskWrite, fault.Spec{Kind: fault.Permanent, Count: -1})
	done := make(chan error, 1)
	go func() {
		_, err := e.Checkpoint()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("checkpoint over a dead page device: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("checkpoint spins on a permanent write fault")
	}
	after := e.WriteBackStats()
	if after.Flushed != before.Flushed || after.Rearmed-before.Rearmed != maxWriteBackPerTick {
		t.Fatalf("write-back under a permanent fault: %+v -> %+v", before, after)
	}
	if after.RecycleHorizon != before.RecycleHorizon || after.CheckpointLSN <= before.CheckpointLSN {
		t.Fatalf("horizon %d -> %d, anchor %d -> %d", before.RecycleHorizon, after.RecycleHorizon, before.CheckpointLSN, after.CheckpointLSN)
	}
	inj.Disarm(storage.FPDiskWrite)
}

// TestCheckpointConcurrentWithTick: the tick and Checkpoint apply the one
// rule to the same pools at once, under writers. Run with -race.
func TestCheckpointConcurrentWithTick(t *testing.T) {
	dir := t.TempDir()
	v, _ := openWB(t, dir, time.Millisecond)
	const writers, pages, rounds = 2, 64, 60
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i := 0; i < pages; i++ {
					pid := storage.PageID(2 + w*pages + i)
					tx := v.e.TM.Begin()
					v.swap(tx, pid, val256(pid, round))
					if err := tx.Commit(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	ckpts := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				ckpts <- n
				return
			default:
			}
			if _, err := v.e.Checkpoint(); err != nil {
				t.Error(err)
			}
			n++
		}
	}()
	wg.Wait()
	close(stop)
	if n := <-ckpts; n == 0 {
		t.Fatal("no checkpoint ran beside the writers")
	}
	if err := v.e.Close(); err != nil {
		t.Fatal(err)
	}
	v2, _ := openWB(t, dir, 0)
	defer v2.e.Close()
	if st, err := v2.e.Recover(); err != nil || st.RedoneRecords != 0 {
		t.Fatalf("restart after close: %d records redone, err=%v", st.RedoneRecords, err)
	}
	for i := 0; i < writers*pages; i++ {
		pid := storage.PageID(2 + i)
		if got, want := v2.read(pid), string(val256(pid, rounds-1)); got != want {
			t.Fatalf("page %d = %q, want %q", pid, got, want)
		}
	}
}

// TestCloseReleasesFilesOnFailedForce: a Close whose log force fails
// still closes every file, reports the failure, takes no checkpoint, and
// leaves a directory that recovers to the last stable state.
func TestCloseReleasesFilesOnFailedForce(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(19)
	e, _, err := Open(Options{DataDir: dir, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	registerSet(e.Reg)
	st := e.AddStore(1, byteCodec{})
	aa := e.TM.BeginAtomicAction()
	if err := st.Bootstrap(aa); err != nil {
		t.Fatal(err)
	}
	if err := aa.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := commitOne(t, e, st, 5, "stable"); err != nil {
		t.Fatal(err)
	}
	if openFDsUnder(t, dir) == 0 {
		t.Fatal("an open engine holds no descriptor below its directory")
	}
	// An unforced tail for Close to force, and a dead log device under it.
	tx := e.TM.Begin()
	f, err := st.Pool.Create(6)
	if err != nil {
		t.Fatal(err)
	}
	tx.LogUpdate(f, kindSet, []byte("volatile"))
	st.Pool.Unpin(f)
	inj.Arm(wal.FPSync, fault.Spec{Kind: fault.Permanent, Count: -1})
	before := e.WriteBackStats().CheckpointLSN
	if err := e.Close(); err == nil {
		t.Fatal("Close reported success over a failed log force")
	}
	if n := openFDsUnder(t, dir); n != 0 {
		t.Fatalf("Close left %d descriptors open below %s", n, dir)
	}

	e2, recovered, err := Open(Options{DataDir: dir})
	if err != nil || !recovered {
		t.Fatalf("reopen: recovered=%v err=%v", recovered, err)
	}
	defer e2.Close()
	if got := e2.WriteBackStats().CheckpointLSN; got != before {
		t.Fatalf("a failed Close moved the checkpoint anchor %d -> %d", before, got)
	}
	registerSet(e2.Reg)
	st2 := e2.AddStore(1, byteCodec{})
	if _, err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	f, err = st2.Pool.Fetch(5)
	if err != nil || string(f.Data.([]byte)) != "stable" {
		t.Fatalf("page 5 after the failed close: %v", err)
	}
	st2.Pool.Unpin(f)
}
