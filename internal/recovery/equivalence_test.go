package recovery

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// The equivalence oracle: randomized crash workloads recovered by the
// serial two-scan restart and by the parallel pipeline must agree — page
// images byte-identical after redo (repeating history is deterministic),
// page contents identical after undo (CLR LSNs depend on worker
// interleaving, so only the 8-byte pageLSN header may differ), and all
// ATT/DPT-derived stats equal. Run under -race this also exercises
// concurrent Adopt/RollbackLoser and the redo workers' pool traffic.

// buildWorkload drives a random mix of transactions, atomic actions,
// aborts, steals (FlushAll) and fuzzy checkpoints against e. Atomic
// actions mix counter updates with free-space-map traffic (page
// alloc/free), so every restart path replays KindMetaAlloc/Free records
// and their compensations — the records the space audit oracle checks.
func buildWorkload(rng *rand.Rand, e *env) {
	boot := e.tm.BeginAtomicAction()
	if err := e.store.Bootstrap(boot); err != nil {
		panic(err)
	}
	if err := boot.Commit(); err != nil {
		panic(err)
	}
	var active []*txn.Txn
	var owned []storage.PageID // pages durably allocated by committed AAs
	ops := 300 + rng.Intn(400)
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 12: // begin a user transaction
			if len(active) < 8 {
				active = append(active, e.tm.Begin())
			}
		case r < 18: // atomic action, committed or abandoned mid-flight
			aa := e.tm.BeginAtomicAction()
			var got []storage.PageID
			var gave []int
			if rng.Intn(3) == 0 { // space op instead of counter updates
				if len(owned) > 0 && rng.Intn(2) == 0 {
					k := rng.Intn(len(owned))
					if e.store.Free(aa, nil, owned[k]) == nil {
						gave = append(gave, k)
					}
				} else if pid, err := e.store.Alloc(aa, nil); err == nil {
					got = append(got, pid)
				}
			} else {
				for j := 0; j <= rng.Intn(2); j++ {
					e.add(aa, storage.PageID(2+rng.Intn(40)), int64(1+rng.Intn(99)))
				}
			}
			if rng.Intn(4) > 0 && aa.Commit() == nil {
				owned = append(owned, got...)
				for _, k := range gave {
					owned = append(owned[:k], owned[k+1:]...)
				}
			}
		case r < 70: // update under a random active transaction
			if rng.Intn(10) == 0 {
				// A set, an image record a chain walk may start from, in a
				// transaction of its own on a page only sets touch: sets
				// do not commute, so at most one may be a loser.
				tx := e.tm.Begin()
				e.set(tx, storage.PageID(42+rng.Intn(4)), int64(rng.Intn(1000)))
				_ = tx.Commit()
			} else if len(active) > 0 {
				e.add(active[rng.Intn(len(active))], storage.PageID(2+rng.Intn(40)), int64(1+rng.Intn(99)))
			}
		case r < 82: // commit
			if len(active) > 0 {
				k := rng.Intn(len(active))
				_ = active[k].Commit()
				active = append(active[:k], active[k+1:]...)
			}
		case r < 88: // abort (rollback CLRs land in the log)
			if len(active) > 0 {
				k := rng.Intn(len(active))
				_ = active[k].Abort()
				active = append(active[:k], active[k+1:]...)
			}
		case r < 96: // steal: dirty pages (loser pages included) reach disk
			_, _ = e.pool.FlushAll()
		default: // fuzzy checkpoint
			_, _ = TakeCheckpoint(e.log, e.tm, e.pool)
		}
	}
	if rng.Intn(2) == 0 {
		e.log.ForceAll() // expose in-flight updates to the crash
	}
}

// pickCut chooses a random truncation point among the physically possible
// ones: the WAL protocol forces the log before a page is flushed, so a
// real crash can never pair a stable page with a log that lacks the
// records the page already reflects. Cuts below a stable pageLSN would
// fabricate such a state, and in it recovery outcomes legitimately depend
// on fresh CLR LSNs — not a divergence the oracle should flag.
func pickCut(rng *rand.Rand, e *env) wal.LSN {
	bounds := e.crash(nil).log.FullImage().Boundaries()
	maxStable := wal.NilLSN
	for _, pid := range e.pool.Disk().PageIDs() {
		if lsn, ok := e.pool.StablePageLSN(pid); ok && lsn > maxStable {
			maxStable = lsn
		}
	}
	lo := 0
	for lo < len(bounds)-1 && bounds[lo] <= maxStable {
		lo++ // first boundary past the newest stable page's last record
	}
	return bounds[lo+rng.Intn(len(bounds)-lo)]
}

type restartResult struct {
	stats    Stats
	redoDisk map[storage.PageID][]byte // flushed right after analysis and redo
	undoDisk map[storage.PageID][]byte // flushed after UndoLosers
	space    SpaceImage                // audited space state of store 1
}

// runRestart recovers e's stable state truncated at cut with o, flushing
// and snapshotting the disk after each phase.
func runRestart(t *testing.T, e *env, cut wal.LSN, o Opts) restartResult {
	t.Helper()
	e2 := e.crash(&cut)
	p, err := e2.analyzeAndRedo(o)
	if err != nil {
		t.Fatalf("analyze+redo (%+v): %v", o, err)
	}
	if _, err := e2.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	redoDisk := imageMap(e2.pool.Disk())
	redone := e2.log.FullImage()
	if err := p.UndoLosers(e2.tm); err != nil {
		t.Fatalf("undo (%+v): %v", o, err)
	}
	if _, err := e2.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Space audit: replay alloc/free traffic (including the undo pass's
	// CLRs) against the shadow alternation model, then cross-check the
	// shadow's final state with the free-space map recovery rebuilt.
	shadow, err := AuditSpace(e2.log.FullImage())
	if err != nil {
		t.Fatalf("space audit (%+v): %v", o, err)
	}
	if err := CheckSpace(shadow, e2.pool); err != nil {
		t.Fatalf("space check (%+v): %v", o, err)
	}
	// The audit taken in two halves around undo — all a caller can do
	// once the replayed log is released — reaches the same state.
	half, err := AuditSpace(redone)
	if err == nil {
		half, err = AuditSpaceTail(half, e2.log.FullImage(), redone.EndLSN())
	}
	if err != nil || !reflect.DeepEqual(half, shadow) {
		t.Fatalf("space audit split at undo (%+v): %v\n%+v\nwhole: %+v", o, err, half, shadow)
	}
	return restartResult{stats: p.Stats, redoDisk: redoDisk, undoDisk: imageMap(e2.pool.Disk()), space: shadow[1]}
}

func imageMap(d *storage.FileDisk) map[storage.PageID][]byte {
	pids := d.PageIDs()
	m := make(map[storage.PageID][]byte, len(pids))
	for _, pid := range pids {
		img, _, _ := d.Read(pid)
		m[pid] = img
	}
	return m
}

// compareDisks requires the same page set with equal images; stripLSN
// drops the 8-byte pageLSN header from the comparison (undo phase).
func compareDisks(t *testing.T, label string, w, g map[storage.PageID][]byte, stripLSN bool) {
	t.Helper()
	if len(w) != len(g) {
		t.Fatalf("%s: %d stable pages vs %d", label, len(w), len(g))
	}
	for pid, wi := range w {
		gi, ok := g[pid]
		if !ok {
			t.Fatalf("%s: page %d missing", label, pid)
		}
		if stripLSN {
			if len(wi) < 8 || len(gi) < 8 {
				t.Fatalf("%s: page %d short image", label, pid)
			}
			wi, gi = wi[8:], gi[8:]
		}
		if !bytes.Equal(wi, gi) {
			t.Fatalf("%s: page %d images differ", label, pid)
		}
	}
}

func compareStats(t *testing.T, label string, want, got Stats) {
	t.Helper()
	type row struct {
		name string
		w, g int
	}
	for _, r := range []row{
		{"AnalyzedRecords", want.AnalyzedRecords, got.AnalyzedRecords},
		{"RedoneRecords", want.RedoneRecords, got.RedoneRecords},
		{"RedoSkipped", want.RedoSkipped, got.RedoSkipped},
		{"RedoStartLSN", int(want.RedoStartLSN), int(got.RedoStartLSN)},
		{"LoserTxns", want.LoserTxns, got.LoserTxns},
		{"LoserActions", want.LoserActions, got.LoserActions},
	} {
		if r.w != r.g {
			t.Fatalf("%s: %s = %d, serial oracle says %d", label, r.name, r.g, r.w)
		}
	}
}

func TestSerialParallelEquivalence(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	sawLosers, sawSkip, sawImage, sawMidChain := false, false, false, false
	sawAlloc, sawFree := false, false
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)*7919 + 3))
			e := newEnv(nil)
			buildWorkload(rng, e)
			cut := pickCut(rng, e)

			serial := runRestart(t, e, cut, Opts{Serial: true})
			sawLosers = sawLosers || serial.stats.LoserTxns+serial.stats.LoserActions > 1
			sawAlloc = sawAlloc || serial.space.Next > uint64(storage.MetaPage)+1
			sawFree = sawFree || len(serial.space.Free) > 0
			for _, o := range []Opts{
				{Workers: 1}, // one chain walk at a time
				{Workers: 4}, // page-partitioned workers + concurrent undo
			} {
				par := runRestart(t, e, cut, o)
				label := fmt.Sprintf("workers=%d", o.Workers)
				compareStats(t, label, serial.stats, par.stats)
				compareDisks(t, label+" after redo", serial.redoDisk, par.redoDisk, false)
				compareDisks(t, label+" after undo", serial.undoDisk, par.undoDisk, true)
				sawSkip = sawSkip || par.stats.FetchSkippedPages > 0
				sawImage = sawImage || par.stats.ImageStarts > 0
				sawMidChain = sawMidChain || par.stats.MidChainPages > 0
			}
		})
	}
	if !sawImage {
		t.Error("no seed's redo walked a chain that stopped at an image record")
	}
	if !sawMidChain {
		t.Error("no seed's redo walked a chain to a stable image past the page's recLSN")
	}
	if !sawLosers {
		t.Error("no seed produced losers; workload too tame to trust")
	}
	if !sawSkip {
		t.Error("no seed exercised the redo fetch-skip")
	}
	if !sawAlloc || !sawFree {
		t.Errorf("space traffic too tame to trust the audit: alloc=%v free=%v", sawAlloc, sawFree)
	}
}
