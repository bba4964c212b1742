// Package recovery implements restart after a crash: the classic
// analysis / redo / undo passes (repeating history, then rolling back
// losers with CLRs), which is one of the recovery methods the paper's
// atomic actions are designed to compose with (§4.3).
//
// The decisive property for the Π-tree is what restart does NOT do: it
// takes no special measures for interrupted structure changes (innovation
// 4). A crash between the node-split atomic action and the index-posting
// atomic action simply leaves the committed split in place — a well-formed
// intermediate state — and rolls back only actions that had not committed.
// The tree completes the change lazily during normal processing.
//
// Restart itself is parallel (DESIGN.md §7). The analysis scan also finds,
// per dirty page, its newest record and how many of its records redo
// applies, so the log is scanned once, not twice. Redo is then single-page
// redo by page-partitioned workers: every record names the page's previous
// one, so a worker walks each page's chain back from its newest record to
// the state its stable image holds and applies it forward — the walk an
// elided page's fetch runs (storage.Pool.RedoChain). Redo is
// page-oriented, so LSN order matters only within a page and workers never
// coordinate. Losers are likewise independent (their surviving updates
// were protected by locks at the crash, and atomic-action compensations
// commute, §4.3), so undo drains them from a work queue, preserving
// backward order only within each transaction. The classic two-scan
// serial restart is kept behind Opts.Serial as the oracle the pipeline is
// equivalence-tested against.
package recovery

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// AttEntry is one transaction-table row in a checkpoint.
type AttEntry struct {
	ID       wal.TxnID
	LastLSN  wal.LSN
	FirstLSN wal.LSN // first record; zero when unknown (an adopted restart loser)
	System   bool
}

// Checkpoint is the fuzzy-checkpoint payload: the live transaction table
// and, per store, the dirty page table (page -> recLSN). StartLSN is the
// log end observed before the tables were snapshotted: records appended
// while the snapshot was being taken land between StartLSN and the
// checkpoint record itself, so analysis must scan from StartLSN or it
// would miss pages they dirtied. (Zero in images from before the field
// existed; analysis then falls back to the checkpoint record's LSN.)
type Checkpoint struct {
	StartLSN wal.LSN
	ATT      []AttEntry
	DPT      map[uint32]map[uint64]wal.LSN
	// MaxTxnID and ClockHW are the transaction-ID and version-clock high
	// waters at checkpoint time. Analysis raises them with what the scan
	// finds past StartLSN; together they let restart reseed ID allocation
	// and the trees' version clocks without replaying the whole log.
	// (Zero in images from before the fields existed — gob tolerates
	// missing fields — in which case the scan alone decides.)
	MaxTxnID wal.TxnID
	ClockHW  uint64
	// Space is the per-store free-space snapshot (high-water mark plus
	// free list) at checkpoint time. Like the DPT it is fuzzy: alloc/free
	// records appended between StartLSN and the checkpoint record may
	// already be reflected in it, so the space audit replays that window
	// idempotently and asserts ordering only past the checkpoint. (Nil in
	// images from before the field existed; the audit then replays from
	// the log's start.)
	Space map[uint32]SpaceImage
}

// SpaceImage is one store's space state inside a checkpoint.
type SpaceImage struct {
	Next uint64
	Free []uint64
}

func encodeCheckpoint(c *Checkpoint) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ErrCorruptCheckpoint reports a checkpoint record whose payload does not
// decode.
var ErrCorruptCheckpoint = errors.New("recovery: corrupt checkpoint record")

func decodeCheckpoint(b []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&c); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}
	return &c, nil
}

// TakeCheckpoint writes a fuzzy checkpoint covering the given pools and
// the transaction manager's live table, forces it, syncs every pool's page
// file, and records it as the log's checkpoint anchor. It returns the
// checkpoint's LSN.
func TakeCheckpoint(log *wal.Log, tm *txn.Manager, pools ...*storage.Pool) (wal.LSN, error) {
	lsn, _, err := TakeCheckpointHorizon(log, tm, pools...)
	return lsn, err
}

// TakeCheckpointHorizon is TakeCheckpoint also returning the WAL recycle
// horizon this checkpoint establishes: the lowest LSN any future restart
// could need, min(StartLSN, every DPT recLSN, every active transaction's
// FirstLSN). Segments wholly below it are dead — analysis scans from
// StartLSN at the earliest, redo from the oldest recLSN, and undo walks
// no loser chain below its first record. A zero FirstLSN (adopted loser
// of unknown origin) pins the horizon at NilLSN: no recycling. A
// transaction that has logged nothing is not in the table and pins
// nothing.
func TakeCheckpointHorizon(log *wal.Log, tm *txn.Manager, pools ...*storage.Pool) (wal.LSN, wal.LSN, error) {
	c := Checkpoint{StartLSN: log.EndLSN(), DPT: make(map[uint32]map[uint64]wal.LSN)}
	c.MaxTxnID, c.ClockHW = tm.RecoveryBounds()
	horizon := c.StartLSN
	for _, e := range tm.SnapshotATT() {
		c.ATT = append(c.ATT, AttEntry{ID: e.ID, LastLSN: e.LastLSN, FirstLSN: e.FirstLSN, System: e.System})
		if e.FirstLSN == wal.NilLSN {
			horizon = wal.NilLSN
		} else if horizon != wal.NilLSN && e.FirstLSN < horizon {
			horizon = e.FirstLSN
		}
	}
	for _, p := range pools {
		dpt := make(map[uint64]wal.LSN)
		for pid, rec := range p.DirtyPages() {
			dpt[uint64(pid)] = rec
			if horizon != wal.NilLSN && rec != wal.NilLSN && rec < horizon {
				horizon = rec
			}
		}
		c.DPT[p.StoreID] = dpt
		if next, free, ok := p.SpaceSnapshot(); ok {
			img := SpaceImage{Next: uint64(next), Free: make([]uint64, len(free))}
			for i, pid := range free {
				img.Free[i] = uint64(pid)
			}
			if c.Space == nil {
				c.Space = make(map[uint32]SpaceImage)
			}
			c.Space[p.StoreID] = img
		}
	}
	payload, err := encodeCheckpoint(&c)
	if err != nil {
		return wal.NilLSN, wal.NilLSN, err
	}
	lsn := log.Append(&wal.Record{Type: wal.RecCheckpoint, Payload: payload})
	// The anchor is advanced only after the checkpoint record is stable;
	// an unforced anchor would point restart at a record that did not
	// survive.
	if err := log.Force(lsn); err != nil {
		return wal.NilLSN, wal.NilLSN, fmt.Errorf("recovery: checkpoint not stable: %w", err)
	}
	// A page the checkpoint found clean may have been written since the
	// last page-file sync; restart from this anchor redoes nothing below
	// its dirty page table, so those images must be durable first.
	for _, p := range pools {
		if err := p.Disk().Sync(); err != nil {
			return wal.NilLSN, wal.NilLSN, fmt.Errorf("recovery: checkpoint: sync store %d: %w", p.StoreID, err)
		}
	}
	log.NoteCheckpoint(lsn)
	return lsn, horizon, nil
}

// Opts configures a restart.
type Opts struct {
	// Workers is the restart parallelism: the dirty pages are partitioned
	// across this many redo workers by (store,page) hash, and the undo pass
	// rolls losers back from a queue drained by this many workers.
	// 0 means GOMAXPROCS.
	Workers int
	// Serial selects the classic two-scan restart: separate analysis and
	// redo passes over the log, records applied one at a time, losers
	// undone one after another in descending last-LSN order. It is the
	// oracle the parallel pipeline is equivalence-tested against.
	Serial bool
}

func (o Opts) withDefaults() Opts {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Serial {
		o.Workers = 1
	}
	return o
}

// Stats summarizes one restart.
type Stats struct {
	// AnalyzedRecords is the number of records scanned in analysis.
	AnalyzedRecords int
	// RedoneRecords is the number of update/CLR records whose effects
	// were (conditionally) reapplied.
	RedoneRecords int
	// RedoSkipped counts records filtered out by the dirty page table.
	RedoSkipped int
	// LoserTxns / LoserActions are rolled-back user transactions and
	// atomic actions.
	LoserTxns    int
	LoserActions int
	// RedoStartLSN is where the serial redo scan begins (the earliest
	// recLSN in the final dirty page table); the parallel path, which
	// starts each page at its own chain, reports the same value for
	// comparability.
	RedoStartLSN wal.LSN

	// Workers is the parallelism redo and undo ran with.
	Workers int
	// PlanSpilled is always false: restart keeps no redo plan that could
	// outgrow memory. The field stays for readers that report it.
	PlanSpilled bool
	// FetchSkippedPages / FetchSkippedRecords count dirty pages whose
	// stable image already covered every record to redo and were skipped
	// without being fetched through the pool. Their records still count
	// as RedoneRecords — they were conditionally reapplied with the
	// condition false — keeping the counter comparable with the serial
	// path, where the pageLSN guard makes the same records no-ops.
	FetchSkippedPages   int
	FetchSkippedRecords int
	// ImageStarts counts pages whose chain walk stopped at a record that
	// carries a whole page image, and MidChainPages pages whose walk
	// stopped at a stable image written after the page's recLSN. Both are
	// zero on the serial path.
	ImageStarts   int
	MidChainPages int
	// AnalysisTime, RedoTime, UndoTime are per-phase wall times.
	AnalysisTime time.Duration
	RedoTime     time.Duration
	UndoTime     time.Duration

	// MaxTxnID is the largest transaction ID seen anywhere in the stable
	// log (checkpoint high water included); ClockHW is the largest version
	// timestamp any committer stamped into its commit record. Restart
	// seeds the transaction manager with both so new IDs and version
	// timestamps never collide with survivors.
	MaxTxnID wal.TxnID
	ClockHW  uint64
}

// recsPerSec returns n/d in records per second.
func recsPerSec(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// AnalysisRate and RedoRate are records/s for the two forward phases.
func (s Stats) AnalysisRate() float64 { return recsPerSec(s.AnalyzedRecords, s.AnalysisTime) }
func (s Stats) RedoRate() float64     { return recsPerSec(s.RedoneRecords, s.RedoTime) }

// Summary renders the restart's per-phase breakdown on one line for
// operational logs (pitree-verify prints it after every recovery).
func (s Stats) Summary() string {
	redo := fmt.Sprintf("redo %v (%d rec, %.2fM rec/s, %d workers",
		s.RedoTime.Round(time.Microsecond), s.RedoneRecords, s.RedoRate()/1e6, s.Workers)
	if s.FetchSkippedPages > 0 {
		redo += fmt.Sprintf(", %d pages fetch-skipped", s.FetchSkippedPages)
	}
	redo += ")"
	return fmt.Sprintf("analysis %v (%d rec, %.2fM rec/s) | %s | undo %v (%d losers, %d actions)",
		s.AnalysisTime.Round(time.Microsecond), s.AnalyzedRecords, s.AnalysisRate()/1e6,
		redo,
		s.UndoTime.Round(time.Microsecond), s.LoserTxns, s.LoserActions)
}

// attState is one row of analysis's transaction table: a transaction with
// records in the log and neither a commit nor an end record — a loser, if
// the scan ends with it still there.
type attState struct {
	lastLSN wal.LSN
	system  bool
}

// Pending is the state between the redo and undo passes of a restart.
// Splitting the passes lets access methods re-open their trees (which
// needs the redone meta pages) before undo runs (which needs the trees
// bound when record undo is logical).
type Pending struct {
	// Stats accumulates across both phases.
	Stats   Stats
	losers  []pendingTxn
	workers int
}

type pendingTxn struct {
	id      wal.TxnID
	lastLSN wal.LSN
	system  bool
}

// AnalyzeAndRedoImage runs restart's analysis and redo passes over img,
// the stable log image the log was continued from (wal.NewFromImage, so
// that the undo pass can read pre-crash records and append CLRs with
// continuous LSNs): it rebuilds the transaction and dirty page tables from
// the last stable checkpoint and repeats history so every page reflects
// exactly the stable log. reg must have all pools and handlers registered,
// exactly as during normal operation. The returned Pending carries the
// losers for UndoLosers.
func AnalyzeAndRedoImage(img *wal.Reader, reg *storage.Registry, o Opts) (*Pending, error) {
	o = o.withDefaults()
	p := &Pending{workers: o.Workers}
	st := &p.Stats
	st.Workers = o.Workers

	// --- Analysis ----------------------------------------------------
	began := time.Now()
	att := make(map[wal.TxnID]*attState)
	dpt := make(dirtyTable)
	scanFrom, err := loadCheckpoint(img, att, dpt, st)
	if err != nil {
		return p, err
	}
	analyze(img, att, dpt, scanFrom, !o.Serial, st)
	st.AnalysisTime = time.Since(began)

	// --- Redo: repeat history -----------------------------------------
	began = time.Now()
	st.RedoStartLSN = redoStart(img, dpt)
	var rerr error
	if o.Serial {
		rerr = redoScan(img, reg, dpt, st)
	} else {
		rerr = redoChains(img, reg, dpt, o.Workers, st)
	}
	st.RedoTime = time.Since(began)
	if rerr != nil {
		return p, fmt.Errorf("recovery redo: %w", rerr)
	}

	// Collect losers sorted by descending last LSN, matching the single
	// backward scan of ARIES (our per-page compensations commute, but the
	// order keeps the log tidy and the behaviour canonical).
	ids := make([]wal.TxnID, 0, len(att))
	for id := range att {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return att[ids[i]].lastLSN > att[ids[j]].lastLSN })
	for _, id := range ids {
		e := att[id]
		p.losers = append(p.losers, pendingTxn{id: id, lastLSN: e.lastLSN, system: e.system})
	}
	return p, nil
}

// loadCheckpoint decodes the image's checkpoint anchor (if any) into att
// and dpt and returns where the analysis scan must begin.
func loadCheckpoint(img *wal.Reader, att map[wal.TxnID]*attState, dpt dirtyTable, st *Stats) (wal.LSN, error) {
	ckpt := img.CheckpointLSN()
	if ckpt == wal.NilLSN {
		return wal.NilLSN, nil
	}
	rec, err := img.Read(ckpt)
	if err != nil || rec.Type != wal.RecCheckpoint {
		return wal.NilLSN, fmt.Errorf("recovery: bad checkpoint anchor at %d: %v", ckpt, err)
	}
	c, err := decodeCheckpoint(rec.Payload)
	if err != nil {
		return wal.NilLSN, fmt.Errorf("recovery: decode checkpoint: %w", err)
	}
	st.MaxTxnID = c.MaxTxnID
	st.ClockHW = c.ClockHW
	for _, e := range c.ATT {
		att[e.ID] = &attState{lastLSN: e.LastLSN, system: e.System}
	}
	for store, pages := range c.DPT {
		dpt[store] = make(map[uint64]*dirtyPage, len(pages))
		for pid, rec := range pages {
			dpt[store][pid] = &dirtyPage{recLSN: rec}
		}
	}
	scanFrom := ckpt
	if c.StartLSN != wal.NilLSN && c.StartLSN < scanFrom {
		// The checkpoint is fuzzy: its tables were snapshotted some time
		// before the record itself was appended. Re-scan that window so
		// updates racing the snapshot still reach the ATT/DPT. Replaying
		// pre-snapshot records over the snapshot is harmless: it can only
		// add conservative DPT entries (redo is pageLSN-guarded) and the
		// ATT converges to the same rows.
		scanFrom = c.StartLSN
	}
	return scanFrom, nil
}

// analyze runs the analysis scan from scanFrom, mutating att and dpt in
// place: every update/CLR of a page enters the page at its LSN if the table
// has no row for it, and counts in the row when it lies at or past the
// page's recLSN (dirtyPage.note). With parallel it also counts the records
// below their page's recLSN exactly as the serial redo scan would skip
// them, so the two paths report identical stats. The scan reads the image
// zero-copy; analysis retains no payloads.
func analyze(img *wal.Reader, att map[wal.TxnID]*attState, dpt dirtyTable,
	scanFrom wal.LSN, parallel bool, st *Stats) {

	// minCkpt is the earliest recLSN carried in from the checkpoint DPT
	// (max LSN when it is empty). The serial redo scan starts at the
	// earliest recLSN of the *final* DPT, which is below scanFrom exactly
	// when a checkpoint-DPT page was dirtied before the checkpoint began.
	minCkpt := ^wal.LSN(0)
	for _, pages := range dpt {
		for _, e := range pages {
			minCkpt = min(minCkpt, e.recLSN)
		}
	}

	if parallel && minCkpt < scanFrom {
		// Pre-scan over [minCkpt, scanFrom): the serial path's redo scan
		// re-reads this window for checkpoint-DPT pages; the parallel path
		// reads it here to find those pages' newest records and counts,
		// counting the records it leaves as skipped, exactly as the serial
		// scan would. Analysis stays off: the checkpoint tables already
		// summarize this prefix.
		img.ScanShared(minCkpt, func(rec *wal.Record) bool {
			if rec.LSN >= scanFrom {
				return false
			}
			if (rec.Type != wal.RecUpdate && rec.Type != wal.RecCLR) || rec.PageID == uint64(storage.NilPage) {
				return true
			}
			if e := dpt[rec.StoreID][rec.PageID]; e == nil || !e.note(rec.LSN) {
				st.RedoSkipped++
			}
			return true
		})
	}

	// newState recycles attState structs freed by a commit or end record:
	// short transactions (every atomic action) are born and finished inside
	// one scan, and without the freelist each costs a heap allocation on a
	// path that runs once per logged transaction.
	var free []*attState
	newState := func(s attState) *attState {
		if n := len(free); n > 0 {
			e := free[n-1]
			free = free[:n-1]
			*e = s
			return e
		}
		e := new(attState)
		*e = s
		return e
	}

	// anyAdded flips once analysis inserts a new DPT entry; from then on
	// (the scan is in ascending LSN order) the final redo start is at or
	// below the current position, so the serial redo scan would see — and
	// count — every subsequent filtered record.
	anyAdded := false
	img.ScanShared(scanFrom, func(rec *wal.Record) bool {
		st.AnalyzedRecords++
		if rec.TxnID > st.MaxTxnID {
			st.MaxTxnID = rec.TxnID
		}
		switch rec.Type {
		case wal.RecUpdate, wal.RecCLR:
			e := att[rec.TxnID]
			if e == nil {
				e = newState(attState{system: rec.IsSystem()})
				att[rec.TxnID] = e
			}
			e.lastLSN = rec.LSN
			if rec.PageID == uint64(storage.NilPage) {
				break
			}
			m := dpt[rec.StoreID]
			if m == nil {
				m = make(map[uint64]*dirtyPage)
				dpt[rec.StoreID] = m
			}
			d := m[rec.PageID]
			if d == nil {
				d = &dirtyPage{recLSN: rec.LSN}
				m[rec.PageID] = d
				anyAdded = true
			}
			// Count the skip only if the serial redo scan (starting at the
			// final DPT's earliest recLSN) would reach this record and
			// filter it.
			if !d.note(rec.LSN) && parallel && (rec.LSN >= minCkpt || anyAdded) {
				st.RedoSkipped++
			}
		case wal.RecDummyCLR, wal.RecAbort:
			e := att[rec.TxnID]
			if e == nil {
				e = newState(attState{system: rec.IsSystem()})
				att[rec.TxnID] = e
			}
			e.lastLSN = rec.LSN
		case wal.RecCommit:
			// Committers stamp their version timestamp into the commit
			// record, a uvarint; the running max reconstructs the clock
			// high water (a manager with no version clock stamps nothing).
			if cts, n := binary.Uvarint(rec.Payload); n > 0 && cts > st.ClockHW {
				st.ClockHW = cts
			}
			// A committed transaction needs nothing more from restart: its
			// updates are redone like any others and no end record follows.
			// An end record closes a rollback the same way.
			fallthrough
		case wal.RecEnd:
			if e := att[rec.TxnID]; e != nil {
				free = append(free, e)
				delete(att, rec.TxnID)
			}
		case wal.RecCheckpoint:
			// Snapshot already loaded if this was the anchor; a non-anchor
			// checkpoint record adds nothing.
		}
		return true
	})
}

// redoStart returns where the serial redo scan begins: the earliest
// recLSN in the final dirty page table, or the image end when nothing is
// dirty.
func redoStart(img *wal.Reader, dpt dirtyTable) wal.LSN {
	start := img.EndLSN()
	for _, pages := range dpt {
		for _, e := range pages {
			start = min(start, e.recLSN)
		}
	}
	return start
}

// redoScan is the classic second pass: scan forward from the earliest
// recLSN, applying every update/CLR the dirty page table admits, one
// record at a time. The serial oracle runs it.
func redoScan(img *wal.Reader, reg *storage.Registry, dpt dirtyTable, st *Stats) error {
	var redoErr error
	img.Scan(st.RedoStartLSN, func(rec wal.Record) bool {
		if rec.Type != wal.RecUpdate && rec.Type != wal.RecCLR {
			return true
		}
		if rec.PageID == uint64(storage.NilPage) {
			return true
		}
		e := dpt[rec.StoreID][rec.PageID]
		if e == nil || rec.LSN < e.recLSN {
			st.RedoSkipped++
			return true
		}
		if err := reg.ApplyRedo(&rec); err != nil {
			redoErr = err
			return false
		}
		st.RedoneRecords++
		return true
	})
	return redoErr
}

// undoCounters accumulate the undo pass's outcomes; atomics so the
// parallel path folds them in without a lock.
type undoCounters struct {
	txns    atomic.Int64
	actions atomic.Int64
}

// settleOne adopts one loser and rolls it back with CLRs.
func settleOne(tm *txn.Manager, e pendingTxn, c *undoCounters) error {
	t := tm.Adopt(e.id, e.system, e.lastLSN)
	if err := t.RollbackLoser(); err != nil {
		return fmt.Errorf("recovery undo of txn %d: %w", e.id, err)
	}
	if e.system {
		c.actions.Add(1)
	} else {
		c.txns.Add(1)
	}
	return nil
}

// UndoLosers is the undo pass: every transaction analysis was left with —
// user or atomic action, records in the log but no commit record — is
// rolled back with CLRs, which is exactly the all-or-nothing guarantee the
// paper's atomic actions rely on (§4.3).
//
// With restart parallelism above one, losers are settled by a pool of
// workers draining a queue. They are independent: each loser's surviving
// updates were protected by the locks it held at the crash (user
// transactions) or are structure changes whose compensations commute
// (atomic actions, §4.3), logical undo takes tree latches only, and CLRs
// interleave safely through the concurrent WAL. Backward order is
// preserved within each transaction — the only order undo requires.
func (p *Pending) UndoLosers(tm *txn.Manager) error {
	began := time.Now()
	st := &p.Stats
	// Seed ID allocation and the recovered clock high water (idempotent;
	// engine restarts seed earlier, before trees re-open) so adoption and
	// post-restart work never reuse a surviving ID or timestamp.
	tm.SeedRecovered(st.MaxTxnID, st.ClockHW)
	var c undoCounters
	defer func() {
		st.LoserTxns += int(c.txns.Load())
		st.LoserActions += int(c.actions.Load())
		st.UndoTime += time.Since(began)
		p.losers = nil
	}()

	workers := p.workers
	if workers > len(p.losers) {
		workers = len(p.losers)
	}
	if workers <= 1 {
		// Serial oracle path (and the trivial sizes): one backward pass
		// in descending last-LSN order, stopping at the first failure.
		for _, e := range p.losers {
			if err := settleOne(tm, e, &c); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	queue := make(chan pendingTxn)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range queue {
				if err := settleOne(tm, e, &c); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	// Feed in descending last-LSN order so the drain approximates the
	// canonical backward pass even though strict cross-loser order is not
	// required.
	for _, e := range p.losers {
		queue <- e
	}
	close(queue)
	wg.Wait()
	return firstErr
}
