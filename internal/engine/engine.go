// Package engine wires the substrates — write-ahead log, lock manager,
// buffer pools, transaction manager, restart recovery — into one database
// environment over one storage path: the log in WAL segment files and
// every store in a page file, on a file system that is the operating
// system's (Options.DataDir) or a fresh in-memory one (fsys.Mem). An
// in-memory engine simulates crashes: Crash returns what its file system
// made durable, and Restarted opens an environment over that state with
// the same code Open runs over a real directory after a real crash.
package engine

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/fsys"
	"repro/internal/lock"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Options configure an engine.
type Options struct {
	// PageOriented selects page-oriented record UNDO (§4.2): undo happens
	// on the page of the original update, so data-node splits that move
	// uncommitted records must run inside the updating transaction under
	// a move lock. When false, record undo is logical (re-traversal) and
	// every split is an independent atomic action.
	PageOriented bool
	// ForceOnAACommit disables relative durability for atomic actions
	// (ablation for experiment T12).
	ForceOnAACommit bool
	// PoolCapacity bounds each buffer pool in frames; 0 = unbounded.
	PoolCapacity int
	// Injector, when non-nil, threads a fault injector through the WAL,
	// the transaction manager, and every store's pool and page file: log
	// syncs probe wal.sync, eviction write-backs probe pool.evict, page
	// I/O probes disk.write / disk.read, and commits probe the txn crash
	// points. A nil injector costs nothing on any of those paths.
	Injector *fault.Injector
	// RecoveryWorkers is the restart parallelism: the number of
	// page-partitioned redo workers and concurrent loser-undo workers
	// recovery runs with. 0 means GOMAXPROCS.
	RecoveryWorkers int
	// DataDir is the directory the WAL segment files and every store's
	// checksummed copy-on-write page file live in. Empty means a fresh
	// in-memory file system (fsys.Mem) holding the same files. Use Open
	// (not New) for a directory, so a previous incarnation's state is
	// replayed.
	DataDir string
	// SegmentSize is the WAL segment data capacity in bytes (0 =
	// wal.DefaultSegmentSize).
	SegmentSize int
	// SlotSize is the slot size of file-backed stores' page files (0 =
	// storage.DefaultSlotSize): the largest page image plus a 40-byte
	// frame header. A page takes the blocks (a sixteenth of the slot, from
	// 32 B to 4 KiB) its frame fills. Only a new page file takes it; an
	// existing one keeps the size it was created with.
	SlotSize int
	// Sync selects the fsync policy of the WAL.
	Sync wal.SyncPolicy
	// WriteBackInterval enables the background writer and sets how often
	// it looks: a tick writes only the dirty pages whose recLSN lags the
	// log tail by more than the redo window (wal.RedoWindowSegments x
	// SegmentSize), and releases the in-memory log below the oldest live
	// transaction. Zero disables it; Checkpoint then applies the same rule
	// by itself, all at once.
	WriteBackInterval time.Duration
	// PrefetchWindow enables scan read-ahead on every store's pool: scans
	// hand the pool leaf-successor hints with their end key, and an async
	// worker warms up to this many leaves along the chain before the
	// scan's own fetch, none past the leaf that covers the scan's end.
	// Zero disables prefetching.
	PrefetchWindow int
}

// ErrDegraded is the typed error returned for writes once the log
// device has permanently failed and the engine serves reads only. It is
// the WAL's sticky failure sentinel: errors.Is(err, ErrDegraded)
// matches every rejected commit after degradation.
var ErrDegraded = wal.ErrLogFailed

// Engine is one database environment.
type Engine struct {
	Opts  Options
	Log   *wal.Log
	Locks *lock.Manager
	Reg   *storage.Registry
	TM    *txn.Manager

	mu      sync.Mutex
	stores  map[uint32]*storage.Store
	closers []func()
	// pools is the published list of every store's pool, replaced (never
	// mutated) by AddStore so readers iterate it without a lock.
	pools atomic.Pointer[[]*storage.Pool]

	fs  fsys.FS
	dir string
	bg  *bgWriter
	wb  writeBack

	// bootImage is the log image this incarnation was built from, kept
	// until restart analysis has read it. recovering holds the in-memory
	// log whole from Open until the undo pass ends: analysis reads it
	// from the start, and losers are only adopted (and so only pin
	// TM.LogFloor) once undo begins.
	bootImage  *wal.Reader
	recovering atomic.Bool
}

func newEngine(opts Options, log *wal.Log) *Engine {
	e := &Engine{
		Opts:   opts,
		Log:    log,
		Locks:  lock.NewManager(),
		Reg:    storage.NewRegistry(),
		stores: make(map[uint32]*storage.Store),
	}
	if opts.Injector != nil {
		log.SetInjector(opts.Injector)
	}
	e.TM = txn.NewManager(log, e.Locks, e.Reg, txn.Options{ForceOnAACommit: opts.ForceOnAACommit})
	if opts.Injector != nil {
		e.TM.SetInjector(opts.Injector)
	}
	storage.RegisterMetaHandlers(e.Reg)
	return e
}

// Degraded reports whether the engine is in read-only degraded mode:
// the log device has failed, so no new update can become durable.
// Committed, already-stable data remains readable.
func (e *Engine) Degraded() bool { return e.Log.Damaged() }

// New creates a fresh environment over a fresh in-memory file system;
// opts.DataDir is ignored.
func New(opts Options) *Engine {
	e, _, err := openFS(fsys.NewMem(), "", opts)
	if err != nil {
		panic(fmt.Sprintf("engine: open an empty in-memory file system: %v", err))
	}
	return e
}

// Open creates an environment rooted at opts.DataDir, or over a fresh
// in-memory file system when it is empty, replaying any previous
// incarnation's WAL segments. recovered reports whether a prior log was
// found; if so the caller must run the usual restart sequence (register
// kinds, AddStore, AnalyzeAndRedo, re-open trees, FinishRecovery) before
// using the engine.
func Open(opts Options) (e *Engine, recovered bool, err error) {
	if opts.DataDir == "" {
		return openFS(fsys.NewMem(), "", opts)
	}
	return openFS(fsys.OS, opts.DataDir, opts)
}

// openFS opens the environment whose files live in dir of fs.
func openFS(fs fsys.FS, dir string, opts Options) (e *Engine, recovered bool, err error) {
	l, rd, err := wal.OpenLog(fs, filepath.Join(dir, "wal"), opts.SegmentSize, opts.Sync)
	if err != nil {
		return nil, false, err
	}
	recovered = rd != nil
	e = newEngine(opts, l)
	e.fs, e.dir = fs, dir
	e.bootImage = rd
	e.recovering.Store(recovered)
	e.wb.window = wal.LSN(wal.RedoWindowSegments * l.File().SegmentSize())
	if opts.WriteBackInterval > 0 {
		e.bg = startBgWriter(e, opts.WriteBackInterval)
	}
	return e, recovered, nil
}

// AddStore creates a store over its page file (which restart reads its
// stable images from). Each access-method instance gets its own store ID
// and codec.
func (e *Engine) AddStore(storeID uint32, codec storage.Codec) *storage.Store {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.stores[storeID]; dup {
		panic(fmt.Sprintf("engine: duplicate store %d", storeID))
	}
	path := filepath.Join(e.dir, fmt.Sprintf("store-%d.pages", storeID))
	fd, err := storage.OpenFileDisk(e.fs, path, e.Opts.SlotSize)
	if err != nil {
		panic(fmt.Sprintf("engine: open page file %s: %v", path, err))
	}
	fd.SetInjector(e.Opts.Injector)
	pool := storage.NewPool(storeID, fd, e.Log, codec, e.Opts.PoolCapacity)
	if e.Opts.Injector != nil {
		pool.SetInjector(e.Opts.Injector)
	}
	pool.EnablePrefetch(e.Opts.PrefetchWindow)
	st := storage.NewStore(pool, e.Reg)
	e.stores[storeID] = st
	pools := make([]*storage.Pool, 0, len(e.stores))
	for _, s := range e.stores {
		pools = append(pools, s.Pool)
	}
	e.pools.Store(&pools)
	return st
}

// Store returns a previously added store.
func (e *Engine) Store(storeID uint32) *storage.Store {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stores[storeID]
}

// Pools returns every store's pool. The slice is shared and must not be
// modified.
func (e *Engine) Pools() []*storage.Pool {
	if p := e.pools.Load(); p != nil {
		return *p
	}
	return nil
}

// BeginSnapshot captures a consistent read snapshot: a point in version
// time plus the set of transactions in flight at capture. Reads through
// it (tsb.SnapshotGet / SnapshotScan) take no locks and never block
// writers; the caller must Release it so version GC can advance.
func (e *Engine) BeginSnapshot() *txn.Snapshot { return e.TM.BeginSnapshot(nil) }

// Checkpoint takes a fuzzy checkpoint over all stores. It first writes
// back every page the redo-window rule makes due (see writeBackDue), so
// that the horizon it establishes lies within one window of the log tail
// whether or not a background writer runs; the checkpoint then syncs
// every page file before it becomes the anchor, and WAL segments below
// its horizon are recycled — in that order: redo below the horizon is
// only impossible once the page images that replace it are durable.
//
// It is refused between Open and the end of FinishRecovery: the losers
// are not in the transaction table until undo adopts them, so a
// checkpoint taken there would record none and recycle the log they are
// to be rolled back from.
func (e *Engine) Checkpoint() (wal.LSN, error) {
	if e.recovering.Load() {
		return wal.NilLSN, fmt.Errorf("engine: checkpoint before restart has finished")
	}
	e.writeBackDue(math.MaxInt, nil)
	lsn, horizon, err := recovery.TakeCheckpointHorizon(e.Log, e.TM, e.Pools()...)
	if err != nil {
		return lsn, err
	}
	if horizon != wal.NilLSN {
		if err := e.Log.Recycle(horizon); err != nil {
			return lsn, err
		}
	}
	e.trimLog()
	return lsn, nil
}

// trimLog releases the in-memory log below what normal processing can
// still read — the oldest unfinished transaction's first record. This
// bound is independent of the file recycle horizon: the files must keep
// whatever redo after a crash could need, back to the oldest dirty page's
// recLSN, while memory only serves rollback, because redo never runs from
// it.
func (e *Engine) trimLog() {
	if e.recovering.Load() {
		return
	}
	e.Log.ReleaseBelow(e.TM.LogFloor())
}

// FileStats returns the files' physical-work counters: the WAL segment
// files' and each store's page-file stats.
func (e *Engine) FileStats() (wal.FileWALStats, map[uint32]storage.FileDiskStats) {
	ds := make(map[uint32]storage.FileDiskStats)
	for _, p := range e.Pools() {
		ds[p.StoreID] = p.Disk().Stats()
	}
	return e.Log.File().Stats(), ds
}

// FlushAll flushes every pool (forcing the log first per page, WAL
// protocol) and returns the number of pages written. Pages whose flush
// fails stay dirty; the sweep continues and the first error is
// returned alongside the count.
func (e *Engine) FlushAll() (int, error) {
	n := 0
	var first error
	for _, p := range e.Pools() {
		fn, err := p.FlushAll()
		n += fn
		if err != nil && first == nil {
			first = err
		}
	}
	return n, first
}

// RegisterCloser registers fn to run during Close, before the final log
// force and pool flush. Access methods register their shutdown (which
// must drain lazy-completion queues) here; closers run in registration
// order, so a tree layered on another store shuts down after it.
func (e *Engine) RegisterCloser(fn func()) {
	e.mu.Lock()
	e.closers = append(e.closers, fn)
	e.mu.Unlock()
}

// Close shuts the environment down in dependency order: first every
// registered access-method closer — each drains its lazy-completion
// queue to empty, running every scheduled posting and consolidation to
// commit, and only then stops its workers — then one log force, then a
// full pool flush. The ordering is the point: queues are volatile, so a
// completion that was scheduled but not yet run would simply vanish at
// shutdown, and a close-then-reopen would come up with intermediate
// states (unposted siblings, half-merged parents) that nothing is left
// to repair until a traversal stumbles over them. Draining first means
// the stable state a reopen recovers from contains no structure change
// that was promised but dropped.
//
// Close then takes a shutdown checkpoint: with every page clean its
// horizon is the log's end, so the whole log is recycled and a reopen
// analyses one record and redoes none. After it every page file is
// compacted (storage.FileDisk.Compact): its images packed down into the
// spare extents careful replacement left, and the file truncated after the
// last. Both are skipped — the log stays, as after a crash — when the force
// or the flush failed, the engine is degraded, or restart has not finished
// (a later Open then retries them over the same log). The files are
// released either way.
func (e *Engine) Close() error {
	if e.bg != nil {
		e.bg.stop()
	}
	e.mu.Lock()
	closers := append([]func(){}, e.closers...)
	e.closers = nil
	e.mu.Unlock()
	for _, fn := range closers {
		fn()
	}
	// Prefetchers stop before the final flush: an in-flight read-ahead
	// must not race the pools' shutdown writes.
	for _, p := range e.Pools() {
		p.StopPrefetch()
	}
	err := e.Log.ForceAll()
	if err == nil {
		_, err = e.FlushAll()
	}
	skipCkpt := err != nil || e.Degraded() || e.recovering.Load()
	if !skipCkpt {
		_, err = e.Checkpoint()
	}
	for _, p := range e.Pools() {
		switch {
		case skipCkpt:
			if serr := p.Disk().Sync(); err == nil {
				err = serr
			}
		case err == nil:
			err = p.Disk().Compact()
		}
		if cerr := p.Disk().Close(); err == nil {
			err = cerr
		}
	}
	if cerr := e.Log.File().Close(); err == nil {
		err = cerr
	}
	return err
}

// CrashImage is the stable state surviving a simulated crash: the
// in-memory file system holding the WAL segment files and page files as
// the crash left them.
type CrashImage struct {
	FS *fsys.Mem
}

// Crash returns what the engine's in-memory file system has made durable:
// every synced byte and every directory entry a directory sync published,
// with the log cut at its stable point, or at truncateAt when that is
// earlier (a record boundary; the crash matrix uses it to test every
// prefix of a run). The cut is there because the log's sync stage fsyncs
// whole segment files: a sync can make durable the bytes a pipelined
// write stage added while it ran, for commits no sync acknowledged, and
// the oracles that recover the image have no "maybe" outcome. A torn
// sync's partial record at the cut stays, for the restart's replay to
// truncate. The engine itself is left untouched — callers simply stop
// using it, as a crashed process would. A file-backed engine has no
// Crash: kill its process. Nor has one under wal.SyncNever, whose
// acknowledged commits a process kill keeps and this crash would not.
func (e *Engine) Crash(truncateAt *wal.LSN) *CrashImage {
	mem, ok := e.fs.(*fsys.Mem)
	if !ok {
		panic("engine: Crash of a file-backed engine")
	}
	if e.Opts.Sync == wal.SyncNever {
		panic("engine: Crash of an engine whose log never syncs")
	}
	cut := e.Log.StableLSN()
	if truncateAt != nil && *truncateAt < cut {
		cut = *truncateAt
	}
	fs := mem.Crash(fsys.DropUnsynced)
	if err := wal.CutDir(fs, filepath.Join(e.dir, "wal"), cut); err != nil {
		panic(fmt.Sprintf("engine: cut the crash image's log at %d: %v", cut, err))
	}
	return &CrashImage{FS: fs}
}

// Restarted opens an environment over a copy of img's files, exactly as
// Open does over a directory a crashed process left. The caller must then
// run the restart sequence: register its access-method record kinds on
// Reg, AddStore each store, run AnalyzeAndRedo, re-open its trees, and
// finally run the returned Pending's UndoLosers (FinishRecovery) — the
// two-phase split exists because logical record undo needs the trees
// open, and opening a tree needs the redone meta pages. Recover bundles
// the phases for callers without that ordering constraint.
func Restarted(img *CrashImage, opts Options) *Engine {
	e, _, err := openFS(img.FS.Crash(fsys.DropUnsynced), "", opts)
	if err != nil {
		panic(fmt.Sprintf("engine: restart from a crash image: %v", err))
	}
	return e
}

// takeBootImage returns the image restart analysis reads: the one the log
// was built from when nothing has been appended since (the restart
// protocol appends nothing before analysis), else a fresh copy of the
// buffered log. The engine's reference is dropped either way.
func (e *Engine) takeBootImage() *wal.Reader {
	img := e.bootImage
	e.bootImage = nil
	if img == nil || img.EndLSN() != e.Log.EndLSN() {
		img = e.Log.FullImage()
	}
	return img
}

// AnalyzeAndRedo runs restart analysis and redo. The transaction manager
// is seeded with the recovered transaction-ID and version-clock high
// waters here — before the caller re-opens its trees, which read the
// clock high water to reseed their version clocks.
func (e *Engine) AnalyzeAndRedo() (*recovery.Pending, error) {
	p, err := recovery.AnalyzeAndRedoImage(e.takeBootImage(), e.Reg, recovery.Opts{Workers: e.Opts.RecoveryWorkers})
	if p != nil {
		e.TM.SeedRecovered(p.Stats.MaxTxnID, p.Stats.ClockHW)
	}
	return p, err
}

// FinishRecovery runs the undo pass, then releases the replayed log from
// memory: nothing reads it again (see trimLog).
func (e *Engine) FinishRecovery(p *recovery.Pending) error {
	err := p.UndoLosers(e.TM)
	if err == nil {
		e.recovering.Store(false)
		e.trimLog()
	}
	return err
}

// Recover runs the complete restart (analysis, redo, undo) in one call.
func (e *Engine) Recover() (recovery.Stats, error) {
	p, err := e.AnalyzeAndRedo()
	if err != nil {
		return p.Stats, err
	}
	err = e.FinishRecovery(p)
	return p.Stats, err
}
