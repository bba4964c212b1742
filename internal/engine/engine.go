// Package engine wires the substrates — write-ahead log, lock manager,
// buffer pools, transaction manager, restart recovery — into one database
// environment, and simulates crashes: Crash snapshots the stable state
// (disk images plus the forced log prefix), and Restarted rebuilds an
// environment from such a snapshot exactly the way a real system comes
// back up.
package engine

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
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
	// the transaction manager, and every store's pool and disk: log syncs
	// probe wal.sync, eviction write-backs probe pool.evict, page I/O
	// probes disk.write / disk.read (stores attach behind a FaultyDisk),
	// and commits probe the txn crash points. A nil injector costs
	// nothing on any of those paths.
	Injector *fault.Injector
	// RecoveryWorkers is the restart parallelism: the number of
	// page-partitioned redo workers and concurrent loser-undo workers
	// recovery runs with. 0 means GOMAXPROCS.
	RecoveryWorkers int
	// DataDir, when non-empty, makes the engine file-backed: the WAL
	// lives in segment files under DataDir and every store's pages in a
	// checksummed copy-on-write page file. Use Open (not New) to construct a
	// file-backed engine so a previous incarnation's state is replayed.
	DataDir string
	// SegmentSize is the WAL segment data capacity in bytes (0 =
	// wal.DefaultSegmentSize).
	SegmentSize int
	// SlotSize is the slot size of file-backed stores' page files (0 =
	// storage.DefaultSlotSize): the largest page image plus a 40-byte
	// frame header. A page occupies one slot, and the file holds at most
	// an eighth more slots than pages, plus 64. Only a new page file
	// takes it; an existing one keeps the size it was created with.
	SlotSize int
	// Sync selects the fsync policy of the file-backed WAL.
	Sync wal.SyncPolicy
	// WriteBackInterval enables the background writer and sets how often
	// it looks: a tick writes only the dirty pages whose recLSN lags the
	// log tail by more than the redo window (wal.RedoWindowSegments x
	// SegmentSize) or predates the last checkpoint, plus — in a bounded
	// pool more than half dirty — the oldest excess, and releases the
	// in-memory log below the oldest live transaction. Zero disables it;
	// Checkpoint then applies the same rule by itself, all at once.
	WriteBackInterval time.Duration
	// PrefetchWindow enables scan read-ahead on every store's pool: scans
	// hand the pool leaf-successor hints and an async worker warms those
	// pages before the scan's own fetch, bounded to this many outstanding
	// requests. Zero disables prefetching.
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
	// mutated) by AttachStore so readers iterate it without a lock.
	pools atomic.Pointer[[]*storage.Pool]

	fileWAL   *wal.FileWAL
	fileDisks map[uint32]*storage.FileDisk
	bg        *bgWriter
	wb        writeBack

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

// New creates a fresh environment with an empty log.
func New(opts Options) *Engine {
	return newEngine(opts, wal.New())
}

// Open creates a file-backed environment rooted at opts.DataDir,
// replaying any previous incarnation's WAL segments. recovered reports
// whether a prior log was found; if so the caller must run the usual
// restart sequence (register kinds, AddStore, AnalyzeAndRedo, re-open
// trees, FinishRecovery) before using the engine — exactly the protocol
// Restarted callers follow, with the crash image coming from real files.
func Open(opts Options) (e *Engine, recovered bool, err error) {
	if opts.DataDir == "" {
		return nil, false, fmt.Errorf("engine: Open requires DataDir")
	}
	fw, rd, err := wal.OpenFileWAL(filepath.Join(opts.DataDir, "wal"), opts.SegmentSize, opts.Sync)
	if err != nil {
		return nil, false, err
	}
	var l *wal.Log
	if rd != nil {
		l = wal.NewFromImage(rd)
		recovered = true
	} else {
		l = wal.New()
	}
	l.SetSink(fw)
	e = newEngine(opts, l)
	e.fileWAL = fw
	e.bootImage = rd
	e.recovering.Store(recovered)
	e.wb.window = wal.LSN(wal.RedoWindowSegments * fw.SegmentSize())
	if opts.WriteBackInterval > 0 {
		e.bg = startBgWriter(e, opts.WriteBackInterval)
	}
	return e, recovered, nil
}

// AddStore creates a store over a fresh disk — or, on a file-backed
// engine, over the store's page file (which restart reads its stable
// images from). Each access-method instance gets its own store ID and
// codec.
func (e *Engine) AddStore(storeID uint32, codec storage.Codec) *storage.Store {
	if e.Opts.DataDir == "" {
		return e.AttachStore(storeID, codec, storage.NewDisk())
	}
	path := filepath.Join(e.Opts.DataDir, fmt.Sprintf("store-%d.pages", storeID))
	fd, err := storage.OpenFileDisk(path, e.Opts.SlotSize)
	if err != nil {
		panic(fmt.Sprintf("engine: open page file %s: %v", path, err))
	}
	e.mu.Lock()
	if e.fileDisks == nil {
		e.fileDisks = make(map[uint32]*storage.FileDisk)
	}
	e.fileDisks[storeID] = fd
	e.mu.Unlock()
	return e.AttachStore(storeID, codec, fd)
}

// AttachStore creates a store over an existing disk image (restart
// path). With an injector configured, the disk is wrapped in a
// FaultyDisk so page I/O probes the disk failpoints.
func (e *Engine) AttachStore(storeID uint32, codec storage.Codec, disk storage.Disk) *storage.Store {
	if e.Opts.Injector != nil {
		disk = storage.NewFaultyDisk(disk, e.Opts.Injector)
	}
	pool := storage.NewPool(storeID, disk, e.Log, codec, e.Opts.PoolCapacity)
	if e.Opts.Injector != nil {
		pool.SetInjector(e.Opts.Injector)
	}
	pool.EnablePrefetch(e.Opts.PrefetchWindow)
	st := storage.NewStore(pool, e.Reg)
	e.mu.Lock()
	if _, dup := e.stores[storeID]; dup {
		e.mu.Unlock()
		panic(fmt.Sprintf("engine: duplicate store %d", storeID))
	}
	e.stores[storeID] = st
	pools := make([]*storage.Pool, 0, len(e.stores))
	for _, s := range e.stores {
		pools = append(pools, s.Pool)
	}
	e.pools.Store(&pools)
	e.mu.Unlock()
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

// Checkpoint takes a fuzzy checkpoint over all stores. On a file-backed
// engine it first writes back every page the redo-window rule makes due
// (see writeBackDue), so that the horizon it establishes lies within one
// window of the log tail whether or not a background writer runs; it
// then syncs every page file and recycles WAL segments below that
// horizon — in that order: redo below the horizon is only impossible
// once the page images that replace it are durable.
//
// It is refused between Open and the end of FinishRecovery: the losers
// are not in the transaction table until undo adopts them, so a
// checkpoint taken there would record none and recycle the log they are
// to be rolled back from.
func (e *Engine) Checkpoint() (wal.LSN, error) {
	if e.recovering.Load() {
		return wal.NilLSN, fmt.Errorf("engine: checkpoint before restart has finished")
	}
	if e.fileWAL != nil {
		e.writeBackDue(math.MaxInt, nil)
	}
	lsn, horizon, err := recovery.TakeCheckpointHorizon(e.Log, e.TM, e.Pools()...)
	if err != nil {
		return lsn, err
	}
	if e.fileWAL != nil && horizon != wal.NilLSN {
		if err := e.syncFileDisks(); err != nil {
			return lsn, err
		}
		if err := e.Log.Recycle(horizon); err != nil {
			return lsn, err
		}
	}
	e.wb.lastCkpt.Store(uint64(lsn))
	e.trimLog()
	return lsn, nil
}

// trimLog releases the in-memory log below what normal processing can
// still read — the oldest unfinished transaction's first record — once a
// file sink holds those bytes (a memory-backed engine's buffer is its
// stable storage and keeps everything). This bound is independent of the
// file recycle horizon: the files must keep whatever redo after a crash
// could need, back to the oldest dirty page's recLSN, while memory only
// serves rollback, because redo never runs from it.
func (e *Engine) trimLog() {
	if e.fileWAL == nil || e.recovering.Load() {
		return
	}
	e.Log.ReleaseBelow(e.TM.LogFloor())
}

// syncFileDisks fsyncs every file-backed store's page file.
func (e *Engine) syncFileDisks() error {
	e.mu.Lock()
	disks := make([]*storage.FileDisk, 0, len(e.fileDisks))
	for _, d := range e.fileDisks {
		disks = append(disks, d)
	}
	e.mu.Unlock()
	for _, d := range disks {
		if err := d.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// FileStats returns the file-backed layer's physical-work counters:
// the WAL sink's and each store's page-file stats. Zero values on a
// memory-backed engine.
func (e *Engine) FileStats() (wal.FileWALStats, map[uint32]storage.FileDiskStats) {
	var ws wal.FileWALStats
	if e.fileWAL != nil {
		ws = e.fileWAL.Stats()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.fileDisks) == 0 {
		return ws, nil
	}
	ds := make(map[uint32]storage.FileDiskStats, len(e.fileDisks))
	for id, d := range e.fileDisks {
		ds[id] = d.Stats()
	}
	return ws, ds
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
// A file-backed engine then takes a shutdown checkpoint: with every page
// clean its horizon is the log's end, so the whole log is recycled and a
// reopen analyses one record and redoes none. It is skipped — the log
// stays, as after a crash — when the force or the flush failed, the
// engine is degraded, or restart has not finished (a later Open then
// retries it over the same log). The files are released either way.
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
	if e.fileWAL != nil {
		if err == nil && !e.Degraded() && !e.recovering.Load() {
			_, err = e.Checkpoint()
		} else if serr := e.syncFileDisks(); err == nil {
			err = serr
		}
		e.mu.Lock()
		disks := e.fileDisks
		e.fileDisks = nil
		e.mu.Unlock()
		for _, d := range disks {
			if cerr := d.Close(); err == nil {
				err = cerr
			}
		}
		if cerr := e.fileWAL.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// CrashImage is the stable state surviving a simulated crash.
type CrashImage struct {
	LogImage *wal.Reader
	Disks    map[uint32]*storage.MemDisk
}

// Crash snapshots the stable state: disk images plus the forced log
// prefix. If truncateAt is non-nil the log is cut there instead (it must
// be a record boundary at or before the stable point); the crash matrix
// uses this to test every prefix of a run. The engine itself is left
// untouched — callers simply stop using it, as a crashed process would.
func (e *Engine) Crash(truncateAt *wal.LSN) *CrashImage {
	img := &CrashImage{
		LogImage: e.Log.CrashImage(truncateAt),
		Disks:    make(map[uint32]*storage.MemDisk),
	}
	e.mu.Lock()
	for id, s := range e.stores {
		img.Disks[id] = s.Pool.Disk().Snapshot()
	}
	e.mu.Unlock()
	return img
}

// Restarted builds a post-crash environment over img's stable state. The
// caller must then: register its access-method record kinds on Reg,
// AttachStore each store with img.Disks[id], run AnalyzeAndRedo, re-open
// its trees, and finally run the returned Pending's UndoLosers — the
// two-phase split exists because logical record undo needs the trees
// open, and opening a tree needs the redone meta pages. Recover bundles
// the phases for callers without that ordering constraint.
func Restarted(img *CrashImage, opts Options) *Engine {
	e := newEngine(opts, wal.NewFromImage(img.LogImage))
	e.bootImage = img.LogImage
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
