package storage

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/latch"
	"repro/internal/wal"
)

// ErrPageNotFound reports a Fetch of a page that is neither buffered nor
// stable.
var ErrPageNotFound = errors.New("storage: page not found")

// errCovered is a restart fetch's miss whose stable image already holds
// the records to redo (FetchForRedo): the image was read and checked, and
// is not decoded or buffered.
var errCovered = errors.New("storage: stable image covers the redo")

// FPPoolEvict is the failpoint probed at the start of each dirty-victim
// write-back (eviction's flush of a detached frame). Arming it with a
// crash trigger stops the world mid-eviction; arming it with a fault
// kind fails the write-back, which reattaches the victim to its shard.
const FPPoolEvict = "pool.evict"

// diskRetries bounds retries of an injected transient disk fault within
// one logical page I/O.
const diskRetries = 3

// dirtyBit is the dirty flag packed into Frame.meta's top bit; the low 63
// bits hold the pageLSN. LSNs are byte offsets into the in-memory log and
// never reach 2^63.
const dirtyBit = uint64(1) << 63

// Frame is a buffered page. The decoded contents (Data) are protected by
// the frame's Latch: mutate only under X, read under S or U. Bookkeeping
// (pageLSN+dirty packed into one atomic word, recLSN in another) is
// lock-free so that PageLSN — read on every node visit during a search —
// and fuzzy-checkpoint snapshots never contend on a mutex.
//
// Protocol: pin (via Fetch/Create) before latching; unlatch before
// unpinning. A pinned frame is never evicted.
type Frame struct {
	ID    PageID
	Latch latch.Latch
	// Data is the decoded page content; nil for a created-but-unformatted
	// page (only recovery and fresh allocations see that state).
	Data any

	meta atomic.Uint64 // dirtyBit | pageLSN
	// recLSN is the LSN that first dirtied the page since it was last
	// clean. It goes stale (not zeroed) when a flush cleans the page and
	// is rewritten on the next clean->dirty transition; a reader that
	// races a flush therefore sees a recLSN at most one incarnation old,
	// which only starts redo earlier — never too late.
	recLSN atomic.Uint64
	// chain counts the records logged against the page since it was last
	// clean: the length of the page's chain back to its stable image, which
	// decides whether an eviction may drop the page instead of writing it
	// (see Pool.elide). Reset when a flush cleans the page.
	chain atomic.Uint32

	pins     atomic.Int64
	ref      atomic.Uint32 // clock reference bit (bounded pools)
	clockIdx int           // position in the owning shard's clock ring; shard mu

	// pool owns the frame and indexes it while dirty; dirtyPos is its
	// 1-based position in pool.dirty's heap (0 = clean), guarded by that
	// table's mu.
	pool     *Pool
	dirtyPos int

	// preloaded marks a frame warmed by the async prefetcher and not yet
	// touched by a foreground fetch; the first fetch that finds it set
	// counts a prefetch hit, eviction before that counts a waste.
	preloaded atomic.Bool

	// loading marks a pinned placeholder whose disk read is still in
	// flight (bounded pools). Concurrent fetchers of the same page pin the
	// placeholder and park on loadCh — created lazily by the first waiter,
	// so the common no-waiter miss pays no allocation — instead of reading
	// the stable image themselves. loadErr is the read's result. All three
	// fields are written only under the owning shard's mu; the loader
	// writes loadErr (and the page contents) before closing loadCh, so
	// waiters observe them through the close.
	loading bool
	loadCh  chan struct{}
	loadErr error

	// nav is the frame's published navigation snapshot: an immutable copy
	// of Data paired with the latch version it was current at. Optimistic
	// traversals read it without any latch and prove it current by
	// re-checking the version (see latch.Latch's package comment); a
	// holder of the latch publishes a fresh copy when the stored one has
	// gone stale. It is advisory — clearing or losing it only costs the
	// next reader a brief S-latched refresh.
	nav atomic.Pointer[navSnap]
}

// navSnap pairs an immutable decoded snapshot of a frame's contents with
// the latch version it was current at. data is never mutated after
// publication.
type navSnap struct {
	version uint64
	data    any
}

// NavSnapshot returns the published navigation snapshot and the latch
// version it was taken at; ok is false when none is published. The
// snapshot is only known to reflect the frame's current contents if
// f.Latch.Validate(version) (or an OptimisticRead returning the same even
// version) succeeds after the caller has finished deriving from it.
func (f *Frame) NavSnapshot() (data any, version uint64, ok bool) {
	s := f.nav.Load()
	if s == nil {
		return nil, 0, false
	}
	return s.data, s.version, true
}

// PublishNav publishes data as the frame's navigation snapshot current at
// version. Call while holding the frame's latch (any mode) with data an
// immutable deep copy of Data and version the latch's Version() under
// that hold.
func (f *Frame) PublishNav(data any, version uint64) {
	f.nav.Store(&navSnap{version: version, data: data})
}

// ClearNav drops the published snapshot. The pool calls it when a frame
// shell is recycled for a different page, where the old page's snapshot
// paired with the surviving version counter could otherwise masquerade as
// current for the new page.
func (f *Frame) ClearNav() {
	f.nav.Store(nil)
}

// Pin takes an additional pin on a frame the caller already holds pinned.
// The precondition matters: bounded-pool pins are normally taken under the
// owning shard's mu so eviction can trust a zero count, but incrementing a
// count that is already non-zero cannot race an evictor (it only considers
// frames with pins == 0). Release with Pool.Unpin as usual.
func (f *Frame) Pin() {
	if f.pins.Add(1) <= 1 {
		panic(fmt.Sprintf("storage: Pin of unpinned page %d", f.ID))
	}
}

// PageLSN returns the frame's current page LSN (its state identifier,
// §5.2: "log sequence numbers are used for state identifiers in many
// commercial systems").
func (f *Frame) PageLSN() wal.LSN {
	return wal.LSN(f.meta.Load() &^ dirtyBit)
}

// StoreID is the store the page belongs to.
func (f *Frame) StoreID() uint32 { return f.pool.StoreID }

// MarkDirty records that the update logged at lsn changed this page, and
// counts the record in the page's chain. Call under the frame's X latch,
// after appending the log record, once per record: the page-logging calls
// (UpdateLogger, CLRLogger) do, so their callers do not.
func (f *Frame) MarkDirty(lsn wal.LSN) {
	f.markDirty(lsn)
	f.chain.Add(1)
}

// MarkDirtyGroup records that the n records of one LogUpdateGroup, first
// through last, changed this page: recLSN covers the first, pageLSN
// advances to the last, and each record counts in the page's chain.
func (f *Frame) MarkDirtyGroup(first, last wal.LSN, n int) {
	f.markDirty(first)
	f.markDirty(last)
	f.chain.Add(uint32(n))
}

func (f *Frame) markDirty(lsn wal.LSN) {
	for {
		old := f.meta.Load()
		if old&dirtyBit == 0 {
			// Clean -> dirty: publish recLSN before the dirty bit so any
			// reader that observes dirty also observes a recLSN.
			f.recLSN.Store(uint64(lsn))
		}
		if f.meta.CompareAndSwap(old, dirtyBit|uint64(lsn)) {
			if old&dirtyBit == 0 {
				f.pool.dirty.enter(&f.dirtyPos, f.ID, lsn)
			}
			return
		}
	}
}

// SetPageLSN overwrites the page LSN; recovery uses it when installing
// redo results.
func (f *Frame) SetPageLSN(lsn wal.LSN) {
	f.MarkDirty(lsn)
}

// Dirty reports whether the frame has unflushed changes.
func (f *Frame) Dirty() bool {
	return f.meta.Load()&dirtyBit != 0
}

// dirtySnapshot returns the frame's recLSN if it is dirty. MarkDirty
// publishes recLSN before the dirty bit, so a dirty observation always
// has a usable recLSN; racing a concurrent flush can only yield the
// previous (lower, conservative) incarnation's value.
func (f *Frame) dirtySnapshot() (wal.LSN, bool) {
	if f.meta.Load()&dirtyBit == 0 {
		return wal.NilLSN, false
	}
	return wal.LSN(f.recLSN.Load()), true
}

// ftChunkBits sizes frameTable chunks: 512 slots (4KB of pointers) each.
const ftChunkBits = 9
const ftChunkSize = 1 << ftChunkBits

// ftChunk is one fixed block of page-table slots. Chunks are allocated
// once and never replaced, so a slot address is stable for the table's
// lifetime regardless of spine growth.
type ftChunk [ftChunkSize]atomic.Pointer[Frame]

// frameTable is the unbounded regime's page table. Page IDs are dense
// small integers (Meta allocates them sequentially from 1, reusing freed
// IDs LIFO), so instead of a hash map the table is a spine of chunk
// pointers indexed directly by page ID: a lookup is two atomic loads and
// an index — no hashing, no interface boxing, no lock. This is the
// hottest read in the system (every node visit of every descent fetches
// its frame), which is why it gets a bespoke structure.
//
// The spine is copy-on-write: growth builds a longer []*ftChunk and
// publishes it atomically; all mutations (install, delete, growth) happen
// under mu. Because chunks are shared between spine generations, a reader
// holding a stale spine sees current slot values for every chunk it can
// reach — staleness can only make it miss a chunk added after it loaded
// the spine, and the miss path re-checks under mu.
type frameTable struct {
	mu    sync.Mutex
	spine atomic.Pointer[[]*ftChunk]
}

// get returns the frame for pid, or nil.
func (t *frameTable) get(pid PageID) *Frame {
	s := t.spine.Load()
	if s == nil {
		return nil
	}
	ci := uint64(pid) >> ftChunkBits
	if ci >= uint64(len(*s)) {
		return nil
	}
	return (*s)[ci][uint64(pid)&(ftChunkSize-1)].Load()
}

// getOrInstall returns the existing frame for pid, or installs f and
// returns it; installed reports whether f won.
func (t *frameTable) getOrInstall(pid PageID, f *Frame) (frame *Frame, installed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	slot := t.slotLocked(pid)
	if cur := slot.Load(); cur != nil {
		return cur, false
	}
	slot.Store(f)
	return f, true
}

// delete clears pid's slot.
func (t *frameTable) delete(pid PageID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spine.Load()
	if s == nil {
		return
	}
	ci := uint64(pid) >> ftChunkBits
	if ci >= uint64(len(*s)) {
		return
	}
	(*s)[ci][uint64(pid)&(ftChunkSize-1)].Store(nil)
}

// slotLocked returns pid's slot, growing the spine as needed. Caller
// holds mu.
func (t *frameTable) slotLocked(pid PageID) *atomic.Pointer[Frame] {
	ci := uint64(pid) >> ftChunkBits
	s := t.spine.Load()
	var old []*ftChunk
	if s != nil {
		old = *s
	}
	if ci >= uint64(len(old)) {
		n := uint64(len(old)) * 2
		if n < 8 {
			n = 8
		}
		for n <= ci {
			n *= 2
		}
		grown := make([]*ftChunk, n)
		copy(grown, old)
		for i := len(old); i < len(grown); i++ {
			grown[i] = new(ftChunk)
		}
		t.spine.Store(&grown)
		old = grown
	}
	return &old[ci][uint64(pid)&(ftChunkSize-1)]
}

// forEach calls fn for every installed frame.
func (t *frameTable) forEach(fn func(f *Frame)) {
	s := t.spine.Load()
	if s == nil {
		return
	}
	for _, c := range *s {
		for i := range c {
			if f := c[i].Load(); f != nil {
				fn(f)
			}
		}
	}
}

// PoolStats are cumulative pool counters.
type PoolStats struct {
	Flushes   int64 // dirty pages written to the stable layer
	Misses    int64 // fetches that had to read the stable layer
	Hits      int64 // fetches served from a buffered frame
	Evictions int64 // frames removed by replacement (bounded pools)

	// Write elision (bounded pools, elide.go).
	Elisions        int64 // dirty victims dropped instead of written
	Replays         int64 // fetches that rebuilt an elided page from its chain
	ReplayedRecords int64 // records those fetches replayed

	// Async read-ahead counters (EnablePrefetch).
	PrefetchIssued int64 // read-aheads that started a disk read
	PrefetchHit    int64 // foreground fetches served by a prefetched frame
	PrefetchWasted int64 // prefetched frames evicted untouched, or reads dropped/failed
}

// HitRatio returns hits/(hits+misses), or 0 with no traffic.
func (s PoolStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Pool is the buffer pool for one store. It enforces the WAL protocol: a
// dirty page is flushed only after the log is forced through its pageLSN.
//
// Two regimes:
//   - unbounded (capacity 0): frames live in a lock-free map and are
//     never evicted — node visits take no pool-wide lock, which is what
//     lets the concurrency experiments scale;
//   - bounded: the page table is sharded (shard count a power of two
//     near GOMAXPROCS) with a per-shard map and clock-sweep
//     (second-chance) eviction, so a fetch touches only its shard and
//     never a pool-wide lock.
type Pool struct {
	StoreID uint32
	disk    *FileDisk
	log     *wal.Log
	codec   Codec
	cap     int             // 0 = unbounded
	inj     *fault.Injector // set once before concurrent use; may be nil
	// reg is the registry the pool was added to: the handlers a replay of
	// an elided page applies its chain with. A pool without one never
	// elides.
	reg *Registry

	// Unbounded regime.
	ftab frameTable // PageID-indexed; see frameTable

	// Bounded regime.
	shards    []poolShard
	shardMask uint64

	// dirty is the dirty page table (dirty.go) in both regimes: every dirty
	// page by recLSN, the bounded regime's elided pages (elide.go) among
	// them. elidedN counts the elided ones.
	dirty   dirtyTable
	elidedN atomic.Int64

	elisions        atomic.Int64
	replays         atomic.Int64
	replayedRecords atomic.Int64

	// scratch holds the image buffers (*[]byte) flush builds pages in.
	scratch sync.Pool
	// chainScratch holds the buffers (*ChainScratch) an elided page's
	// replay reads its chain into.
	chainScratch sync.Pool

	flushCount atomic.Int64
	missCount  atomic.Int64
	hitCount   atomic.Int64 // unbounded regime; bounded hits are per-shard

	// Async read-ahead (prefetch.go). pf is set by EnablePrefetch before
	// concurrent use and cleared by StopPrefetch.
	pf             *prefetcher
	prefetchIssued atomic.Int64
	prefetchHit    atomic.Int64
	prefetchWasted atomic.Int64
}

// poolShard is one slice of a bounded pool's page table. All pins on
// bounded frames are taken while holding the owning shard's mu, which is
// what lets eviction trust a zero pin count: with the pin-before-latch
// protocol, pins == 0 under mu means no one holds (or can acquire) the
// frame's latch, so the evictor has exclusive access without touching it.
type poolShard struct {
	mu     sync.Mutex
	frames map[PageID]*Frame
	clock  []*Frame // unordered ring swept by the clock hand
	hand   int
	cap    int // this shard's share of the pool capacity
	// flushing holds detached dirty victims whose write-back is still in
	// flight, keyed by page ID. A page is in frames or in flushing, never
	// both: installers wait for the write to land before re-reading the
	// stable image, or a fetch could resurrect the pre-flush contents.
	flushing map[PageID]*flushOp
	// elided holds the dirty pages an eviction dropped instead of writing
	// (elide.go), for the fetches and creates that look them up. A page is
	// in frames, in flushing or here, never in two — except while a fetch
	// or a write-back replays it: the entry stays until the replayed frame
	// has taken over its place in the dirty page table.
	elided map[PageID]*elidedPage
	// spare parks elided entries that left elided (forget), for the next
	// elision, as free does frames: no more than maxFreeFrames.
	spare []*elidedPage
	// Counters kept plain (not atomic): they are only touched under mu,
	// which keeps the hit path free of cross-shard cache-line traffic.
	hits      int64
	evictions int64
	pfWasted  int64 // prefetched frames evicted before any foreground fetch
	// free parks recycled Frame shells. Eviction proved pins == 0 under
	// mu, so no goroutine retains a usable reference and the struct can be
	// reissued for a different page without a fresh allocation.
	free []*Frame
}

// flushOp is one in-flight eviction write-back. The evictor owns f
// exclusively (it was detached with pins == 0 under the shard mu, and
// nothing in the map can hand out new pins). done — created lazily,
// under the shard mu, by the first fetcher that needs to wait — is
// closed once the stable image is current and the page may be re-read
// from disk.
type flushOp struct {
	f    *Frame
	done chan struct{}
}

// wait parks the caller until the write-back completes. Caller holds
// sh.mu, which wait releases before blocking and reacquires after.
func (op *flushOp) wait(sh *poolShard) {
	if op.done == nil {
		op.done = make(chan struct{})
	}
	ch := op.done
	sh.mu.Unlock()
	<-ch
	sh.mu.Lock()
}

// maxFreeFrames bounds a shard's recycle list; in steady state eviction
// and installation alternate, so it rarely holds more than one entry.
const maxFreeFrames = 8

// takeFrame returns a frame shell to install: a recycled one when
// available, else a fresh allocation. Caller holds sh.mu and must set ID,
// Data, and meta before publishing it in the map.
func (sh *poolShard) takeFrame() *Frame {
	if n := len(sh.free); n > 0 {
		f := sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		return f
	}
	return &Frame{}
}

// recycle parks an evicted frame for reuse. Caller holds sh.mu and has
// proved pins == 0 under it.
func (sh *poolShard) recycle(f *Frame) {
	if len(sh.free) < maxFreeFrames {
		f.Data = nil // release the page contents to the collector now
		f.ClearNav() // the snapshot must not survive into the next page
		f.preloaded.Store(false)
		f.chain.Store(0)
		sh.free = append(sh.free, f)
	}
}

// shardCount picks a power-of-two shard count near GOMAXPROCS, shrunk so
// every shard keeps a useful share of the capacity.
func shardCount(capacity int) int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 32 {
		n <<= 1
	}
	for n > 1 && capacity/n < 4 {
		n >>= 1
	}
	return n
}

// NewPool returns a pool over disk logging to log. capacity is the maximum
// number of buffered frames (0 for unbounded). codec handles all non-meta
// pages of the store.
func NewPool(storeID uint32, disk *FileDisk, log *wal.Log, codec Codec, capacity int) *Pool {
	p := &Pool{
		StoreID: storeID,
		disk:    disk,
		log:     log,
		codec:   codec,
		cap:     capacity,
	}
	if capacity > 0 {
		n := shardCount(capacity)
		p.shards = make([]poolShard, n)
		p.shardMask = uint64(n - 1)
		for i := range p.shards {
			sh := &p.shards[i]
			sh.frames = make(map[PageID]*Frame)
			sh.flushing = make(map[PageID]*flushOp)
			sh.elided = make(map[PageID]*elidedPage)
			sh.cap = capacity / n
			if i < capacity%n {
				sh.cap++
			}
		}
	}
	return p
}

// shard returns the shard owning pid.
func (p *Pool) shard(pid PageID) *poolShard {
	// Fibonacci hash spreads sequential page IDs across shards.
	return &p.shards[(uint64(pid)*0x9E3779B97F4A7C15>>33)&p.shardMask]
}

// Disk returns the pool's stable layer.
func (p *Pool) Disk() *FileDisk { return p.disk }

// Room returns the largest codec content a page of this pool holds: the
// page file's payload (the slot size less the frame header) less the
// image's (pageLSN, tag) prefix. A node whose encoded size passes it is an
// image Write refuses.
func (p *Pool) Room() int { return p.disk.Payload() - imageHdrLen }

// SetInjector attaches a fault injector whose pool.evict failpoint
// governs dirty-victim write-backs. Must be called before the pool is
// used concurrently.
func (p *Pool) SetInjector(inj *fault.Injector) { p.inj = inj }

// Probe checks the named failpoint against the pool's injector (if any).
// Trees use it for failpoints that live above the storage layer proper
// (consolidation commits, space management) without carrying their own
// injector reference.
func (p *Pool) Probe(name string) error { return p.inj.Check(name) }

// Log returns the pool's write-ahead log.
func (p *Pool) Log() *wal.Log { return p.log }

// Fetch returns the frame for pid, pinned. The caller must Unpin it.
func (p *Pool) Fetch(pid PageID) (*Frame, error) {
	return p.fetch(pid, false, wal.NilLSN)
}

// FetchForRedo is FetchOrCreate for restart redo, which decides on the
// image it reads whether the page needs its records: a page not buffered
// whose stable image's pageLSN is at or past last is neither decoded nor
// buffered, and FetchForRedo returns a nil frame. Each call reads the
// image at most once; a buffered page is returned as Fetch returns it.
func (p *Pool) FetchForRedo(pid PageID, last wal.LSN) (*Frame, error) {
	f, err := p.fetch(pid, false, last)
	switch {
	case errors.Is(err, errCovered):
		return nil, nil
	case errors.Is(err, ErrPageNotFound):
		return p.Create(pid)
	}
	return f, err
}

// fetch is Fetch with the prefetcher's warm mode: a warm miss tags the
// loading placeholder as preloaded BEFORE the disk read, so a foreground
// fetch that arrives while the read is in flight consumes the tag as a
// prefetch hit — the overlap it got is exactly what the counter means.
// A warm fetch itself never consumes the tag (the worker's own hit-path
// visit is not a prefetch hit). A miss with covered set whose stable
// image's pageLSN is at or past it fails with errCovered (FetchForRedo).
func (p *Pool) fetch(pid PageID, warm bool, covered wal.LSN) (*Frame, error) {
	if p.cap == 0 {
		if f := p.ftab.get(pid); f != nil {
			f.pins.Add(1)
			p.hitCount.Add(1)
			if !warm && f.preloaded.Swap(false) {
				p.prefetchHit.Add(1)
			}
			return f, nil
		}
		f, err := p.loadFromDisk(pid, covered)
		if err != nil {
			return nil, err
		}
		if warm {
			f.preloaded.Store(true)
		}
		// Another goroutine may install first; both read the same stable
		// image, so dropping ours is safe.
		af, _ := p.ftab.getOrInstall(pid, f)
		af.pins.Add(1)
		return af, nil
	}

	sh := p.shard(pid)
	sh.mu.Lock()
	for {
		if f, ok := sh.frames[pid]; ok {
			f.pins.Add(1)
			f.ref.Store(1)
			sh.hits++
			if !warm && f.preloaded.Swap(false) {
				p.prefetchHit.Add(1)
			}
			if !f.loading {
				sh.mu.Unlock()
				return f, nil
			}
			// Another fetcher's disk read is in flight; wait for it to
			// publish the contents (or fail) instead of decoding a second
			// copy.
			if f.loadCh == nil {
				f.loadCh = make(chan struct{})
			}
			ch := f.loadCh
			sh.mu.Unlock()
			<-ch
			if err := f.loadErr; errors.Is(err, errCovered) {
				// A restart fetch left the page unbuffered: read it here.
				p.Unpin(f)
				sh.mu.Lock()
				continue
			} else if err != nil {
				p.Unpin(f)
				return nil, err
			}
			return f, nil
		}
		op, ok := sh.flushing[pid]
		if !ok {
			break
		}
		// An evictor is writing this page back; wait for the write to
		// land. Reading the stable image now could install the pre-flush
		// contents over the newer ones.
		op.wait(sh)
	}
	// Miss: publish a pinned loading placeholder under the lock, then do
	// the expensive disk read and decode outside it so they never
	// serialize the shard. The pin keeps the evictor away and the loading
	// marker parks concurrent fetchers of the same page, so the window
	// between lookup and install can never admit a stale image over newer
	// buffered (or freshly flushed) state.
	f := sh.takeFrame()
	f.pool = p
	f.ID = pid
	f.Data = nil
	f.meta.Store(0)
	f.loading = true
	f.loadErr = nil
	f.pins.Add(1)
	if warm {
		f.preloaded.Store(true)
	}
	e, elided := sh.elided[pid]
	victims := sh.install(f)
	sh.mu.Unlock()
	err := p.writeBack(sh, victims)

	var lsn uint64
	var data any
	switch {
	case err != nil:
	case elided:
		err = p.replay(f, e)
	default:
		lsn, data, err = p.readPage(pid, covered)
	}
	if err == nil {
		p.missCount.Add(1)
	}
	sh.mu.Lock()
	if err != nil {
		// Withdraw the placeholder. Waiters still pin it and will read
		// loadErr after the close; the frame is not recycled. Clear any
		// warm tag so the dead frame's later recycling isn't counted as
		// a wasted prefetch on top of the failed read.
		f.preloaded.Store(false)
		sh.removeAt(f.clockIdx)
		f.loadErr = err
		f.pins.Add(-1)
	} else if elided {
		p.forget(sh, pid)
	} else {
		f.Data = data
		f.meta.Store(lsn &^ dirtyBit)
	}
	f.loading = false
	ch := f.loadCh
	f.loadCh = nil
	sh.mu.Unlock()
	if ch != nil {
		close(ch)
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// readPage reads and decodes the stable image of pid, retrying injected
// transient read faults with a short backoff. An image whose pageLSN is at
// or past covered (unless that is NilLSN) is errCovered, not decoded.
func (p *Pool) readPage(pid PageID, covered wal.LSN) (lsn uint64, data any, err error) {
	var img []byte
	var ok bool
	for attempt := 0; ; attempt++ {
		img, ok, err = p.disk.Read(pid)
		if err == nil || !fault.IsTransient(err) || attempt >= diskRetries {
			break
		}
		time.Sleep(time.Microsecond << attempt)
	}
	if err != nil {
		return 0, nil, err
	}
	if !ok {
		return 0, nil, fmt.Errorf("%w: page %d", ErrPageNotFound, pid)
	}
	lsn, tag, content, err := unframeImage(img)
	if err != nil {
		return 0, nil, err
	}
	if covered != wal.NilLSN && wal.LSN(lsn) >= covered {
		return lsn, nil, errCovered
	}
	data, err = p.decodeFrameData(tag, content)
	if err != nil {
		return 0, nil, err
	}
	return lsn, data, nil
}

// loadFromDisk reads and decodes the stable image of pid into a fresh
// frame (unbounded regime).
func (p *Pool) loadFromDisk(pid PageID, covered wal.LSN) (*Frame, error) {
	lsn, data, err := p.readPage(pid, covered)
	if err != nil {
		return nil, err
	}
	p.missCount.Add(1)
	f := &Frame{ID: pid, Data: data, pool: p}
	f.meta.Store(lsn &^ dirtyBit)
	return f, nil
}

// Create returns a pinned frame for a page that does not yet have valid
// contents: a freshly allocated page, or a page recovery is about to
// re-format. Data is nil and pageLSN zero unless a stale buffered frame
// for pid already exists, in which case that frame is reused. Create
// fails only if making room required a write-back that failed.
func (p *Pool) Create(pid PageID) (*Frame, error) {
	if p.cap == 0 {
		f := &Frame{ID: pid, pool: p}
		af, _ := p.ftab.getOrInstall(pid, f)
		af.pins.Add(1)
		return af, nil
	}
	sh := p.shard(pid)
	sh.mu.Lock()
	for {
		if f, ok := sh.frames[pid]; ok {
			f.pins.Add(1)
			f.ref.Store(1)
			if !f.loading {
				sh.mu.Unlock()
				return f, nil
			}
			if f.loadCh == nil {
				f.loadCh = make(chan struct{})
			}
			ch := f.loadCh
			sh.mu.Unlock()
			<-ch
			if f.loadErr != nil {
				// The loader failed and withdrew its placeholder; install
				// a fresh empty frame instead.
				p.Unpin(f)
				sh.mu.Lock()
				continue
			}
			return f, nil
		}
		op, ok := sh.flushing[pid]
		if !ok {
			break
		}
		op.wait(sh)
	}
	f := sh.takeFrame()
	f.pool = p
	f.ID = pid
	f.Data = nil
	f.meta.Store(0)
	f.pins.Add(1)
	if e, ok := sh.elided[pid]; ok {
		// The caller formats the page, so nothing of the elided chain is
		// replayed; the frame only takes over the entry's place in the dirty
		// page table, whose recLSN keeps the chain in the redo window.
		f.recLSN.Store(uint64(e.rec()))
		f.meta.Store(dirtyBit | uint64(e.page))
		f.chain.Store(e.chain)
		p.dirty.move(&e.pos, &f.dirtyPos)
		p.forget(sh, pid)
	}
	victims := sh.install(f)
	sh.mu.Unlock()
	if err := p.writeBack(sh, victims); err != nil {
		// Withdraw the empty frame unless another goroutine already
		// pinned it (a concurrent creator will format it); either way
		// the caller gets the error.
		sh.mu.Lock()
		if cur, ok := sh.frames[pid]; ok && cur == f && f.pins.Load() == 1 {
			sh.removeAt(f.clockIdx)
			f.pins.Add(-1)
			sh.recycle(f)
		} else {
			f.pins.Add(-1)
		}
		sh.mu.Unlock()
		return nil, err
	}
	return f, nil
}

// FetchOrCreate fetches pid if buffered or stable, and otherwise creates
// an empty frame for it; recovery uses it while replaying formats of
// pages that never reached the disk.
func (p *Pool) FetchOrCreate(pid PageID) (*Frame, error) {
	f, err := p.Fetch(pid)
	if err == nil {
		return f, nil
	}
	if errors.Is(err, ErrPageNotFound) {
		return p.Create(pid)
	}
	return nil, err
}

// install adds f to the shard and detaches victims past capacity,
// returning the dirty ones for the caller to write back via writeBack
// after dropping sh.mu. Caller holds sh.mu.
func (sh *poolShard) install(f *Frame) []*flushOp {
	sh.frames[f.ID] = f
	f.ref.Store(1)
	f.clockIdx = len(sh.clock)
	sh.clock = append(sh.clock, f)
	var victims []*flushOp
	for len(sh.frames) > sh.cap {
		op, found := sh.detachVictim()
		if !found {
			break // everything pinned: allow temporary overflow
		}
		if op != nil {
			victims = append(victims, op)
		}
	}
	return victims
}

// detachVictim runs the clock hand until it finds an unpinned frame
// whose reference bit is clear and removes it from the shard. Giving
// every frame one second chance bounds the sweep at two laps. A clean
// victim is recycled on the spot; a dirty one is registered in
// sh.flushing and returned for write-back outside the lock — once
// detached with pins == 0 nothing can re-dirty it, so the dirty
// decision is stable. found is false when every frame is pinned or
// referenced. Caller holds sh.mu; see poolShard for why a zero pin
// count is sufficient exclusion.
func (sh *poolShard) detachVictim() (op *flushOp, found bool) {
	for scanned := 2 * len(sh.clock); scanned > 0; scanned-- {
		if sh.hand >= len(sh.clock) {
			sh.hand = 0
		}
		f := sh.clock[sh.hand]
		if f.pins.Load() != 0 {
			sh.hand++
			continue
		}
		if f.ref.Swap(0) != 0 {
			sh.hand++ // second chance
			continue
		}
		sh.removeAt(f.clockIdx)
		sh.evictions++
		if f.preloaded.Swap(false) {
			sh.pfWasted++
		}
		if !f.Dirty() || f.pool.elide(sh, f) {
			sh.recycle(f)
			return nil, true
		}
		op = &flushOp{f: f}
		sh.flushing[f.ID] = op
		return op, true
	}
	return nil, false
}

// writeBack flushes detached dirty victims and retires their in-flight
// entries, waking fetchers parked on those pages. It runs without sh.mu
// held: flush forces the log, and log.Force can wait out in-flight
// appenders — a wait that must stall only this page, not every fetch on
// the shard.
//
// A victim whose flush fails is reattached to the shard (temporarily
// over capacity) instead of recycled: its dirty contents exist nowhere
// else, so dropping the frame would lose committed-but-unflushed
// updates. Parked fetchers are woken either way; on the failure path
// they re-find the page in the shard map. All victims are processed
// even after a failure; the first error is returned.
func (p *Pool) writeBack(sh *poolShard, victims []*flushOp) error {
	var first error
	for _, op := range victims {
		err := p.inj.Check(FPPoolEvict)
		if err == nil {
			err = p.flush(op.f)
		}
		sh.mu.Lock()
		delete(sh.flushing, op.f.ID)
		if err != nil {
			sh.reattach(op.f)
			if first == nil {
				first = err
			}
		} else {
			sh.recycle(op.f)
		}
		ch := op.done
		sh.mu.Unlock()
		if ch != nil {
			close(ch)
		}
	}
	return first
}

// reattach returns a detached victim to the shard after a failed
// write-back. Caller holds sh.mu.
func (sh *poolShard) reattach(f *Frame) {
	sh.frames[f.ID] = f
	f.ref.Store(1)
	f.clockIdx = len(sh.clock)
	sh.clock = append(sh.clock, f)
}

// removeAt deletes the clock ring entry at i by swapping in the last
// entry. Caller holds sh.mu.
func (sh *poolShard) removeAt(i int) {
	f := sh.clock[i]
	last := len(sh.clock) - 1
	sh.clock[i] = sh.clock[last]
	sh.clock[i].clockIdx = i
	sh.clock[last] = nil
	sh.clock = sh.clock[:last]
	delete(sh.frames, f.ID)
}

// flush writes f to disk if dirty, forcing the log first (WAL protocol).
// The caller must hold the frame's latch or have otherwise excluded
// mutators (eviction relies on pins == 0 under the shard lock). On any
// error — encode failure, log force failure, or a disk write that
// failed or tore — the frame stays dirty, so the page remains in the
// dirty page table and a later flush (or redo after a crash) still
// covers it.
func (p *Pool) flush(f *Frame) error {
	m := f.meta.Load()
	if m&dirtyBit == 0 || f.Data == nil {
		return nil
	}
	lsn := wal.LSN(m &^ dirtyBit)
	// The image is built in a scratch buffer the pool keeps between
	// flushes: no Disk retains what Write is handed.
	scratch, _ := p.scratch.Get().(*[]byte)
	if scratch == nil {
		scratch = new([]byte)
	}
	defer p.scratch.Put(scratch)
	img, err := p.appendImage((*scratch)[:0], uint64(lsn), f.Data)
	if err != nil {
		return fmt.Errorf("storage: encode page %d: %w", f.ID, err)
	}
	*scratch = img
	if err := p.log.Force(lsn); err != nil {
		return fmt.Errorf("storage: flush page %d: %w", f.ID, err)
	}
	if err := p.writeImage(f.ID, img); err != nil {
		return err
	}
	// Clean again; recLSN is left stale (see its comment). A lost race
	// means a concurrent flusher of the same contents already cleaned it.
	if f.meta.CompareAndSwap(m, uint64(lsn)) {
		f.chain.Store(0)
		p.flushCount.Add(1)
		p.dirty.leave(&f.dirtyPos)
	}
	return nil
}

// writeImage writes one page image to the stable layer, retrying
// injected transient faults with a short backoff.
func (p *Pool) writeImage(pid PageID, img []byte) error {
	for attempt := 0; ; attempt++ {
		err := p.disk.Write(pid, img)
		if err == nil || !fault.IsTransient(err) || attempt >= diskRetries {
			return err
		}
		time.Sleep(time.Microsecond << attempt)
	}
}

// StablePageLSN returns the pageLSN recorded in pid's stable image without
// buffering or decoding the page, or ok=false if the page was never
// flushed or the read failed. It is a probe for tests: restart redo
// decides whether a page needs its records on the image it reads
// (FetchForRedo), so that it reads the image once.
func (p *Pool) StablePageLSN(pid PageID) (wal.LSN, bool) {
	img, ok, err := p.disk.Read(pid)
	if err != nil || !ok {
		return wal.NilLSN, false
	}
	lsn, _, _, err := unframeImage(img)
	if err != nil {
		return wal.NilLSN, false
	}
	return wal.LSN(lsn), true
}

// Unpin releases one pin on f.
func (p *Pool) Unpin(f *Frame) {
	if f.pins.Add(-1) < 0 {
		panic(fmt.Sprintf("storage: unpin of unpinned page %d", f.ID))
	}
}

// Drop removes pid from the pool without flushing, discarding buffered
// changes — or forgetting it, elided; used when a page is de-allocated. The
// stable image, if any, remains (recovery replays history over it).
func (p *Pool) Drop(pid PageID) {
	if p.cap == 0 {
		if f := p.ftab.get(pid); f != nil {
			if f.pins.Load() > 0 {
				panic(fmt.Sprintf("storage: drop of pinned page %d", pid))
			}
			p.ftab.delete(pid)
			p.dirty.leave(&f.dirtyPos)
		}
		return
	}
	sh := p.shard(pid)
	sh.mu.Lock()
	if f, ok := sh.frames[pid]; ok {
		if f.pins.Load() > 0 {
			sh.mu.Unlock()
			panic(fmt.Sprintf("storage: drop of pinned page %d", pid))
		}
		sh.removeAt(f.clockIdx)
		p.dirty.leave(&f.dirtyPos)
		sh.recycle(f)
	} else {
		p.forget(sh, pid)
	}
	sh.mu.Unlock()
}

// FlushPage flushes pid if it is buffered and dirty. The caller must not
// hold the frame's latch; FlushPage takes an S latch to exclude mutators.
func (p *Pool) FlushPage(pid PageID) error {
	f, ok := p.lookupPinned(pid)
	if !ok {
		return nil
	}
	f.Latch.AcquireS()
	err := p.flush(f)
	f.Latch.ReleaseS()
	p.Unpin(f)
	return err
}

// FlushBatch flushes a batch of pages with one log force covering the
// whole batch instead of one per page: the maximum pageLSN across the
// batch is forced first, so the per-page flushes find the log already
// stable (each still re-checks, catching pages re-dirtied above the
// batch force). An elided page of the batch is rebuilt and written on its
// own after the buffered ones (writeElided). Returns the
// number of pages written, the page IDs whose flush failed (they stay
// dirty and must be re-armed by the caller for a later round), and the
// first error.
func (p *Pool) FlushBatch(pids []PageID) (int, []PageID, error) {
	frames := make([]*Frame, 0, len(pids))
	var elided []PageID
	var maxLSN wal.LSN
	for _, pid := range pids {
		f, ok := p.lookupPinned(pid)
		if !ok {
			if p.isElided(pid) {
				elided = append(elided, pid)
			}
			continue
		}
		frames = append(frames, f)
		if m := f.meta.Load(); m&dirtyBit != 0 {
			if lsn := wal.LSN(m &^ dirtyBit); lsn > maxLSN {
				maxLSN = lsn
			}
		}
	}
	var first error
	var failed []PageID
	if err := p.log.Force(maxLSN); err != nil {
		first = fmt.Errorf("storage: flush batch: %w", err)
		for _, f := range frames {
			failed = append(failed, f.ID)
			p.Unpin(f)
		}
		return 0, append(failed, elided...), first
	}
	flushed := 0
	for _, f := range frames {
		f.Latch.AcquireS()
		wasDirty := f.Dirty()
		err := p.flush(f)
		f.Latch.ReleaseS()
		if err != nil {
			failed = append(failed, f.ID)
			if first == nil {
				first = err
			}
		} else if wasDirty {
			flushed++
		}
		p.Unpin(f)
	}
	for _, pid := range elided {
		wrote, err := p.writeElided(pid)
		if err != nil {
			failed = append(failed, pid)
			if first == nil {
				first = err
			}
		} else if wrote {
			flushed++
		}
	}
	return flushed, failed, first
}

// lookupPinned returns the buffered frame for pid pinned, if present.
func (p *Pool) lookupPinned(pid PageID) (*Frame, bool) {
	if p.cap == 0 {
		f := p.ftab.get(pid)
		if f == nil {
			return nil, false
		}
		f.pins.Add(1)
		return f, true
	}
	sh := p.shard(pid)
	sh.mu.Lock()
	for {
		if f, ok := sh.frames[pid]; ok {
			f.pins.Add(1)
			sh.mu.Unlock()
			return f, true
		}
		op, ok := sh.flushing[pid]
		if !ok {
			sh.mu.Unlock()
			return nil, false
		}
		// An evictor is writing the page back; FlushPage promises the
		// stable image is current on return, so wait the write out.
		op.wait(sh)
	}
}

// snapshotFrames returns all buffered frames, pinned: bounded-pool pins
// are taken under each shard's mu, so frames in the snapshot cannot be
// evicted (and their flushes cannot race an evictor's) until the caller
// unpins them.
func (p *Pool) snapshotFrames() []*Frame {
	var out []*Frame
	if p.cap == 0 {
		p.ftab.forEach(func(f *Frame) {
			f.pins.Add(1)
			out = append(out, f)
		})
		return out
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, f := range sh.frames {
			f.pins.Add(1)
			out = append(out, f)
		}
		sh.mu.Unlock()
	}
	return out
}

// maxElidedSweeps bounds FlushAll's passes over the elided pages.
const maxElidedSweeps = 3

// FlushAll flushes every dirty frame whose latch is immediately available
// (a fuzzy sweep; concurrently latched pages are skipped), then writes
// every elided page back one at a time (writeElided), and returns the
// number flushed. A page whose flush fails stays dirty (or elided); the
// sweep continues past it and the first error is returned alongside the
// count. Run on a quiet pool it leaves nothing elided.
func (p *Pool) FlushAll() (int, error) {
	flushed := 0
	var first error
	for _, f := range p.snapshotFrames() {
		if f.Latch.TryAcquireS() {
			wasDirty := f.Dirty()
			err := p.flush(f)
			f.Latch.ReleaseS()
			if err != nil {
				if first == nil {
					first = err
				}
			} else if wasDirty {
				flushed++
			}
		}
		p.Unpin(f)
	}
	// An eviction can elide a page re-dirtied since the first sweep: sweep
	// the elided pages again, a bounded number of times, so that a FlushAll
	// beside a busy workload still returns.
	for sweep := 0; sweep < maxElidedSweeps && p.ElidedCount() > 0; sweep++ {
		var pids []PageID
		for i := range p.shards {
			sh := &p.shards[i]
			sh.mu.Lock()
			for pid := range sh.elided {
				pids = append(pids, pid)
			}
			sh.mu.Unlock()
		}
		for _, pid := range pids {
			wrote, err := p.writeElided(pid)
			if err != nil && first == nil {
				first = err
			}
			if wrote {
				flushed++
			}
		}
	}
	return flushed, first
}

// DirtyPages snapshots the dirty page table: page ID to recLSN (the LSN
// that first dirtied it). Fuzzy checkpoints log this.
func (p *Pool) DirtyPages() map[PageID]wal.LSN {
	out := make(map[PageID]wal.LSN)
	if p.cap == 0 {
		for _, f := range p.snapshotFrames() {
			if rec, dirty := f.dirtySnapshot(); dirty {
				out[f.ID] = rec
			}
			p.Unpin(f)
		}
		return out
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, f := range sh.frames {
			if rec, dirty := f.dirtySnapshot(); dirty {
				out[f.ID] = rec
			}
		}
		// A detached victim mid-write-back is still dirty in memory until
		// its image lands; the checkpoint must not drop it from the dirty
		// page table. Once its flush cleans it, the stable image is
		// current and omitting it is correct.
		for pid, op := range sh.flushing {
			if rec, dirty := op.f.dirtySnapshot(); dirty {
				out[pid] = rec
			}
		}
		// An elided page is dirty until a replay rebuilds it into a frame,
		// which takes over its entry before the elided one goes.
		for pid, e := range sh.elided {
			if _, buffered := out[pid]; !buffered {
				out[pid] = e.rec()
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// DirtyWatermark returns the oldest recLSN among the pool's dirty pages
// (NilLSN when none is dirty) and the dirty count, elided pages included,
// from the dirty page table's mirrors: atomic loads, no lock, pin or scan.
func (p *Pool) DirtyWatermark() (oldest wal.LSN, n int) {
	return wal.LSN(p.dirty.oldest.Load()), int(p.dirty.count.Load())
}

// DirtyBelow appends to dst the IDs of the dirty pages, buffered or elided,
// whose recLSN is below cutoff: the oldest limit of them when more qualify.
// The cost follows the number that qualify, not the pool size.
func (p *Pool) DirtyBelow(cutoff wal.LSN, limit int, dst []PageID) []PageID {
	return p.dirty.below(cutoff, limit, dst)
}

// Capacity returns the pool's frame bound (0 = unbounded).
func (p *Pool) Capacity() int { return p.cap }

// Stats returns cumulative pool counters.
func (p *Pool) Stats() PoolStats {
	s := PoolStats{
		Flushes:         p.flushCount.Load(),
		Misses:          p.missCount.Load(),
		Hits:            p.hitCount.Load(),
		PrefetchIssued:  p.prefetchIssued.Load(),
		PrefetchHit:     p.prefetchHit.Load(),
		PrefetchWasted:  p.prefetchWasted.Load(),
		Elisions:        p.elisions.Load(),
		Replays:         p.replays.Load(),
		ReplayedRecords: p.replayedRecords.Load(),
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		s.Hits += sh.hits
		s.Evictions += sh.evictions
		s.PrefetchWasted += sh.pfWasted
		sh.mu.Unlock()
	}
	return s
}

// BufferedCount returns the number of frames currently buffered.
func (p *Pool) BufferedCount() int {
	frames := p.snapshotFrames()
	for _, f := range frames {
		p.Unpin(f)
	}
	return len(frames)
}
