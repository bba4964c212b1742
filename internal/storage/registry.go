package storage

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"repro/internal/latch"
	"repro/internal/wal"
)

// Compensation describes the page-oriented inverse of a logged update: the
// operation that, applied through its Kind's Redo to the update's own page,
// undoes the original. Rollback appends it as a CLR addressed to that page
// and applies it; restart redo replays the CLR like any other record, which
// is what makes undo idempotent.
type Compensation struct {
	Kind    wal.Kind
	Payload []byte
}

// LogReader reads back a log record by LSN: the log of the running system,
// or a restart image.
type LogReader interface {
	Read(lsn wal.LSN) (wal.Record, error)
}

// Handler gives redo/undo semantics to one record Kind.
type Handler struct {
	// Redo applies the record's effect to the frame's decoded contents.
	// The driver holds the frame's X latch, has verified pageLSN <
	// rec.LSN, and sets the new pageLSN afterwards. Redo must be a pure
	// function of (page state, record).
	Redo func(f *Frame, rec *wal.Record) error
	// MakeUndo returns the page-oriented compensation for rec. It must
	// not touch pages. A record that says what it changed but not what
	// the page held before reads that from an earlier record of its own
	// transaction through log (a split finds what left the node in the
	// sibling's format record, rec.PrevLSN); the compensation carries it,
	// so its redo stays a pure function of (page, payload). Nil for
	// redo-only kinds (never undone).
	MakeUndo func(rec *wal.Record, log LogReader) (Compensation, error)
	// LogicalUndo, if set, performs a non-page-oriented undo: a full
	// logical operation (e.g. a tree re-traversal delete) that logs its
	// compensation under tx, the transaction rolling back, ending with a
	// CLR whose UndoNext is rec.PrevLSN. When set it takes precedence over
	// MakeUndo during rollback.
	LogicalUndo func(rec *wal.Record, tx CLRLogger) error
	// Image marks a kind whose record carries the page's whole contents:
	// its redo reads nothing of the page, so a replay of an elided page's
	// chain may start from it instead of from the stable image.
	Image bool
}

// CLRLogger is the slice of a rolling-back transaction that logical undo
// needs: append a compensation record to its chain, addressed to the page
// f buffers (X-latched; nil for a record of no page), and mark f dirty at
// it as UpdateLogger.LogUpdate does; and name the latches the rollback's
// caller holds (AbortHeld, CommitHeld): the tracker of its operation, nil
// when no operation holds any. A page whose frame it holds in X undo
// changes without latching again. *txn.Txn implements it.
type CLRLogger interface {
	LogCLR(f *Frame, kind wal.Kind, payload []byte, undoNext wal.LSN) wal.LSN
	Held() *latch.Tracker
}

// Registry maps record Kinds to Handlers and store IDs to Pools. One
// Registry serves a whole environment (all stores sharing a log); both the
// transaction manager (rollback) and restart recovery drive it.
type Registry struct {
	mu    sync.RWMutex
	pools map[uint32]*Pool
	// handlers is replaced, never changed, by Register (under mu), so a
	// lookup — one per record every redo, undo and replay applies — takes
	// no lock.
	handlers atomic.Pointer[map[wal.Kind]Handler]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{pools: make(map[uint32]*Pool)}
	r.handlers.Store(&map[wal.Kind]Handler{})
	return r
}

// Register installs the handler for kind. Registering a kind twice panics:
// kinds are compile-time constants and a collision is a coding error.
func (r *Registry) Register(kind wal.Kind, h Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.handlers.Load()
	if _, dup := old[kind]; dup {
		panic(fmt.Sprintf("storage: duplicate handler for kind %d", kind))
	}
	next := maps.Clone(old)
	next[kind] = h
	r.handlers.Store(&next)
}

// AddPool associates a store ID with its pool.
func (r *Registry) AddPool(p *Pool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.pools[p.StoreID]; dup {
		panic(fmt.Sprintf("storage: duplicate pool for store %d", p.StoreID))
	}
	r.pools[p.StoreID] = p
	p.reg = r
}

// Pool returns the pool for storeID.
func (r *Registry) Pool(storeID uint32) (*Pool, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.pools[storeID]
	if !ok {
		return nil, fmt.Errorf("storage: no pool for store %d", storeID)
	}
	return p, nil
}

// Handler returns the handler for kind.
func (r *Registry) Handler(kind wal.Kind) (Handler, error) {
	h, ok := (*r.handlers.Load())[kind]
	if !ok {
		return Handler{}, fmt.Errorf("storage: no handler for kind %d", kind)
	}
	return h, nil
}

// ApplyRedo applies rec to its page if the page has not already seen it
// (the pageLSN test), fetching or creating the frame as needed. It is the
// single code path used both when compensations are applied during normal
// rollback and when history is repeated at restart.
func (r *Registry) ApplyRedo(rec *wal.Record) error {
	p, err := r.Pool(rec.StoreID)
	if err != nil {
		return err
	}
	f, err := p.FetchOrCreate(PageID(rec.PageID))
	if err != nil {
		return err
	}
	defer p.Unpin(f)
	f.Latch.AcquireX()
	defer f.Latch.ReleaseX()
	return r.ApplyRedoFrame(f, rec)
}

// ApplyRedoFrame applies rec to an already-pinned, already-X-latched
// frame with the same pageLSN guard as ApplyRedo. Rollback uses it to
// append a CLR and apply it under one latch hold: per-page append order
// then equals apply order, so the guard can never mistake a concurrent
// transaction's later CLR for "rec already applied" and drop a
// compensation from the buffered page.
func (r *Registry) ApplyRedoFrame(f *Frame, rec *wal.Record) error {
	_, err := r.redo(f, rec)
	return err
}

// redo is the one pageLSN guard: it applies rec to the X-latched frame
// through its kind's handler unless the page has seen it already, and
// reports whether it did.
func (r *Registry) redo(f *Frame, rec *wal.Record) (bool, error) {
	h, err := r.Handler(rec.Kind)
	if err != nil {
		return false, err
	}
	return redoWith(f, h, rec)
}

// redoWith is redo with rec's handler already looked up.
func redoWith(f *Frame, h Handler, rec *wal.Record) (bool, error) {
	if f.PageLSN() >= rec.LSN {
		return false, nil // already reflected
	}
	if err := h.Redo(f, rec); err != nil {
		return false, fmt.Errorf("redo kind %d page %d at LSN %d: %w", rec.Kind, rec.PageID, rec.LSN, err)
	}
	f.SetPageLSN(rec.LSN)
	return true, nil
}

// ApplyRedoBatch applies one page's planned redo records — ascending LSN,
// all addressed to (storeID, pid) — fetching, pinning and X-latching the
// frame once for the whole batch instead of once per record. Every record
// still takes the pageLSN test individually and advances pageLSN as it
// applies, so the resulting page state is byte-identical with a loop of
// ApplyRedo calls. Restart's page-partitioned redo workers drive it;
// rec.Payload may alias the log image (Redo handlers treat payloads as
// read-only). It returns how many records actually applied.
func (r *Registry) ApplyRedoBatch(storeID uint32, pid PageID, recs []wal.Record) (int, error) {
	p, err := r.Pool(storeID)
	if err != nil {
		return 0, err
	}
	f, err := p.FetchOrCreate(pid)
	if err != nil {
		return 0, err
	}
	defer p.Unpin(f)
	f.Latch.AcquireX()
	defer f.Latch.ReleaseX()
	applied := 0
	for i := range recs {
		ok, err := r.redo(f, &recs[i])
		if err != nil {
			return applied, err
		}
		if ok {
			applied++
		}
	}
	return applied, nil
}
