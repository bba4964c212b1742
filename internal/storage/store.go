package storage

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/latch"
	"repro/internal/wal"
)

// Record kinds owned by package storage (meta-page operations). Other
// packages allocate from their own ranges; see each package's kinds file.
const (
	// KindMetaFormat initializes an empty meta page.
	KindMetaFormat wal.Kind = 1
	// KindMetaAlloc records allocation of one page ID.
	KindMetaAlloc wal.Kind = 2
	// KindMetaFree records de-allocation of one page ID.
	KindMetaFree wal.Kind = 3
	// KindMetaSetRoot records a root-directory entry.
	KindMetaSetRoot wal.Kind = 4
)

// MetaRank is the latch rank of the space-management page: strictly last,
// per §4.1.1 ("space management information can be ordered last").
const MetaRank latch.Rank = 1<<63 - 1

// FPStoreFree is the failpoint probed at the top of Store.Free, before
// the meta page is touched: arming it with Crash simulates dying in the
// middle of a consolidation's de-allocation step.
const FPStoreFree = "store.free"

// FPConsolidate is the failpoint pitree.Kernel.Absorb probes after the
// free of every consolidation action (core merge and root shrink, TSB
// history reap, spatial absorb) and before its commit. Arming it with
// Crash exercises recovery against a half-done merge.
const FPConsolidate = "tree.consolidate"

// UpdateLogger is the slice of a transaction (or atomic action) that
// logged page operations need: append an update record to the caller's
// undo chain. *txn.Txn implements it.
type UpdateLogger interface {
	// LogUpdate appends a RecUpdate of kind and payload for the page f
	// buffers, linked into the caller's chain and into the page's (the
	// record names f's pageLSN as the page's previous record), marks f
	// dirty at it (Frame.MarkDirty) and returns its LSN. The caller holds
	// f's X latch and makes the matching change under it.
	LogUpdate(f *Frame, kind wal.Kind, payload []byte) wal.LSN
}

// Store bundles a pool with logged space management: page allocation,
// de-allocation and the root directory all go through the meta page so
// that restart recovery reconstructs them exactly.
type Store struct {
	Pool *Pool
	// Space counts allocation traffic since open (in-memory observability;
	// the durable truth is the meta page).
	Space SpaceCounters

	// barred holds free-list entries that are not yet allocatable because
	// the action that freed them has not committed. Handing such a page to
	// a new owner would be a double allocation if the freeing action then
	// aborts (its compensation re-allocates the page). The free-list insert
	// itself stays immediate — page state must match the logged state or a
	// steal could flush a meta image ahead of its pageLSN — so only the
	// recycling side is gated. Guarded by the meta frame's latch, and
	// deliberately in-memory: a crash discards it, which is safe because
	// restart resolves every action (commit or undo) before new allocation
	// traffic exists. A bar whose action aborts goes stale and is
	// overwritten when the page is freed again; until then the page merely
	// sits out of the recycling pool.
	barred map[PageID]bool
	// unsettled holds pages allocated by an action that has not committed.
	// IsAllocated reports them free until it does: a completing action
	// that re-tests a child named before its page was freed and handed on
	// must not build on a node whose creation may still be undone. Kept
	// like barred; an entry whose action aborts goes stale with its page
	// back on the free list.
	unsettled map[PageID]bool
}

// SpaceCounters tracks the free-space map's runtime behaviour.
type SpaceCounters struct {
	// Recycled counts allocations served from the free list; Extended
	// counts allocations that grew the store's high-water mark.
	Recycled atomic.Int64
	Extended atomic.Int64
	// Freed counts pages returned to the free list.
	Freed atomic.Int64
}

// SpaceStats is a point-in-time snapshot of the store's space state.
type SpaceStats struct {
	Next     PageID
	FreeLen  int
	Recycled int64
	Extended int64
	Freed    int64
}

// SpaceStats snapshots the meta page (briefly S-latched) and the counters.
func (s *Store) SpaceStats() (SpaceStats, error) {
	var st SpaceStats
	f, err := s.Pool.Fetch(MetaPage)
	if err != nil {
		return st, err
	}
	f.Latch.AcquireS()
	if m, ok := f.Data.(*Meta); ok {
		st.Next = m.Next
		st.FreeLen = len(m.Free)
	}
	f.Latch.ReleaseS()
	s.Pool.Unpin(f)
	st.Recycled = s.Space.Recycled.Load()
	st.Extended = s.Space.Extended.Load()
	st.Freed = s.Space.Freed.Load()
	return st, nil
}

// AllocatedPages reports how many pages are currently allocated (excluding
// the meta page): the high-water mark minus the free list. This is the
// quantity the churn experiments assert stays bounded.
func (s *Store) AllocatedPages() (int64, error) {
	st, err := s.SpaceStats()
	if err != nil {
		return 0, err
	}
	return int64(st.Next) - 1 - int64(st.FreeLen), nil
}

// SpaceCheck verifies the free-space map invariants against the set of
// pages a tree walk found reachable: no free page is reachable, every
// free page is below the high-water mark and appears exactly once, and
// every reachable page is allocated. Tree Verify implementations call it
// with their visited-page set.
func (s *Store) SpaceCheck(reachable map[PageID]bool) error {
	f, err := s.Pool.Fetch(MetaPage)
	if err != nil {
		return err
	}
	defer s.Pool.Unpin(f)
	f.Latch.AcquireS()
	defer f.Latch.ReleaseS()
	m, ok := f.Data.(*Meta)
	if !ok {
		return fmt.Errorf("storage: meta page of store %d has wrong type %T", s.Pool.StoreID, f.Data)
	}
	seen := make(map[PageID]bool, len(m.Free))
	for _, pid := range m.Free {
		if pid == MetaPage || pid >= m.Next {
			return fmt.Errorf("storage: store %d free list holds out-of-range page %d (next %d)", s.Pool.StoreID, pid, m.Next)
		}
		if seen[pid] {
			return fmt.Errorf("storage: store %d free list holds page %d twice", s.Pool.StoreID, pid)
		}
		seen[pid] = true
		if reachable[pid] {
			return fmt.Errorf("storage: store %d page %d is both free and reachable", s.Pool.StoreID, pid)
		}
	}
	for pid := range reachable {
		if pid >= m.Next {
			return fmt.Errorf("storage: store %d reachable page %d above high-water mark %d", s.Pool.StoreID, pid, m.Next)
		}
	}
	return nil
}

// SpaceSnapshot reads the pool's space state — high-water mark and a copy
// of the free list — under a momentary S latch on the meta page. ok is
// false when the pool has no formatted meta page (a store that never
// bootstrapped); callers treat that as "nothing to snapshot". The recovery
// checkpoint embeds the snapshot so restart's space audit can seed its
// shadow model without replaying the whole log prefix.
func (p *Pool) SpaceSnapshot() (next PageID, free []PageID, ok bool) {
	f, err := p.Fetch(MetaPage)
	if err != nil {
		return 0, nil, false
	}
	defer p.Unpin(f)
	f.Latch.AcquireS()
	defer f.Latch.ReleaseS()
	m, isMeta := f.Data.(*Meta)
	if !isMeta {
		return 0, nil, false
	}
	return m.Next, append([]PageID(nil), m.Free...), true
}

// NewStore creates a store over the pool and registers the pool with reg.
func NewStore(p *Pool, reg *Registry) *Store {
	reg.AddPool(p)
	return &Store{Pool: p}
}

// Bootstrap formats the meta page inside the caller's transaction or
// atomic action. It must be the first operation on a fresh store.
func (s *Store) Bootstrap(lg UpdateLogger) error {
	f, err := s.Pool.Create(MetaPage)
	if err != nil {
		return err
	}
	defer s.Pool.Unpin(f)
	f.Latch.AcquireX()
	defer f.Latch.ReleaseX()
	if f.Data != nil {
		return fmt.Errorf("storage: bootstrap of non-empty store %d", s.Pool.StoreID)
	}
	f.Data = NewMeta()
	lg.LogUpdate(f, KindMetaFormat, nil)
	return nil
}

// withMeta runs fn with the meta frame X-latched.
func (s *Store) withMeta(t *latch.Tracker, fn func(f *Frame, m *Meta) error) error {
	f, err := s.Pool.Fetch(MetaPage)
	if err != nil {
		return err
	}
	defer s.Pool.Unpin(f)
	f.Latch.AcquireX()
	t.Acquired(f, MetaRank, latch.X)
	defer func() {
		t.Released(f)
		f.Latch.ReleaseX()
	}()
	m, ok := f.Data.(*Meta)
	if !ok {
		return fmt.Errorf("storage: meta page of store %d has wrong type %T", s.Pool.StoreID, f.Data)
	}
	return fn(f, m)
}

// Alloc allocates a page ID, logging the allocation in lg's chain. The
// meta latch is acquired and released inside, honoring the "space
// management last" order; t, if enabled, asserts it. Recycling takes the
// largest unbarred free entry; barred entries (freed by uncommitted
// actions) are passed over.
func (s *Store) Alloc(lg UpdateLogger, t *latch.Tracker) (PageID, error) {
	var pid PageID
	err := s.withMeta(t, func(f *Frame, m *Meta) error {
		pid = NilPage
		for i := len(m.Free) - 1; i >= 0; i-- {
			if !s.barred[m.Free[i]] {
				pid = m.Free[i]
				m.Free = append(m.Free[:i], m.Free[i+1:]...)
				break
			}
		}
		recycled := pid != NilPage
		if !recycled {
			pid = m.Next
			m.Next++
		}
		lg.LogUpdate(f, KindMetaAlloc, encodePID(pid))
		s.untilCommit(&s.unsettled, lg, pid)
		if recycled {
			s.Space.Recycled.Add(1)
		} else {
			s.Space.Extended.Add(1)
		}
		return nil
	})
	return pid, err
}

// committer is the optional slice of UpdateLogger that Alloc and Free use
// to settle a page once the allocating or freeing action commits.
// *txn.Txn implements it; loggers without it (bare test harnesses) get the
// page settled immediately.
type committer interface {
	OnCommit(func())
}

// untilCommit keeps pid in set, under the meta latch the caller holds,
// until lg commits.
func (s *Store) untilCommit(set *map[PageID]bool, lg UpdateLogger, pid PageID) {
	c, ok := lg.(committer)
	if !ok {
		delete(*set, pid)
		return
	}
	if *set == nil {
		*set = make(map[PageID]bool)
	}
	(*set)[pid] = true
	c.OnCommit(func() {
		_ = s.withMeta(nil, func(*Frame, *Meta) error {
			delete(*set, pid)
			return nil
		})
	})
}

// Free returns pid to the free list, logging the de-allocation. The page
// enters the list immediately (so the meta image always matches its
// pageLSN) but stays barred from recycling until lg commits — see
// Store.barred. The fault.FPStoreFree probe fires before the meta page
// changes, so a crash armed there tests recovery racing a de-allocation.
func (s *Store) Free(lg UpdateLogger, t *latch.Tracker, pid PageID) error {
	if err := s.Pool.Probe(FPStoreFree); err != nil {
		return err
	}
	return s.withMeta(t, func(f *Frame, m *Meta) error {
		if m.IsFree(pid) || pid >= m.Next || pid == MetaPage {
			return fmt.Errorf("storage: free of invalid page %d", pid)
		}
		m.FreeLocal(pid)
		s.Space.Freed.Add(1)
		lg.LogUpdate(f, KindMetaFree, encodePID(pid))
		s.untilCommit(&s.barred, lg, pid)
		return nil
	})
}

// SetRoot records name -> pid in the root directory.
func (s *Store) SetRoot(lg UpdateLogger, t *latch.Tracker, name string, pid PageID) error {
	return s.withMeta(t, func(f *Frame, m *Meta) error {
		m.Roots[name] = pid
		lg.LogUpdate(f, KindMetaSetRoot, encodeSetRoot(name, pid))
		return nil
	})
}

// Root looks up a root directory entry.
func (s *Store) Root(name string) (PageID, error) {
	f, err := s.Pool.Fetch(MetaPage)
	if err != nil {
		return NilPage, err
	}
	defer s.Pool.Unpin(f)
	f.Latch.AcquireS()
	defer f.Latch.ReleaseS()
	m, ok := f.Data.(*Meta)
	if !ok {
		return NilPage, fmt.Errorf("storage: meta page of store %d has wrong type %T", s.Pool.StoreID, f.Data)
	}
	pid, ok := m.Roots[name]
	if !ok || pid == NilPage {
		return NilPage, fmt.Errorf("storage: no root named %q in store %d", name, s.Pool.StoreID)
	}
	return pid, nil
}

// IsAllocated reports whether pid is currently allocated (not on the free
// list and below the high-water mark) by an action that has committed.
func (s *Store) IsAllocated(pid PageID) (bool, error) {
	f, err := s.Pool.Fetch(MetaPage)
	if err != nil {
		return false, err
	}
	defer s.Pool.Unpin(f)
	f.Latch.AcquireS()
	defer f.Latch.ReleaseS()
	m, ok := f.Data.(*Meta)
	if !ok {
		return false, fmt.Errorf("storage: meta page of store %d has wrong type %T", s.Pool.StoreID, f.Data)
	}
	return pid < m.Next && pid != MetaPage && !m.IsFree(pid) && !s.unsettled[pid], nil
}

func encodePID(pid PageID) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(pid))
	return b[:]
}

func decodePID(b []byte) (PageID, error) {
	if len(b) != 8 {
		return NilPage, fmt.Errorf("storage: bad pid payload length %d", len(b))
	}
	return PageID(binary.LittleEndian.Uint64(b)), nil
}

// DecodePID parses a KindMetaAlloc/KindMetaFree payload. The recovery
// space audit uses it to replay alloc/free traffic against its shadow.
func DecodePID(b []byte) (PageID, error) { return decodePID(b) }

func encodeSetRoot(name string, pid PageID) []byte {
	b := make([]byte, 8+len(name))
	binary.LittleEndian.PutUint64(b, uint64(pid))
	copy(b[8:], name)
	return b
}

func decodeSetRoot(b []byte) (string, PageID, error) {
	if len(b) < 8 {
		return "", NilPage, fmt.Errorf("storage: bad setroot payload length %d", len(b))
	}
	return string(b[8:]), PageID(binary.LittleEndian.Uint64(b)), nil
}

// RegisterMetaHandlers installs redo/undo for the meta-page kinds. Call
// once per environment (registry), not per store.
func RegisterMetaHandlers(reg *Registry) {
	reg.Register(KindMetaFormat, Handler{
		Redo: func(f *Frame, rec *wal.Record) error {
			f.Data = NewMeta()
			return nil
		},
		// Formatting the meta page is never undone: it happens once at
		// store creation, before anything can depend on it.
		MakeUndo: nil,
		Image:    true,
	})
	reg.Register(KindMetaAlloc, Handler{
		Redo: func(f *Frame, rec *wal.Record) error {
			m, ok := f.Data.(*Meta)
			if !ok {
				return fmt.Errorf("storage: alloc redo on non-meta page")
			}
			pid, err := decodePID(rec.Payload)
			if err != nil {
				return err
			}
			m.RemoveFree(pid)
			if pid >= m.Next {
				m.Next = pid + 1
			}
			return nil
		},
		MakeUndo: func(rec *wal.Record, _ LogReader) (Compensation, error) {
			return Compensation{Kind: KindMetaFree, Payload: rec.Payload}, nil
		},
	})
	reg.Register(KindMetaFree, Handler{
		Redo: func(f *Frame, rec *wal.Record) error {
			m, ok := f.Data.(*Meta)
			if !ok {
				return fmt.Errorf("storage: free redo on non-meta page")
			}
			pid, err := decodePID(rec.Payload)
			if err != nil {
				return err
			}
			if !m.IsFree(pid) {
				m.FreeLocal(pid)
			}
			return nil
		},
		MakeUndo: func(rec *wal.Record, _ LogReader) (Compensation, error) {
			return Compensation{Kind: KindMetaAlloc, Payload: rec.Payload}, nil
		},
	})
	reg.Register(KindMetaSetRoot, Handler{
		Redo: func(f *Frame, rec *wal.Record) error {
			m, ok := f.Data.(*Meta)
			if !ok {
				return fmt.Errorf("storage: setroot redo on non-meta page")
			}
			name, pid, err := decodeSetRoot(rec.Payload)
			if err != nil {
				return err
			}
			m.Roots[name] = pid
			return nil
		},
		// Root creation happens in the index-creation atomic action; undo
		// removes the entry.
		LogicalUndo: nil,
		MakeUndo: func(rec *wal.Record, _ LogReader) (Compensation, error) {
			// Compensate by pointing the name at NilPage; lookups treat
			// that as absent. (Index creation aborting is the only path.)
			name, _, err := decodeSetRoot(rec.Payload)
			if err != nil {
				return Compensation{}, err
			}
			return Compensation{Kind: KindMetaSetRoot, Payload: encodeSetRoot(name, NilPage)}, nil
		},
	})
}
