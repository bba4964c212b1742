// Package lock is the database lock manager of §4.1.2 and §4.2.2. Unlike
// latches (package latch), locks are held to transaction end (two-phase),
// are known to a deadlock detector, and include the paper's move lock:
//
//	"For page-oriented undo, a move lock is required that conflicts with
//	 non-commutative updates. ... Since reads do not require undo,
//	 concurrent reads can be tolerated. Hence, move locks are compatible
//	 with share mode locks. ... a move lock must be distinguished from a
//	 share lock. A transaction encountering a move lock on a sibling
//	 traversal does not schedule an index posting."
//
// Deadlocks among lock holders are detected with a waits-for graph and
// resolved by aborting the requester (ErrDeadlock). Latch-lock deadlocks
// are prevented by the No-Wait rule, which callers implement by releasing
// conflicting latches before calling Lock.
//
// # Concurrency structure
//
// The manager is striped: lock names hash onto a fixed power-of-two array
// of stripes, each with its own mutex, lock table and per-transaction
// lock lists, so uncontended Lock/TryLock/Unlock/ReleaseAll on different
// names proceed in parallel (the transaction-side twin of the sharded
// buffer pool). A per-transaction stripe bitmask lets ReleaseAll visit
// only the stripes the transaction actually used.
//
// The waits-for graph lives in a separate detector component guarded by
// its own mutex, consulted only when a requester must actually block —
// the uncontended paths never touch it. The internal lock order is
// stripe.mu → detector.mu, and the detector never calls back into a
// stripe, so the manager's own mutexes cannot deadlock. Registering the
// new waiter's edges and running the cycle check atomically under
// detector.mu guarantees that when two transactions concurrently form a
// cycle across different stripes, the second one to register observes the
// first one's edges and aborts.
package lock

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/wal"
)

// Mode is a database lock mode.
type Mode int

const (
	// S is share mode.
	S Mode = iota
	// IX is intention-exclusive at page granularity: an updating
	// transaction holds IX on the leaf it changed (plus X on the record),
	// which is what a page-granule move lock must wait for. IX holders
	// tolerate each other and readers.
	IX
	// MV is the move lock: compatible with S (reads need no undo),
	// incompatible with IX (updaters), X and other MV.
	MV
	// X is exclusive mode.
	X
)

// String renders the mode.
func (m Mode) String() string {
	switch m {
	case S:
		return "S"
	case IX:
		return "IX"
	case MV:
		return "MV"
	case X:
		return "X"
	default:
		return "Mode(?)"
	}
}

// Compatible reports whether a holder in mode a permits a holder in mode b.
func Compatible(a, b Mode) bool {
	switch {
	case a == S && b != X, b == S && a != X:
		return true
	case a == IX && b == IX:
		return true
	default:
		return false
	}
}

// stronger reports whether a subsumes b for upgrade purposes
// (S < IX < MV < X; upgrades only ever move up this chain).
func stronger(a, b Mode) bool { return a > b }

// ErrDeadlock reports that granting the request would complete a cycle in
// the waits-for graph; the requester should abort.
var ErrDeadlock = errors.New("lock: deadlock detected")

// ErrPoisoned reports a request for a lock held by a transaction that can
// neither commit nor roll back (see Poison). The engine is degraded: the
// error wraps the log's failure sentinel.
var ErrPoisoned = fmt.Errorf("lock: held by a doomed transaction: %w", wal.ErrLogFailed)

type holder struct {
	txn  wal.TxnID
	mode Mode
}

type waiter struct {
	txn wal.TxnID
	// parent, when nonzero, is the transaction whose goroutine is blocked
	// in this wait on txn's behalf (LockFor); it carries the same
	// waits-for edges for as long as the wait lasts.
	parent  wal.TxnID
	mode    Mode
	upgrade bool
	dep     uint64        // lock's depLSN at grant time, published via ready
	err     error         // set instead of a grant when the lock is poisoned
	ready   chan struct{} // buffered; receives when granted or refused
}

type lockState struct {
	holders []holder
	queue   []*waiter
	// depLSN is the commit-dependency high water: the largest commit LSN
	// of any early-lock-release committer that released this lock while
	// its commit record was not yet stable. A transaction acquiring the
	// lock can observe that committer's state, so its own commit must not
	// be acknowledged before depLSN is in the log's stable prefix.
	depLSN uint64
	// retained marks an entry with no holders or waiters that is parked
	// on the stripe's pending list only because depLSN is still above the
	// stable prefix.
	retained bool
	// poisoned marks a lock a doomed transaction holds for good (Poison):
	// no request that needs a grant is queued or granted again.
	poisoned bool
}

// holderMode returns txn's current mode on the lock.
func (ls *lockState) holderMode(txn wal.TxnID) (Mode, bool) {
	for _, h := range ls.holders {
		if h.txn == txn {
			return h.mode, true
		}
	}
	return 0, false
}

// grantableNow reports whether the request could be granted without
// queuing: an upgrade only needs the other holders to be compatible (it
// would jump the queue anyway); a fresh request must additionally find
// the queue empty (no overtaking, so writers are not starved).
func (ls *lockState) grantableNow(txn wal.TxnID, mode Mode, upgrade bool) bool {
	if !upgrade && len(ls.queue) > 0 {
		return false
	}
	for _, h := range ls.holders {
		if h.txn != txn && !Compatible(h.mode, mode) {
			return false
		}
	}
	return true
}

// blockersOf returns the set of transactions preventing w from being
// granted right now: incompatible holders plus earlier queued waiters.
func (ls *lockState) blockersOf(w *waiter) map[wal.TxnID]struct{} {
	out := make(map[wal.TxnID]struct{})
	for _, h := range ls.holders {
		if h.txn != w.txn && !Compatible(h.mode, w.mode) {
			out[h.txn] = struct{}{}
		}
	}
	for _, q := range ls.queue {
		if q == w {
			break
		}
		if q.txn != w.txn {
			out[q.txn] = struct{}{}
		}
	}
	return out
}

func (ls *lockState) removeWaiter(w *waiter) {
	for i, q := range ls.queue {
		if q == w {
			copy(ls.queue[i:], ls.queue[i+1:])
			ls.queue = ls.queue[:len(ls.queue)-1]
			return
		}
	}
}

// Freelist bounds, per stripe. Beyond these, retired objects go to the GC;
// a stripe keeps more free states while its last ReleaseAll released more
// (stripe.keep).
const (
	maxFreeStates = 64
	maxFreeNames  = 32
)

// stripe is one shard of the lock table. Counters are plain ints guarded
// by mu; StatsSnapshot aggregates them.
type stripe struct {
	mu    sync.Mutex
	locks map[Name]*lockState
	// byTxn lists every name a transaction holds in this stripe, for
	// ReleaseAll and HeldCount.
	byTxn map[wal.TxnID][]Name

	// freeStates and freeNames recycle lockState structs and name slices
	// so the steady-state acquire/release cycle does not allocate. keep is
	// how many names the last ReleaseAll released in this stripe: the free
	// list holds up to that many states, at least maxFreeStates, so that a
	// batch of any size repeated takes back the states its predecessor
	// freed, and a smaller release trims what a larger one left.
	freeStates []*lockState
	freeNames  [][]Name
	keep       int

	// pending is the queue of retained dependency-only entries, in rough
	// park order: pending[pendHead:] are parked, the slots before are
	// spent. sweepPending pops from the head once the stable prefix
	// passes an entry's depLSN.
	pending  []Name
	pendHead int

	// det is the manager's waits-for graph (lock order: mu → det.mu).
	det *detector

	waits     int64
	deadlocks int64
	grants    int64

	_ [32]byte // keep neighboring stripe mutexes off one cache line
}

func (s *stripe) takeState() *lockState {
	if n := len(s.freeStates); n > 0 {
		ls := s.freeStates[n-1]
		s.freeStates = s.freeStates[:n-1]
		return ls
	}
	return &lockState{holders: make([]holder, 0, 4)}
}

func (s *stripe) takeNames() []Name {
	if n := len(s.freeNames); n > 0 {
		ns := s.freeNames[n-1]
		s.freeNames = s.freeNames[:n-1]
		return ns
	}
	return make([]Name, 0, 8)
}

func (s *stripe) recycleNames(ns []Name) {
	if len(s.freeNames) < maxFreeNames {
		s.freeNames = append(s.freeNames, ns[:0])
	}
}

// getState returns the lock state for name, creating it if absent.
// Caller holds s.mu.
func (s *stripe) getState(name Name) *lockState {
	ls, ok := s.locks[name]
	if !ok {
		ls = s.takeState()
		s.locks[name] = ls
	}
	return ls
}

// maybeFree retires an empty lock state — unless it still carries a
// commit dependency above the stable prefix, in which case the entry is
// parked on the stripe's pending list instead: a later acquirer must
// still find and inherit the dependency until stability passes it.
// Entries already parked are only ever freed by sweepPending, so a
// pending name can never alias a recycled state. Caller holds s.mu.
func (s *stripe) maybeFree(name Name, ls *lockState, stable uint64) {
	if len(ls.holders) != 0 || len(ls.queue) != 0 {
		return
	}
	if ls.depLSN != 0 && ls.depLSN >= stable {
		// The record at depLSN is stable only once depLSN < stable (the
		// stable point is one past the last durable byte).
		if !ls.retained {
			ls.retained = true
			s.pending = append(s.pending, name)
		}
		return
	}
	if ls.retained {
		return
	}
	s.freeState(name, ls)
}

// freeState deletes the entry and recycles the state struct. Caller
// holds s.mu; the entry must not be on the pending list.
func (s *stripe) freeState(name Name, ls *lockState) {
	delete(s.locks, name)
	if len(s.freeStates) < max(maxFreeStates, s.keep) {
		ls.holders = ls.holders[:0]
		ls.queue = ls.queue[:0]
		ls.depLSN = 0
		ls.retained = false
		ls.poisoned = false
		s.freeStates = append(s.freeStates, ls)
	}
}

// sweepBase is the least a release sweeps even when it parks nothing
// itself, so an idle tail of parked entries still drains.
const sweepBase = 4

// sweepPending frees up to budget parked dependency-only entries whose
// depLSN the stable prefix has passed. Entries park in roughly ascending
// depLSN order, so a still-pinned head ends the sweep early. Callers
// size budget to twice what their own release can park (plus sweepBase):
// the queue then drains faster than it fills, and holds only entries
// still above the stable point instead of every key ever committed. An
// entry that was re-acquired while parked is unparked here and re-parks
// (or frees) on its next release. Caller holds s.mu.
func (s *stripe) sweepPending(stable uint64, budget int) {
	for ; budget > 0 && s.pendHead < len(s.pending); budget-- {
		name := s.pending[s.pendHead]
		ls, ok := s.locks[name]
		if ok && ls.depLSN != 0 && ls.depLSN >= stable && len(ls.holders) == 0 && len(ls.queue) == 0 {
			break
		}
		s.pendHead++
		if !ok {
			continue
		}
		ls.retained = false
		s.maybeFree(name, ls, stable)
	}
	// Reclaim the spent prefix once it is the larger part (amortized
	// O(1) per entry; maybeFree above may have appended behind it).
	if s.pendHead > len(s.pending)/2 {
		n := copy(s.pending, s.pending[s.pendHead:])
		s.pending = s.pending[:n]
		s.pendHead = 0
	}
}

// addOwned records that txn now holds name in this stripe. Caller holds
// s.mu.
func (s *stripe) addOwned(txn wal.TxnID, name Name) {
	ns, ok := s.byTxn[txn]
	if !ok {
		ns = s.takeNames()
	}
	s.byTxn[txn] = append(ns, name)
}

// grantQueued grants queued waiters in FIFO order while they remain
// compatible with the holders, stopping at the first that is not (no
// overtaking, so writers are not starved). Caller holds s.mu.
func (s *stripe) grantQueued(name Name, ls *lockState) {
	for len(ls.queue) > 0 {
		w := ls.queue[0]
		compatible := true
		for _, h := range ls.holders {
			if h.txn == w.txn {
				continue
			}
			if !Compatible(h.mode, w.mode) {
				compatible = false
				break
			}
		}
		if !compatible {
			return
		}
		copy(ls.queue, ls.queue[1:])
		ls.queue = ls.queue[:len(ls.queue)-1]
		if w.upgrade {
			for i := range ls.holders {
				if ls.holders[i].txn == w.txn {
					ls.holders[i].mode = w.mode
					break
				}
			}
		} else {
			ls.holders = append(ls.holders, holder{txn: w.txn, mode: w.mode})
			s.addOwned(w.txn, name)
		}
		s.grants++
		w.dep = ls.depLSN
		// The waiter stops waiting now, not when its goroutine next runs:
		// edges left in the graph until then would let a third party close
		// a cycle through a transaction that is blocked on nothing.
		s.det.clear(w)
		w.ready <- struct{}{}
	}
}

// releaseLocked drops txn's hold on name (if any) and wakes newly
// grantable waiters. It does NOT maintain byTxn; callers do, because
// Unlock removes one entry while ReleaseAll consumes the whole list.
// depLSN, if nonzero, is raised onto the entry first (an early-lock-
// release commit tagging its dependency). Caller holds s.mu.
func (s *stripe) releaseLocked(txn wal.TxnID, name Name, depLSN, stable uint64) {
	ls, ok := s.locks[name]
	if !ok {
		return
	}
	if depLSN > ls.depLSN && depLSN >= stable {
		ls.depLSN = depLSN
	}
	for i := range ls.holders {
		if ls.holders[i].txn == txn {
			last := len(ls.holders) - 1
			ls.holders[i] = ls.holders[last]
			ls.holders = ls.holders[:last]
			break
		}
	}
	s.grantQueued(name, ls)
	// Whoever is still queued now waits on fewer transactions: the one
	// that released, and any waiter just granted in a compatible mode,
	// no longer block it. Re-derive their edges, or a later request by
	// one of those transactions would find a path back to itself through
	// a wait that ended here.
	s.rederive(ls.queue, ls)
	s.maybeFree(name, ls, stable)
}

// rederive replaces the waits-for edges of the given queued waiters of ls
// with their current blockers. Caller holds s.mu.
func (s *stripe) rederive(waiters []*waiter, ls *lockState) {
	for _, w := range waiters {
		s.det.set(w, ls.blockersOf(w))
	}
}

// detector owns the waits-for graph. It is consulted only when a request
// must block; grants and releases never touch it. Lock order:
// stripe.mu → detector.mu (the detector never calls into a stripe).
type detector struct {
	mu sync.Mutex
	// waitingOn maps a blocked transaction to the transactions it waits
	// for, for cycle detection.
	waitingOn map[wal.TxnID]map[wal.TxnID]struct{}
}

// blockOrDetect atomically checks whether blocking w on blockers would
// close a waits-for cycle, and if not, registers the edges. The
// registration and check are one critical section so that of two
// transactions concurrently completing a cycle, the second observes the
// first's edges and aborts. A wait made on behalf of a parent blocks the
// parent too: a path back to either closes a cycle, and both carry the
// edges, so a transaction waiting for the parent's locks reaches what the
// parent's atomic action waits for.
func (d *detector) blockOrDetect(w *waiter, blockers map[wal.TxnID]struct{}) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	seen := make(map[wal.TxnID]struct{})
	var visit func(t wal.TxnID) bool
	visit = func(t wal.TxnID) bool {
		if t == w.txn || t == w.parent { // no transaction has ID 0
			return true
		}
		if _, ok := seen[t]; ok {
			return false
		}
		seen[t] = struct{}{}
		for next := range d.waitingOn[t] {
			if visit(next) {
				return true
			}
		}
		return false
	}
	for b := range blockers {
		if visit(b) {
			return ErrDeadlock
		}
	}
	d.setLocked(w, blockers)
	return nil
}

// set replaces a still-blocked waiter's waits-for edges with its current
// blockers. No cycle check runs: a release only ends waits, and the one
// caller that adds edges — an upgrader jumping the queue — runs its own
// blockOrDetect next, which sees every cycle the new edges can close
// (they all lead to the upgrader).
func (d *detector) set(w *waiter, blockers map[wal.TxnID]struct{}) {
	d.mu.Lock()
	d.setLocked(w, blockers)
	d.mu.Unlock()
}

func (d *detector) setLocked(w *waiter, blockers map[wal.TxnID]struct{}) {
	d.waitingOn[w.txn] = blockers
	if w.parent != 0 {
		d.waitingOn[w.parent] = blockers
	}
}

// clear removes w's waits-for edges when its wait ends: the granter
// calls it, under the stripe mutex, at the moment of the grant.
func (d *detector) clear(w *waiter) {
	d.mu.Lock()
	delete(d.waitingOn, w.txn)
	if w.parent != 0 {
		delete(d.waitingOn, w.parent)
	}
	d.mu.Unlock()
}

// ownerShards is the size of the small hash table mapping a transaction
// to the bitmask of stripes it holds locks in.
const ownerShards = 16

type ownerShard struct {
	mu    sync.Mutex
	masks map[wal.TxnID]uint64
}

// Manager is the lock manager. It is safe for concurrent use.
type Manager struct {
	stripes    []stripe
	stripeMask uint64
	det        detector
	owners     [ownerShards]ownerShard

	// stable is the manager's view of the log's stable prefix (one past
	// the last durable byte), lifted by NoteStable. Dependencies at or
	// below it are already durable and never surface to acquirers.
	stable atomic.Uint64
}

// NoteStable lifts the manager's view of the log's stable prefix.
// Commit dependencies at or below lsn are durable: parked
// dependency-only entries below it become freeable and acquirers no
// longer inherit them.
func (m *Manager) NoteStable(lsn uint64) {
	for {
		cur := m.stable.Load()
		if lsn <= cur || m.stable.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// maxStripes bounds the stripe count: the per-transaction stripe mask is
// one uint64.
const maxStripes = 64

// stripeCount picks a power of two near GOMAXPROCS, at least 8 (so
// striping is exercised even on small machines) and at most maxStripes.
func stripeCount() int {
	n := runtime.GOMAXPROCS(0)
	c := 8
	for c < n && c < maxStripes {
		c <<= 1
	}
	return c
}

// NewManager returns an empty lock manager.
func NewManager() *Manager {
	n := stripeCount()
	m := &Manager{
		stripes:    make([]stripe, n),
		stripeMask: uint64(n - 1),
	}
	for i := range m.stripes {
		m.stripes[i].locks = make(map[Name]*lockState)
		m.stripes[i].byTxn = make(map[wal.TxnID][]Name)
		m.stripes[i].det = &m.det
	}
	m.det.waitingOn = make(map[wal.TxnID]map[wal.TxnID]struct{})
	for i := range m.owners {
		m.owners[i].masks = make(map[wal.TxnID]uint64)
	}
	return m
}

func (m *Manager) stripeIndex(name Name) uint64 {
	return name.stripeHash() & m.stripeMask
}

func (m *Manager) ownerShard(txn wal.TxnID) *ownerShard {
	return &m.owners[uint64(txn)&(ownerShards-1)]
}

// noteStripe marks stripe idx in txn's stripe mask. It is always called
// by the transaction's own goroutine (after its Lock/TryLock returns
// success), never while holding a stripe mutex, so the owner table never
// nests with stripe mutexes. ReleaseAll is ordered after every Lock call
// returns, so the bit is always set before it can matter.
func (m *Manager) noteStripe(txn wal.TxnID, idx uint64) {
	o := m.ownerShard(txn)
	o.mu.Lock()
	o.masks[txn] |= 1 << idx
	o.mu.Unlock()
}

// Lock acquires name in mode for txn, blocking until granted. Re-requests
// are upgrades: the transaction ends up holding the stronger of its
// current and requested modes. Lock returns ErrDeadlock if waiting would
// close a waits-for cycle; the transaction must then abort.
func (m *Manager) Lock(txn wal.TxnID, name Name, mode Mode) error {
	_, err := m.LockDep(txn, name, mode)
	return err
}

// LockDep is Lock returning, additionally, the lock's commit-dependency
// LSN: nonzero when an early-lock-release committer released this lock
// while its commit record (at that LSN) was not yet stable. The caller
// can now observe that committer's state and must not acknowledge its
// own commit before the dependency is stable. Dependencies the stable
// prefix already covers are filtered to zero.
func (m *Manager) LockDep(txn wal.TxnID, name Name, mode Mode) (uint64, error) {
	return m.LockFor(txn, 0, name, mode)
}

// LockFor is LockDep for a transaction whose wait also blocks parent: an
// atomic action started on a user transaction's goroutine, which cannot
// run again until the action's lock is granted. While txn waits, parent
// carries the same waits-for edges (cleared with txn's when the wait
// ends), so a cycle that closes through the locks parent holds is
// detected; the victim is whichever request completes the cycle, and it
// gets ErrDeadlock as usual. A zero parent is plain LockDep.
func (m *Manager) LockFor(txn, parent wal.TxnID, name Name, mode Mode) (uint64, error) {
	idx := m.stripeIndex(name)
	s := &m.stripes[idx]
	s.mu.Lock()
	ls := s.getState(name)

	cur, held := ls.holderMode(txn)
	if held && !stronger(mode, cur) {
		dep := ls.depLSN
		s.mu.Unlock()
		return m.filterDep(dep), nil // already held at sufficient strength
	}
	if ls.poisoned {
		s.mu.Unlock()
		return 0, ErrPoisoned
	}

	// Fast path: grantable immediately — no waiter, no channel, no
	// detector involvement.
	if ls.grantableNow(txn, mode, held) {
		if held {
			for i := range ls.holders {
				if ls.holders[i].txn == txn {
					ls.holders[i].mode = mode
					break
				}
			}
		} else {
			ls.holders = append(ls.holders, holder{txn: txn, mode: mode})
			s.addOwned(txn, name)
		}
		s.grants++
		dep := ls.depLSN
		s.mu.Unlock()
		if !held {
			m.noteStripe(txn, idx)
		}
		return m.filterDep(dep), nil
	}

	// Slow path: enqueue, then consult the deadlock detector before
	// blocking. Upgrades go to the head of the queue: the holder already
	// excludes conflicting newcomers, and queue-jumping bounds the
	// promotion wait.
	w := &waiter{txn: txn, parent: parent, mode: mode, upgrade: held, ready: make(chan struct{}, 1)}
	if held {
		ls.queue = append(ls.queue, nil)
		copy(ls.queue[1:], ls.queue)
		ls.queue[0] = w
	} else {
		ls.queue = append(ls.queue, w)
	}

	if held {
		// The upgrader now blocks every waiter it jumped, including ones
		// its held mode never conflicted with. Give them that edge before
		// the cycle check, or a cycle closed through the upgrader — a
		// jumped waiter that one of the upgrader's blockers waits for —
		// is never seen, and no later event re-checks it.
		s.rederive(ls.queue[1:], ls)
	}
	blockers := ls.blockersOf(w)
	if err := m.det.blockOrDetect(w, blockers); err != nil {
		ls.removeWaiter(w)
		if held {
			s.rederive(ls.queue, ls) // the victim no longer queues ahead of them
		}
		s.deadlocks++
		s.maybeFree(name, ls, m.stable.Load())
		s.mu.Unlock()
		return 0, err
	}
	s.waits++
	s.mu.Unlock()

	<-w.ready
	if w.err != nil {
		return 0, w.err
	}
	if !held {
		m.noteStripe(txn, idx)
	}
	return m.filterDep(w.dep), nil
}

// filterDep drops a dependency the stable prefix already covers.
func (m *Manager) filterDep(dep uint64) uint64 {
	if dep != 0 && dep < m.stable.Load() {
		return 0
	}
	return dep
}

// TryLock acquires name in mode for txn only if that needs no waiting, and
// reports whether it did (or already held it strongly enough). Unlike
// Lock, a TryLock upgrade does not jump a non-empty queue: it simply
// fails, preserving the queue's no-overtaking guarantee.
func (m *Manager) TryLock(txn wal.TxnID, name Name, mode Mode) bool {
	_, ok := m.TryLockDep(txn, name, mode)
	return ok
}

// TryLockDep is TryLock returning, additionally, the lock's
// commit-dependency LSN on success (see LockDep).
func (m *Manager) TryLockDep(txn wal.TxnID, name Name, mode Mode) (uint64, bool) {
	idx := m.stripeIndex(name)
	s := &m.stripes[idx]
	s.mu.Lock()
	ls, ok := s.locks[name]
	if !ok {
		ls = s.takeState()
		s.locks[name] = ls
		ls.holders = append(ls.holders, holder{txn: txn, mode: mode})
		s.addOwned(txn, name)
		s.grants++
		s.mu.Unlock()
		m.noteStripe(txn, idx)
		return 0, true
	}
	cur, held := ls.holderMode(txn)
	if held && !stronger(mode, cur) {
		dep := ls.depLSN
		s.mu.Unlock()
		return m.filterDep(dep), true
	}
	if ls.poisoned || len(ls.queue) > 0 {
		s.mu.Unlock()
		return 0, false
	}
	for _, h := range ls.holders {
		if h.txn != txn && !Compatible(h.mode, mode) {
			s.mu.Unlock()
			return 0, false
		}
	}
	if held {
		for i := range ls.holders {
			if ls.holders[i].txn == txn {
				ls.holders[i].mode = mode
				break
			}
		}
		s.grants++
		dep := ls.depLSN
		s.mu.Unlock()
		return m.filterDep(dep), true
	}
	ls.holders = append(ls.holders, holder{txn: txn, mode: mode})
	s.addOwned(txn, name)
	s.grants++
	dep := ls.depLSN
	s.mu.Unlock()
	m.noteStripe(txn, idx)
	return m.filterDep(dep), true
}

// TryLockDepBatch acquires names in order for txn, stopping at the first
// name that would need waiting. Names mapping to the same stripe are
// granted under one acquisition of that stripe's mutex, so a sorted key
// batch whose record locks hash together pays one lock-manager
// interaction instead of one per key. Returns the maximum
// commit-dependency LSN across the granted names and the index of the
// first failure (-1 when every name was granted). Granted names are NOT
// rolled back on failure — the caller is two-phase and keeps them; a
// retry finds them on the already-held fast path.
//
// Each name is hashed once: the batch is taken in chunks of batchChunk
// names, and within a chunk every stripe's names are chained in batch
// order on the stack, so the pass costs O(len(names)) and allocates
// nothing.
func (m *Manager) TryLockDepBatch(txn wal.TxnID, names []Name, mode Mode) (uint64, int) {
	var maxDep uint64
	for base := 0; base < len(names); base += batchChunk {
		dep, fail := m.tryLockChunk(txn, names[base:min(base+batchChunk, len(names))], mode)
		maxDep = max(maxDep, dep)
		if fail >= 0 {
			return m.filterDep(maxDep), base + fail
		}
	}
	return m.filterDep(maxDep), -1
}

// batchChunk is the most names tryLockChunk takes.
const batchChunk = 256

// tryLockChunk is TryLockDepBatch over at most batchChunk names: one
// stripe at a time, in the order of each stripe's first name, the
// stripe's names in batch order under one hold of its mutex, stopping at
// the stripe's first name that would wait. The returned dep is
// unfiltered.
func (m *Manager) tryLockChunk(txn wal.TxnID, names []Name, mode Mode) (uint64, int) {
	// next[j] is 1 + the index of the next name in j's stripe (0: none);
	// last[s] is 1 + the index of stripe s's latest name so far; heads
	// lists each stripe's first name, in batch order.
	var next [batchChunk]uint16
	var last [maxStripes]uint16
	var heads [maxStripes]uint16
	nheads := 0
	for j := range names {
		idx := m.stripeIndex(names[j])
		if last[idx] == 0 {
			heads[nheads] = uint16(j)
			nheads++
		} else {
			next[last[idx]-1] = uint16(j + 1)
		}
		last[idx] = uint16(j + 1)
	}
	var maxDep uint64
	for _, h := range heads[:nheads] {
		idx := m.stripeIndex(names[h])
		s := &m.stripes[idx]
		newHold := false
		fail := -1
		s.mu.Lock()
		for j := int(h); ; {
			dep, granted, fresh := s.tryGrantLocked(txn, names[j], mode)
			if !granted {
				fail = j
				break
			}
			newHold = newHold || fresh
			maxDep = max(maxDep, dep)
			if next[j] == 0 {
				break
			}
			j = int(next[j]) - 1
		}
		s.mu.Unlock()
		// noteStripe only after dropping the stripe mutex (owner-table
		// discipline: it never nests with stripe mutexes).
		if newHold {
			m.noteStripe(txn, idx)
		}
		if fail >= 0 {
			return maxDep, fail
		}
	}
	return maxDep, -1
}

// tryGrantLocked is TryLockDep's grant logic for one name, run under the
// owning stripe's mutex. fresh reports that txn gained a hold it did not
// have before (the caller must noteStripe after unlocking). The returned
// dep is unfiltered.
func (s *stripe) tryGrantLocked(txn wal.TxnID, name Name, mode Mode) (dep uint64, granted, fresh bool) {
	ls, ok := s.locks[name]
	if !ok {
		ls = s.takeState()
		s.locks[name] = ls
		ls.holders = append(ls.holders, holder{txn: txn, mode: mode})
		s.addOwned(txn, name)
		s.grants++
		return 0, true, true
	}
	cur, held := ls.holderMode(txn)
	if held && !stronger(mode, cur) {
		return ls.depLSN, true, false
	}
	if ls.poisoned || len(ls.queue) > 0 {
		return 0, false, false
	}
	for _, h := range ls.holders {
		if h.txn != txn && !Compatible(h.mode, mode) {
			return 0, false, false
		}
	}
	if held {
		for i := range ls.holders {
			if ls.holders[i].txn == txn {
				ls.holders[i].mode = mode
				break
			}
		}
		s.grants++
		return ls.depLSN, true, false
	}
	ls.holders = append(ls.holders, holder{txn: txn, mode: mode})
	s.addOwned(txn, name)
	s.grants++
	return ls.depLSN, true, true
}

// Unlock releases txn's hold on name before transaction end. Only safe
// for locks that are not needed for two-phase correctness (e.g. test
// scaffolding); transactions normally use ReleaseAll at commit or abort.
func (m *Manager) Unlock(txn wal.TxnID, name Name) {
	s := &m.stripes[m.stripeIndex(name)]
	s.mu.Lock()
	if ns, ok := s.byTxn[txn]; ok {
		for i := range ns {
			if ns[i] == name {
				last := len(ns) - 1
				ns[i] = ns[last]
				ns = ns[:last]
				break
			}
		}
		if len(ns) == 0 {
			delete(s.byTxn, txn)
			s.recycleNames(ns)
		} else {
			s.byTxn[txn] = ns
		}
	}
	st := m.stable.Load()
	s.sweepPending(st, sweepBase)
	s.releaseLocked(txn, name, 0, st)
	s.mu.Unlock()
	// The stripe-mask bit stays set; ReleaseAll tolerates stripes with no
	// remaining entries.
}

// ReleaseAll releases every lock txn holds, at commit or abort. It visits
// only the stripes the transaction used, guided by its stripe mask.
func (m *Manager) ReleaseAll(txn wal.TxnID) {
	m.releaseAll(txn, 0)
}

// ReleaseAllAt is ReleaseAll for an early-lock-release commit: the
// transaction's locks are released while its commit record (at
// commitLSN) is still only in the log buffer, and every released
// entry's depLSN high water is raised to commitLSN. Later acquirers
// inherit the dependency and must not be acknowledged before commitLSN
// is stable.
func (m *Manager) ReleaseAllAt(txn wal.TxnID, commitLSN uint64) {
	m.releaseAll(txn, commitLSN)
}

func (m *Manager) releaseAll(txn wal.TxnID, depLSN uint64) {
	o := m.ownerShard(txn)
	o.mu.Lock()
	mask := o.masks[txn]
	delete(o.masks, txn)
	o.mu.Unlock()

	st := m.stable.Load()
	for mask != 0 {
		idx := bits.TrailingZeros64(mask)
		mask &^= 1 << idx
		s := &m.stripes[idx]
		s.mu.Lock()
		s.sweepPending(st, sweepBase+2*len(s.byTxn[txn]))
		if ns, ok := s.byTxn[txn]; ok {
			delete(s.byTxn, txn)
			s.keep = len(ns)
			for _, name := range ns {
				s.releaseLocked(txn, name, depLSN, st)
			}
			if k := max(maxFreeStates, s.keep); len(s.freeStates) > k {
				clear(s.freeStates[k:])
				s.freeStates = s.freeStates[:k]
			}
			s.recycleNames(ns)
		}
		s.mu.Unlock()
	}
}

// Poison is for a transaction that can neither commit nor roll back — its
// rollback failed, and restart undo will finish it. Its locks are not
// released: that would expose its uncommitted, partly undone writes.
// Instead every lock it holds is poisoned: the waiters queued on one are
// woken with ErrPoisoned, and every later request for one fails with it
// unless the requester already holds the lock strongly enough. Nobody
// parks on a lock that will never be released.
func (m *Manager) Poison(txn wal.TxnID) {
	o := m.ownerShard(txn)
	o.mu.Lock()
	mask := o.masks[txn]
	o.mu.Unlock()
	for mask != 0 {
		idx := bits.TrailingZeros64(mask)
		mask &^= 1 << idx
		s := &m.stripes[idx]
		s.mu.Lock()
		for _, name := range s.byTxn[txn] {
			ls := s.locks[name]
			ls.poisoned = true
			for _, w := range ls.queue {
				w.err = ErrPoisoned
				s.det.clear(w)
				w.ready <- struct{}{}
			}
			ls.queue = ls.queue[:0]
		}
		s.mu.Unlock()
	}
}

// HeldMode returns the mode txn holds on name, if any.
func (m *Manager) HeldMode(txn wal.TxnID, name Name) (Mode, bool) {
	s := &m.stripes[m.stripeIndex(name)]
	s.mu.Lock()
	defer s.mu.Unlock()
	ls, ok := s.locks[name]
	if !ok {
		return 0, false
	}
	return ls.holderMode(txn)
}

// MoveLocked reports whether ANY transaction holds a move lock on name. A
// traversal that crosses a sibling pointer calls this to honor "a
// transaction encountering a move lock ... does not schedule an index
// posting" (§4.2.2). The rule applies even to the moving transaction's
// own traversals: the posting must wait for its commit regardless of who
// notices the unposted sibling.
func (m *Manager) MoveLocked(name Name) bool {
	s := &m.stripes[m.stripeIndex(name)]
	s.mu.Lock()
	defer s.mu.Unlock()
	ls, ok := s.locks[name]
	if !ok {
		return false
	}
	for _, h := range ls.holders {
		if h.mode == MV {
			return true
		}
	}
	return false
}

// HeldCount returns how many locks txn currently holds.
func (m *Manager) HeldCount(txn wal.TxnID) int {
	o := m.ownerShard(txn)
	o.mu.Lock()
	mask := o.masks[txn]
	o.mu.Unlock()

	total := 0
	for mask != 0 {
		idx := bits.TrailingZeros64(mask)
		mask &^= 1 << idx
		s := &m.stripes[idx]
		s.mu.Lock()
		total += len(s.byTxn[txn])
		s.mu.Unlock()
	}
	return total
}

// PendingDeps returns how many dependency-only lock entries are parked
// awaiting stability, across all stripes (observability and tests).
func (m *Manager) PendingDeps() int {
	total := 0
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		total += len(s.pending) - s.pendHead
		s.mu.Unlock()
	}
	return total
}

// Stats returns the number of blocking waits and detected deadlocks.
func (m *Manager) Stats() (waits, deadlocks int64) {
	st := m.StatsSnapshot()
	return st.Waits, st.Deadlocks
}

// Grants returns the total number of lock grants so far; deltas around a
// workload demonstrate whether a code path locks at all.
func (m *Manager) Grants() int64 { return m.StatsSnapshot().Grants }

// StripeStats is one stripe's counters.
type StripeStats struct {
	Locks  int // live lock-table entries at snapshot time
	Waits  int64
	Grants int64
}

// ManagerStats is a consistent-enough snapshot of the manager's counters
// for observability; each stripe is sampled under its own mutex.
type ManagerStats struct {
	Stripes   int
	Waits     int64
	Deadlocks int64
	Grants    int64
	PerStripe []StripeStats
}

// StatsSnapshot samples every stripe's counters.
func (m *Manager) StatsSnapshot() ManagerStats {
	st := ManagerStats{
		Stripes:   len(m.stripes),
		PerStripe: make([]StripeStats, len(m.stripes)),
	}
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		st.PerStripe[i] = StripeStats{Locks: len(s.locks), Waits: s.waits, Grants: s.grants}
		st.Waits += s.waits
		st.Deadlocks += s.deadlocks
		st.Grants += s.grants
		s.mu.Unlock()
	}
	return st
}
