// Package txn provides database transactions and the paper's atomic
// actions (§4, §4.3).
//
// An atomic action is a short, independent unit of structure change with
// the all-or-nothing property. The paper lists three ways to identify one
// to the recovery manager (§4.3.2): a separate database transaction, a
// special system transaction, or a nested top-level action. This package
// implements two of them:
//
//   - BeginAtomicAction starts a system transaction (FlagSystem in the
//     log). Its commit does not force the log — atomic actions are only
//     "relatively" durable (§4.3.1): the first dependent user commit
//     forces the log and makes them durable too.
//   - (*Txn).BeginNested starts a nested top-level action inside a user
//     transaction; CommitNested writes a dummy CLR that backs the undo
//     chain over the NTA's records so a later abort of the enclosing
//     transaction does not undo them.
//
// Rollback walks the transaction's undo chain, writing compensation log
// records (CLRs) that are themselves redo-only, so restart never undoes
// an undo.
package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Crash-trigger failpoints owned by the transaction layer. Both are
// probed just before the commit record is appended, so a crash there
// leaves the transaction's updates in the log with no commit record —
// the classic "crashed mid-commit" state (mid-SMO, for an atomic
// action wrapping a structure modification). Fault kinds are ignored
// at these points; only the crash latch matters.
const (
	// FPAACommit fires at the start of an atomic action's commit.
	FPAACommit = "txn.aacommit"
	// FPUserCommit fires at the start of a user transaction's commit,
	// before the commit record is appended and forced.
	FPUserCommit = "txn.usercommit"
	// FPELR fires after an early-lock-release commit has published its
	// locks (dependents can already see its state) but before its commit
	// record is stable — the window where a crash must not produce an
	// acked-but-lost commit or a dependent ack over lost state.
	FPELR = "txn.elr"
)

// State is a transaction's lifecycle state.
type State int

const (
	// Active transactions may log updates.
	Active State = iota
	// Committed transactions have a commit record in the log.
	Committed
	// Aborted transactions have been fully rolled back.
	Aborted
	// Doomed transactions failed to roll back. They stay in the table, as
	// losers for the next restart's undo to finish, and keep their locks,
	// poisoned (lock.Manager.Poison).
	Doomed
)

// ErrNotActive reports an operation on a finished transaction.
var ErrNotActive = errors.New("txn: transaction not active")

// ErrDoomed reports a rollback that failed: the transaction is Doomed and
// the engine degraded — the error wraps the log's failure sentinel.
var ErrDoomed = fmt.Errorf("txn: rollback failed, restart undo finishes the transaction: %w", wal.ErrLogFailed)

// Options configure a Manager.
type Options struct {
	// ForceOnAACommit disables relative durability: every atomic-action
	// commit forces the log. Experiment T12 measures what that costs.
	ForceOnAACommit bool
}

// Manager creates transactions and atomic actions over one log.
type Manager struct {
	Log    *wal.Log
	Locks  *lock.Manager
	Reg    *storage.Registry
	opts   Options
	inj    *fault.Injector // set once before concurrent use; may be nil
	mu     sync.Mutex
	nextID wal.TxnID
	active map[wal.TxnID]*Txn

	// Version-clock hooks and snapshot state (snapshot.go). clockNow and
	// clockTick are set by SetVersionClock before concurrent use; snaps is
	// the live-snapshot registry; recoveredHW is the clock high water
	// installed by restart analysis.
	clockNow    func() uint64
	clockTick   func() uint64
	snapSeq     uint64
	snaps       map[uint64]*Snapshot
	recoveredHW uint64
	oldestTS    atomic.Uint64 // oldest live snapshot ts; 0 = none
	stableTS    atomic.Uint64 // newest forced user-commit ts
}

// SetInjector attaches a fault injector whose txn.aacommit and
// txn.usercommit crash points are probed on the commit paths. Must be
// called before the manager is used concurrently.
func (m *Manager) SetInjector(inj *fault.Injector) { m.inj = inj }

// NewManager returns a manager writing to log, locking through lm and
// undoing through reg.
func NewManager(log *wal.Log, lm *lock.Manager, reg *storage.Registry, opts Options) *Manager {
	return &Manager{
		Log:    log,
		Locks:  lm,
		Reg:    reg,
		opts:   opts,
		nextID: 1,
		active: make(map[wal.TxnID]*Txn),
	}
}

// Txn is a database transaction or an atomic action.
type Txn struct {
	ID     wal.TxnID
	System bool // true for atomic actions

	mgr     *Manager
	mu      sync.Mutex
	lastLSN wal.LSN
	// firstLSN is the first record the transaction logged — it has no begin
	// record; no record of it precedes this one, so it floors both the WAL
	// recycle horizon and the in-memory log (LogFloor). Two values are not
	// LSNs: noRecord until the transaction logs anything (it pins nothing),
	// and NilLSN — "pin everything" — for an adopted restart loser, whose
	// origin is unknown, and while the first append is in flight (logLocked
	// publishes it before appending, so a floor computed meanwhile cannot
	// pass the record). Atomic so LogFloor can scan the table under m.mu
	// alone; written under t.mu.
	firstLSN atomic.Uint64
	state    State
	// beginClock is the version clock observed when the transaction began
	// (under m.mu, so it orders against snapshot capture); every version
	// the transaction writes has a strictly larger start time. Adopted
	// losers keep 0, conservatively pinning the GC horizon during
	// restart undo.
	beginClock uint64
	// committing is set while the commit record is being appended outside
	// t.mu; SnapshotATT waits it out so a checkpoint's ATT entry never
	// misses a commit record that landed below the checkpoint's StartLSN.
	committing bool
	onCommit   []func()
	// depLSN is the highest commit LSN of any early-released lock this
	// transaction acquired: its commit dependency. Commit holds the ack
	// until the stable prefix covers it. Only the owning goroutine
	// touches it (lock acquisition and commit), so it needs no lock.
	depLSN uint64
	// tracker records the latches held by the operation that called
	// AbortHeld or CommitHeld; only the aborting goroutine touches it.
	tracker *latch.Tracker
}

// OnCommit registers fn to run after the transaction commits and its locks
// are released. Aborted transactions never run their hooks. The Π-tree uses this to defer index-term posting for
// in-transaction data-node splits until the split is durable (§4.2.2:
// "the posting of the index term for splits cannot occur until and unless
// T commits").
func (t *Txn) OnCommit(fn func()) {
	t.mu.Lock()
	t.onCommit = append(t.onCommit, fn)
	t.mu.Unlock()
}

// noRecord is the firstLSN of a transaction that has logged nothing.
const noRecord = ^uint64(0)

// begin registers a transaction. It logs nothing: the first record the
// transaction appends, with a nil PrevLSN, is what restart sees begin.
func (m *Manager) begin(system bool) *Txn {
	m.mu.Lock()
	id := m.nextID
	m.nextID++
	t := &Txn{ID: id, System: system, mgr: m, beginClock: m.clockNowLocked()}
	t.firstLSN.Store(noRecord)
	m.active[id] = t
	m.mu.Unlock()
	return t
}

// Begin starts a user database transaction.
func (m *Manager) Begin() *Txn { return m.begin(false) }

// BeginAtomicAction starts an atomic action as a system transaction. It
// is independent of any database transaction, holds only short-duration
// latches (and, for consolidation, short two-phase locks), and its commit
// relies on relative durability.
func (m *Manager) BeginAtomicAction() *Txn { return m.begin(true) }

// Lookup returns the active transaction with the given ID.
func (m *Manager) Lookup(id wal.TxnID) (*Txn, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.active[id]
	return t, ok
}

// ActiveCount returns the number of unfinished transactions.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// ATTEntry is a snapshot row of the active-transaction table, taken for
// fuzzy checkpoints.
type ATTEntry struct {
	ID       wal.TxnID
	LastLSN  wal.LSN
	FirstLSN wal.LSN // first record of this txn; NilLSN = unknown (adopted loser)
	System   bool
}

// SnapshotATT returns the live transaction table for a fuzzy checkpoint:
// every transaction that has logged something and has no commit record.
// It waits out any in-flight commit-record append so each entry is
// consistent with the log contents. A transaction that has logged nothing
// is left out — whatever it logs later lands above the checkpoint's
// StartLSN, where analysis finds it — and so is one whose commit record is
// in the log: analysis is done with a transaction at its commit record.
func (m *Manager) SnapshotATT() []ATTEntry {
	m.mu.Lock()
	txns := make([]*Txn, 0, len(m.active))
	for _, t := range m.active {
		txns = append(txns, t)
	}
	m.mu.Unlock()
	out := make([]ATTEntry, 0, len(txns))
	for _, t := range txns {
		t.mu.Lock()
		for t.committing {
			t.mu.Unlock()
			runtime.Gosched()
			t.mu.Lock()
		}
		if first := t.firstLSN.Load(); first != noRecord && t.state != Committed {
			out = append(out, ATTEntry{ID: t.ID, LastLSN: t.lastLSN, FirstLSN: wal.LSN(first), System: t.System})
		}
		t.mu.Unlock()
	}
	return out
}

// LogFloor returns the lowest LSN normal processing may still read from
// the log buffer: the first record of the oldest unfinished transaction
// (rollback walks a transaction's chain no further back), or the log's
// end when none has logged anything. NilLSN — keep everything — while any
// transaction's first record is unknown (its append in flight, or an
// adopted restart loser). The engine hands it to wal.Log.ReleaseBelow.
func (m *Manager) LogFloor() wal.LSN {
	// Read the end before the table: a transaction this scan misses, or
	// finds with nothing logged yet, appends its first record after the
	// read, so at or above this end.
	floor := m.Log.EndLSN()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range m.active {
		first := wal.LSN(t.firstLSN.Load())
		if first == wal.NilLSN {
			return wal.NilLSN
		}
		if first < floor { // never true of noRecord
			floor = first
		}
	}
	return floor
}

// Adopt registers a reconstructed loser transaction during restart so
// that undo can drive it through the normal rollback path.
func (m *Manager) Adopt(id wal.TxnID, system bool, lastLSN wal.LSN) *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id >= m.nextID {
		m.nextID = id + 1
	}
	// Adopted losers keep firstLSN NilLSN, "unknown": restart never
	// recycles segments, so the conservative floor is harmless — and it
	// keeps every record the loser's rollback will read in the log buffer.
	t := &Txn{ID: id, System: system, mgr: m, lastLSN: lastLSN}
	m.active[id] = t
	return t
}

// LastLSN returns the most recent log record of this transaction.
func (t *Txn) LastLSN() wal.LSN {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastLSN
}

// State returns the transaction's lifecycle state.
func (t *Txn) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// flags returns the record flags for this transaction.
func (t *Txn) flags() wal.Flags {
	if t.System {
		return wal.FlagSystem
	}
	return 0
}

// LogUpdate appends a physiological update record for the page f buffers,
// in this transaction's undo chain and in the page's own, marks f dirty at
// it (logPage) and returns its LSN. It implements storage.UpdateLogger.
// The caller holds f's X latch and applies the matching page change under
// it.
func (t *Txn) LogUpdate(f *storage.Frame, kind wal.Kind, payload []byte) wal.LSN {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != Active {
		panic(fmt.Sprintf("txn %d: LogUpdate in state %d", t.ID, t.state))
	}
	return logPage(f, t.logLocked(pageRecord(wal.RecUpdate, f, kind, payload)))
}

// pageRecord is a record of type typ, kind and payload addressed to the
// page f buffers, chained to the page's last record; a nil f addresses no
// page.
func pageRecord(typ wal.RecType, f *storage.Frame, kind wal.Kind, payload []byte) *wal.Record {
	r := &wal.Record{Type: typ, Kind: kind, Payload: payload}
	if f != nil {
		r.StoreID, r.PageID, r.PagePrev = f.StoreID(), uint64(f.ID), f.PageLSN()
	}
	return r
}

// logPage advances the X-latched page f past the record just logged at
// lsn for it, and returns lsn. It is the page chain's one rule: a record
// names the pageLSN f carried when it was built (pageRecord), so f must
// carry lsn before the next record of the page is built, and each record
// counts once in the page's chain. A nil f (a record of no page) is left.
func logPage(f *storage.Frame, lsn wal.LSN) wal.LSN {
	if f != nil {
		f.MarkDirty(lsn)
	}
	return lsn
}

// logLocked appends rec as the next record of the transaction's chain —
// it fills in the transaction's ID, flags and PrevLSN — and returns its
// LSN. The caller holds t.mu.
func (t *Txn) logLocked(rec *wal.Record) wal.LSN {
	rec.TxnID, rec.Flags, rec.PrevLSN = t.ID, t.flags(), t.lastLSN
	first := t.pendFirst()
	t.lastLSN = t.mgr.Log.Append(rec)
	if first {
		t.firstLSN.Store(uint64(t.lastLSN))
	}
	return t.lastLSN
}

// pendFirst reports whether the transaction has logged nothing yet, and if
// so marks its first record as in flight: until the caller stores the
// record's LSN, LogFloor keeps everything. The caller holds t.mu.
func (t *Txn) pendFirst() bool {
	if t.firstLSN.Load() != noRecord {
		return false
	}
	t.firstLSN.Store(uint64(wal.NilLSN))
	return true
}

// GroupUpdate is one update in a LogUpdateGroup batch.
type GroupUpdate struct {
	Kind    wal.Kind
	Payload []byte
}

// LogUpdateGroup appends one physiological update record per entry of ups
// — all against the page f buffers — as a single reserved-slot group
// append: one t.mu hold, one log reservation, one publication handshake.
// The records chain through this transaction's undo chain and the page's
// exactly as if logged one at a time (AppendGroup rewrites the intra-group
// PrevLSNs and PagePrevs), so undo and redo stay per-record. It marks f
// dirty at the group (MarkDirtyGroup: a clean page's recLSN covers the
// group's first record, pageLSN advances to its last, and each record
// counts in the page's chain) and returns the first and last record LSNs.
// The caller holds f's X latch. No-op returning the current lastLSN twice
// for an empty batch.
func (t *Txn) LogUpdateGroup(f *storage.Frame, ups []GroupUpdate) (first, last wal.LSN) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != Active {
		panic(fmt.Sprintf("txn %d: LogUpdateGroup in state %d", t.ID, t.state))
	}
	if len(ups) == 0 {
		return t.lastLSN, t.lastLSN
	}
	recs := make([]*wal.Record, len(ups))
	for i := range ups {
		recs[i] = pageRecord(wal.RecUpdate, f, ups[i].Kind, ups[i].Payload)
		recs[i].TxnID, recs[i].Flags = t.ID, t.flags()
	}
	recs[0].PrevLSN = t.lastLSN
	isFirst := t.pendFirst()
	lsn := t.mgr.Log.AppendGroup(recs)
	if isFirst {
		t.firstLSN.Store(uint64(recs[0].LSN))
	}
	t.lastLSN = lsn
	f.MarkDirtyGroup(recs[0].LSN, lsn, len(recs))
	return recs[0].LSN, lsn
}

// LogCLR appends a compensation record in this transaction's chain with
// the given undo-next pointer, addressed to the page f buffers (nil for
// none), marks f dirty at it (logPage) and returns its LSN. Logical undo
// handlers use it: they apply the compensating change to whatever page the
// data lives on now (under that page's X latch) and log it here; undoNext
// must be the PrevLSN of the record being compensated so restart never
// repeats the undo.
func (t *Txn) LogCLR(f *storage.Frame, kind wal.Kind, payload []byte, undoNext wal.LSN) wal.LSN {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := pageRecord(wal.RecCLR, f, kind, payload)
	r.UndoNext = undoNext
	return logPage(f, t.logLocked(r))
}

// Lock acquires a database lock for this transaction; see lock.Manager.
// Callers must obey the No-Wait rule: release any latch that can conflict
// with a database-lock holder before calling. A lock released early by a
// committing writer carries that writer's commit LSN; acquiring it makes
// this transaction commit-dependent on it.
func (t *Txn) Lock(name lock.Name, mode lock.Mode) error {
	return t.LockFor(nil, name, mode)
}

// LockFor is Lock called on the goroutine of another transaction: parent
// cannot proceed until this one's lock is granted (an atomic action run
// inside a user transaction's operation), so the deadlock detector must
// see parent waiting too — see lock.Manager.LockFor. A nil parent, or t
// itself, is plain Lock.
func (t *Txn) LockFor(parent *Txn, name lock.Name, mode lock.Mode) error {
	var pid wal.TxnID
	if parent != nil && parent != t {
		pid = parent.ID
	}
	dep, err := t.mgr.Locks.LockFor(t.ID, pid, name, mode)
	if dep > t.depLSN {
		t.depLSN = dep
	}
	return err
}

// TryLock acquires a database lock only if no waiting is needed.
func (t *Txn) TryLock(name lock.Name, mode lock.Mode) bool {
	dep, ok := t.mgr.Locks.TryLockDep(t.ID, name, mode)
	if ok && dep > t.depLSN {
		t.depLSN = dep
	}
	return ok
}

// TryLockBatch acquires every name in names (in order, under one
// lock-manager interaction per stripe) only where no waiting is needed.
// Returns the index of the first name that would have to wait, or -1 when
// all were granted. Granted locks are kept either way (two-phase); on
// failure the caller typically releases its latches, blocks on the failed
// name with Lock, and retries the operation.
func (t *Txn) TryLockBatch(names []lock.Name, mode lock.Mode) int {
	dep, fail := t.mgr.Locks.TryLockDepBatch(t.ID, names, mode)
	if dep > t.depLSN {
		t.depLSN = dep
	}
	return fail
}

// Commit makes the transaction's effects permanent. User commits force
// the log through the group-commit path (durability promise to the
// user); atomic-action commits do not force at all — relative durability
// (§4.3.1) — unless the manager was configured with ForceOnAACommit.
func (t *Txn) Commit() error {
	t.mu.Lock()
	if t.state != Active {
		t.mu.Unlock()
		return ErrNotActive
	}
	// Read-only fast path: a transaction that logged nothing has nothing
	// to make durable and nothing for restart to see — committing it is
	// just releasing its locks. Skipping the commit record and the group
	// force matters beyond the transaction itself: read-only 2PL
	// transactions would otherwise ride (and subsidize) the writers'
	// group-commit rounds. The one exception is a commit dependency: a
	// reader that observed early-released state must not be acknowledged
	// until the writer's commit record is stable, even though it has no
	// record of its own to force.
	if t.lastLSN == wal.NilLSN {
		t.state = Committed
		hooks := t.onCommit
		t.onCommit = nil
		dep := t.depLSN
		t.mu.Unlock()
		t.mgr.Locks.ReleaseAll(t.ID)
		if dep != 0 {
			if err := t.mgr.Log.ForceGroup(wal.LSN(dep)); err != nil {
				// The observed writer's commit can never become stable;
				// this reader's result must not be acknowledged either.
				t.mu.Lock()
				t.state = Aborted
				t.mu.Unlock()
				t.mgr.mu.Lock()
				delete(t.mgr.active, t.ID)
				t.mgr.mu.Unlock()
				return fmt.Errorf("txn %d: commit depends on unstable LSN %d: %w", t.ID, dep, err)
			}
			t.mgr.Locks.NoteStable(uint64(t.mgr.Log.StableLSN()))
		}
		t.mgr.mu.Lock()
		delete(t.mgr.active, t.ID)
		t.mgr.mu.Unlock()
		for _, fn := range hooks {
			fn()
		}
		return nil
	}
	// Crash-trigger probes: a crash here leaves every update logged but
	// no commit record, the state recovery must roll back.
	if t.System {
		_ = t.mgr.inj.Check(FPAACommit)
	} else {
		_ = t.mgr.inj.Check(FPUserCommit)
	}
	// Append the commit record outside t.mu: the append may stall behind
	// concurrent appenders, and t.mu must stay cheap to take. committing
	// makes the window visible to SnapshotATT, which needs (lastLSN,
	// Committed) consistent with the log when it builds a checkpoint.
	t.committing = true
	prev := t.lastLSN
	t.mu.Unlock()

	// Stamp the commit record with a fresh version-clock tick: the commit
	// timestamp. It is strictly above every version start this transaction
	// wrote (version starts are also ticks, taken earlier), so restart
	// analysis can reconstruct the clock high water from commit records
	// alone — every surviving version belongs to a stamped committer, and
	// losers' versions are removed by undo. Atomic actions are stamped too:
	// their commits cover the time-split boundaries they cut. The stamp is
	// a uvarint (log format 7).
	var cts uint64
	var payload []byte
	if tick := t.mgr.clockTick; tick != nil {
		cts = tick()
		payload = binary.AppendUvarint(nil, cts)
	}
	lsn := t.mgr.Log.Append(&wal.Record{Type: wal.RecCommit, Flags: t.flags(), TxnID: t.ID, PrevLSN: prev, Payload: payload})
	t.mu.Lock()
	t.lastLSN = lsn
	t.state = Committed
	t.committing = false
	t.mu.Unlock()

	if !t.System || t.mgr.opts.ForceOnAACommit {
		// Early lock release: the commit record is in the log buffer, so
		// the locks can go now — tagged with this commit LSN so any
		// transaction that acquires one inherits it as a commit
		// dependency. The ack below still waits for stability; only the
		// lock hold time shrinks. Atomic actions keep their locks: their
		// relative durability already rides a dependent user commit.
		if !t.System {
			t.mgr.Locks.ReleaseAllAt(t.ID, uint64(lsn))
			// Crash here = locks released, dependents possibly reading,
			// commit record not yet stable.
			_ = t.mgr.inj.Check(FPELR)
		}
		// A commit dependency beyond our own LSN can only arise for
		// records appended before ours (stability is a prefix), but force
		// the max defensively.
		target := lsn
		if dep := wal.LSN(t.depLSN); dep > target {
			target = dep
		}
		if err := t.mgr.Log.ForceGroup(target); err != nil {
			// The force failed, and force failures are sticky: the commit
			// record can never reach the stable prefix, so restart is
			// certain to treat this transaction as a loser. Rolling back
			// in memory now keeps the running system consistent with that
			// outcome, and the caller learns durability was NOT achieved.
			t.mu.Lock()
			t.state = Active
			t.mu.Unlock()
			if aerr := t.Abort(); aerr != nil {
				return fmt.Errorf("txn %d: commit force failed (%v), rollback also failed: %w", t.ID, err, aerr)
			}
			return fmt.Errorf("txn %d: commit not durable, rolled back: %w", t.ID, err)
		}
		t.mgr.Locks.NoteStable(uint64(t.mgr.Log.StableLSN()))
		t.mgr.advanceStable(cts)
	}
	// No end record: restart analysis is done with a transaction at its
	// commit record.
	t.end()
	t.mu.Lock()
	hooks := t.onCommit
	t.onCommit = nil
	t.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	return nil
}

// Abort rolls the transaction back completely and releases its locks.
func (t *Txn) Abort() error {
	t.mu.Lock()
	if t.state != Active {
		t.mu.Unlock()
		return ErrNotActive
	}
	if t.lastLSN == wal.NilLSN {
		// Nothing logged: nothing to undo and nothing for restart to see.
		t.state = Aborted
		t.mu.Unlock()
		t.end()
		return nil
	}
	from := t.logLocked(&wal.Record{Type: wal.RecAbort})
	t.mu.Unlock()
	return t.rollbackAndEnd(from)
}

// AbortHeld is Abort for an atomic action whose caller's operation still
// holds latches, tr its record of them: undo compensates a page whose
// frame tr holds in X — every page the action changed — under that latch
// instead of taking its own, so no other operation sees the action's
// changes before they are undone. A page tr does not hold — a store's
// meta page — undo latches itself; one tr holds in another mode is an
// error rather than a wait for itself.
func (t *Txn) AbortHeld(tr *latch.Tracker) error {
	t.tracker = tr
	return t.Abort()
}

// CommitHeld is Commit for an atomic action whose caller's operation
// still holds latches, tr its record of them: a commit whose force fails
// rolls the action back (Commit), and that rollback compensates under the
// held latches, as AbortHeld's does.
func (t *Txn) CommitHeld(tr *latch.Tracker) error {
	t.tracker = tr
	return t.Commit()
}

// Held returns the latch tracker of the operation that called AbortHeld
// or CommitHeld, nil before either: a logical undo applies in place to a
// page whose frame it holds in X.
func (t *Txn) Held() *latch.Tracker { return t.tracker }

// rollbackAndEnd undoes everything from LSN from backwards, writes the end
// record — a rolled-back transaction, unlike a committed one, is still in
// restart's table until its rollback is known complete — and releases the
// transaction's resources. A rollback that fails dooms the transaction.
func (t *Txn) rollbackAndEnd(from wal.LSN) error {
	if err := t.rollbackTo(from, wal.NilLSN); err != nil {
		return t.doom(err)
	}
	t.mu.Lock()
	t.state = Aborted
	t.logLocked(&wal.Record{Type: wal.RecEnd})
	t.mu.Unlock()
	t.end()
	return nil
}

// doom ends a transaction whose rollback failed with err, as far as it can
// be ended: it stays in the table, Doomed, with the CLRs it logged so far,
// and the next restart's undo finishes it as it does a crash loser. Its
// locks are poisoned rather than released, which would expose its
// uncommitted, partly undone writes; and the log is latched damaged,
// because memory now holds changes restart will undo and nothing
// committed from here on may build on them.
func (t *Txn) doom(err error) error {
	t.mu.Lock()
	t.state = Doomed
	t.mu.Unlock()
	t.mgr.Locks.Poison(t.ID)
	t.mgr.Log.MarkDamaged()
	return fmt.Errorf("txn %d: %w: %w", t.ID, ErrDoomed, err)
}

// end releases the finished transaction's locks and drops it from the
// table.
func (t *Txn) end() {
	t.mgr.Locks.ReleaseAll(t.ID)
	t.mgr.mu.Lock()
	delete(t.mgr.active, t.ID)
	t.mgr.mu.Unlock()
}

// NestedToken marks the start of a nested top-level action.
type NestedToken struct {
	savedLSN wal.LSN
}

// BeginNested starts a nested top-level action: subsequent updates will
// survive an abort of the enclosing transaction once CommitNested runs.
func (t *Txn) BeginNested() NestedToken {
	t.mu.Lock()
	defer t.mu.Unlock()
	return NestedToken{savedLSN: t.lastLSN}
}

// CommitNested ends a nested top-level action by writing a dummy CLR whose
// UndoNext bypasses the NTA's records in the undo chain.
func (t *Txn) CommitNested(tok NestedToken) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != Active {
		panic("txn: CommitNested on finished transaction")
	}
	t.logLocked(&wal.Record{Type: wal.RecDummyCLR, UndoNext: tok.savedLSN})
}

// AbortNested rolls back only the records logged since BeginNested,
// leaving the enclosing transaction active.
func (t *Txn) AbortNested(tok NestedToken) error {
	t.mu.Lock()
	from := t.lastLSN
	t.mu.Unlock()
	return t.rollbackTo(from, tok.savedLSN)
}

// rollbackTo undoes this transaction's updates from LSN `from` backwards
// until the chain reaches `until` (NilLSN = all of them). It is also
// the restart-undo engine: recovery adopts losers and calls it.
func (t *Txn) rollbackTo(from, until wal.LSN) error {
	next := from
	for next != wal.NilLSN && next != until {
		rec, err := t.mgr.Log.Read(next)
		if err != nil {
			return fmt.Errorf("txn %d rollback read: %w", t.ID, err)
		}
		switch rec.Type {
		case wal.RecUpdate:
			if err := t.undoOne(&rec); err != nil {
				return err
			}
			next = rec.PrevLSN
		case wal.RecCLR, wal.RecDummyCLR:
			next = rec.UndoNext
		default:
			next = rec.PrevLSN
		}
	}
	return nil
}

// undoOne compensates a single update record.
func (t *Txn) undoOne(rec *wal.Record) error {
	h, err := t.mgr.Reg.Handler(rec.Kind)
	if err != nil {
		return err
	}
	if h.LogicalUndo != nil {
		return h.LogicalUndo(rec, t)
	}
	if h.MakeUndo == nil {
		// Redo-only record: back the chain over it with a CLR so restart
		// does not revisit it.
		t.mu.Lock()
		t.logLocked(&wal.Record{Type: wal.RecCLR, UndoNext: rec.PrevLSN})
		t.mu.Unlock()
		return nil
	}
	comp, err := h.MakeUndo(rec, t.mgr.Log)
	if err != nil {
		return err
	}
	pool, err := t.mgr.Reg.Pool(rec.StoreID)
	if err != nil {
		return err
	}
	f, err := pool.FetchOrCreate(storage.PageID(rec.PageID))
	if err != nil {
		return err
	}
	defer pool.Unpin(f)
	// Latch the page before appending the CLR and hold the latch across
	// the apply — the same protocol as forward updates. Appending first
	// and latching inside ApplyRedo would let two transactions undoing on
	// the same page append in one order and apply in the other, and the
	// pageLSN guard would then drop the lower-LSN compensation from the
	// buffered page. Restart's concurrent loser-undo workers hit exactly
	// that interleaving. A page the aborting caller's operation holds in
	// X (AbortHeld) is latched already; one it holds in another mode it
	// would wait for itself.
	if mode, held := t.tracker.Holds(f); !held {
		f.Latch.AcquireX()
		defer f.Latch.ReleaseX()
	} else if mode != latch.X {
		return fmt.Errorf("txn %d: undo of kind %d on page %d needs a latch its own operation holds in %v", t.ID, rec.Kind, rec.PageID, mode)
	}
	t.mu.Lock()
	clr := pageRecord(wal.RecCLR, f, comp.Kind, comp.Payload)
	clr.UndoNext = rec.PrevLSN
	t.logLocked(clr)
	t.mu.Unlock()
	return t.mgr.Reg.ApplyRedoFrame(f, clr)
}

// RollbackLoser drives restart undo for an adopted loser: it rolls back
// everything and writes the end record.
func (t *Txn) RollbackLoser() error {
	t.mu.Lock()
	from := t.lastLSN
	t.mu.Unlock()
	return t.rollbackAndEnd(from)
}
