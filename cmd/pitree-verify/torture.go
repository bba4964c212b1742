// Crash-point torture mode: concurrent transactional workloads against
// an engine whose stable layer is armed with one seeded failpoint per
// round — a torn page write, a dead or flaky log device, a crash latch
// tripped mid-eviction, mid-SMO, or mid-group-commit. The round then
// recovers from exactly the frozen stable state and checks three
// properties: every acknowledged commit survived, nothing unacknowledged
// ghosted in, and the tree is well-formed with lazy completion able to
// converge it. Every round is reproducible from (-seed, round).
package main

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/fsys"
	"repro/internal/keys"
	"repro/internal/maint"
	"repro/internal/pitree"
	"repro/internal/recovery"
	"repro/internal/spatial"
	"repro/internal/storage"
	"repro/internal/tsb"
	"repro/internal/txn"
	"repro/internal/wal"
)

// tortTree is the uniform surface the torture loop drives. Adapters
// normalize the three access methods to insert/remove/lookup on uint64
// keys; remove on a tree without deletions reports unsupported.
type tortTree interface {
	insert(tx *txn.Txn, k uint64, v []byte) error
	remove(tx *txn.Txn, k uint64) error
	lookup(k uint64) ([]byte, bool, error)
	drain()
	close()
	verify() error
}

// tortBatcher is the optional vectorized-write surface: trees with a
// MultiPut expose it so workers can commit multi-key batches and the
// crash-mid-batch-apply round has a real batch to land in.
type tortBatcher interface {
	insertBatch(tx *txn.Txn, ks []uint64, vs [][]byte) error
}

// tortScanner is the optional range-scan surface. Scans feed successor
// hints to the buffer pool's read-ahead, so the transient-prefetch round
// has traffic to fault; a faulted prefetch must degrade to the
// foreground fetch, never to wrong scan output.
type tortScanner interface {
	scanSome() error
}

// tortDraws is the per-round maintenance configuration: each round rolls
// whether background consolidation and page reclamation are on and how
// hard the governor throttles them, so every fault in the menu is
// eventually crossed with every maintenance posture.
type tortDraws struct {
	consolidation bool // core: utilization-triggered merges
	reclaim       bool // spatial: free empty pages (tsb's GC always does)
	govBudget     int  // pages/sec for background maintenance; 0 = unpaced
	// forceAA forces the log at every atomic action's commit
	// (engine.Options.ForceOnAACommit), and the workers then write some
	// keys with no transaction: an acked atomic write is durable, and one
	// whose forced commit fails rolls back under the leaf latch it holds.
	forceAA bool
}

// governor builds a fresh pacing governor for one tree instance (create
// and reopen each get their own token bucket).
func (d tortDraws) governor() *maint.Governor {
	if d.govBudget == 0 {
		return nil
	}
	return maint.New(d.govBudget, 8, nil)
}

// label prints the draws for a round of the named tree: the reclaim draw
// only on spatial rounds, the one tree it configures.
func (d tortDraws) label(tree string) string {
	reclaim := ""
	if strings.HasPrefix(tree, "spatial") {
		reclaim = fmt.Sprintf(" reclaim=%v", d.reclaim)
	}
	return fmt.Sprintf("consol=%v%s budget=%d force_aa=%v", d.consolidation, reclaim, d.govBudget, d.forceAA)
}

// treeKind builds and reopens one access method over an engine.
type treeKind struct {
	name   string
	create func(e *engine.Engine, d tortDraws) (tortTree, error)
	open   func(e *engine.Engine, pend *recoveryPending, d tortDraws) (tortTree, error)
}

// recoveryPending defers the undo pass until the tree is open (logical
// record undo needs the tree bound). absent reports, after undo, that the
// store has no root for the tree: undo rolled back a creation that redo
// had applied and the open had found.
type recoveryPending struct {
	finish func() error
	absent func() bool
}

const tortureStoreID = 1

// --- core Π-tree adapter ------------------------------------------------

type coreTort struct{ t *core.Tree }

func (a coreTort) insert(tx *txn.Txn, k uint64, v []byte) error {
	return a.t.Insert(tx, keys.Uint64(k), v)
}
func (a coreTort) remove(tx *txn.Txn, k uint64) error { return a.t.Delete(tx, keys.Uint64(k)) }
func (a coreTort) lookup(k uint64) ([]byte, bool, error) {
	return a.t.Search(nil, keys.Uint64(k))
}
func (a coreTort) drain()        { a.t.DrainCompletions() }
func (a coreTort) close()        { a.t.Close() }
func (a coreTort) verify() error { _, err := a.t.Verify(); return err }

func (a coreTort) insertBatch(tx *txn.Txn, ks []uint64, vs [][]byte) error {
	bk := make([]keys.Key, len(ks))
	for i, k := range ks {
		bk[i] = keys.Uint64(k)
	}
	return a.t.MultiPut(tx, bk, vs)
}

func (a coreTort) scanSome() error {
	return a.t.RangeScan(nil, nil, nil, func(keys.Key, []byte) bool { return true })
}

func coreTortOpts(pessimistic bool, d tortDraws) core.Options {
	return core.Options{LeafCapacity: 6, IndexCapacity: 6, Consolidation: d.consolidation,
		PessimisticDescent: pessimistic, Governor: d.governor()}
}

// --- TSB-tree adapter ---------------------------------------------------

type tsbTort struct{ t *tsb.Tree }

func (a tsbTort) insert(tx *txn.Txn, k uint64, v []byte) error {
	return a.t.Put(tx, keys.Uint64(k), v)
}
func (a tsbTort) remove(tx *txn.Txn, k uint64) error { return a.t.Delete(tx, keys.Uint64(k)) }
func (a tsbTort) lookup(k uint64) ([]byte, bool, error) {
	return a.t.Get(nil, keys.Uint64(k))
}
func (a tsbTort) drain()        { a.t.DrainCompletions() }
func (a tsbTort) close()        { a.t.Close() }
func (a tsbTort) verify() error { _, err := a.t.Verify(); return err }

func (a tsbTort) insertBatch(tx *txn.Txn, ks []uint64, vs [][]byte) error {
	bk := make([]keys.Key, len(ks))
	for i, k := range ks {
		bk[i] = keys.Uint64(k)
	}
	return a.t.MultiPut(tx, bk, vs)
}

func (a tsbTort) scanSome() error {
	return a.t.ScanAsOf(a.t.Now(), nil, nil, func(keys.Key, []byte) bool { return true })
}

func tsbTortOpts(pessimistic bool, d tortDraws) tsb.Options {
	// GC is on: version garbage collection runs off committed time splits
	// while the snapshot readers race it, so every round reaps retired
	// history tails too.
	return tsb.Options{DataCapacity: 6, IndexCapacity: 6,
		PessimisticDescent: pessimistic, GC: true, Governor: d.governor()}
}

// --- spatial hB-tree adapter -------------------------------------------

type spatialTort struct{ t *spatial.Tree }

// tortPoint maps a workload key to a point; splitmix64 spreads the keys
// across the space so data-node splits happen everywhere.
func tortPoint(k uint64) spatial.Point {
	z := k + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return spatial.Point{X: z % spatial.MaxCoord, Y: (z >> 32) % spatial.MaxCoord}
}

func (a spatialTort) insert(tx *txn.Txn, k uint64, v []byte) error {
	return a.t.Insert(tx, tortPoint(k), v)
}
func (a spatialTort) remove(tx *txn.Txn, k uint64) error { return a.t.Delete(tx, tortPoint(k)) }
func (a spatialTort) lookup(k uint64) ([]byte, bool, error) {
	return a.t.Search(nil, tortPoint(k))
}
func (a spatialTort) drain()        { a.t.DrainCompletions() }
func (a spatialTort) close()        { a.t.Close() }
func (a spatialTort) verify() error { _, err := a.t.Verify(); return err }

func spatialTortOpts(pessimistic bool, d tortDraws) spatial.Options {
	return spatial.Options{DataCapacity: 6, IndexCapacity: 6,
		PessimisticDescent: pessimistic, Reclaim: d.reclaim, Governor: d.governor()}
}

// tortureKinds lists each access method twice: with the default
// optimistic (version-validated) descent and with the fully latched
// descent, so every fault in the menu is crossed with both navigation
// disciplines.
func tortureKinds() []treeKind {
	var kinds []treeKind
	for _, m := range []struct {
		suffix      string
		pessimistic bool
	}{{"", false}, {"-latched", true}} {
		pess := m.pessimistic
		kinds = append(kinds,
			treeKind{
				name: "core" + m.suffix,
				create: func(e *engine.Engine, d tortDraws) (tortTree, error) {
					b := core.Register(e.Reg, e.Opts.PageOriented)
					st := e.AddStore(tortureStoreID, core.Codec{})
					t, err := core.Create(st, e.TM, e.Locks, b, "tort", coreTortOpts(pess, d))
					if err != nil {
						return nil, err
					}
					return coreTort{t}, nil
				},
				open: func(e *engine.Engine, pend *recoveryPending, d tortDraws) (tortTree, error) {
					b := core.Register(e.Reg, e.Opts.PageOriented)
					st := e.AddStore(tortureStoreID, core.Codec{})
					p, err := e.AnalyzeAndRedo()
					if err != nil {
						return nil, err
					}
					pend.finish = func() error { return e.FinishRecovery(p) }
					pend.absent = func() bool { _, err := st.Root("tort"); return err != nil }
					t, err := core.Open(st, e.TM, e.Locks, b, "tort", coreTortOpts(pess, d))
					if err != nil {
						return nil, err
					}
					return coreTort{t}, nil
				},
			},
			treeKind{
				name: "tsb" + m.suffix,
				create: func(e *engine.Engine, d tortDraws) (tortTree, error) {
					b := tsb.Register(e.Reg)
					st := e.AddStore(tortureStoreID, tsb.Codec{})
					t, err := tsb.Create(st, e.TM, e.Locks, b, "tort", tsbTortOpts(pess, d))
					if err != nil {
						return nil, err
					}
					return tsbTort{t}, nil
				},
				open: func(e *engine.Engine, pend *recoveryPending, d tortDraws) (tortTree, error) {
					b := tsb.Register(e.Reg)
					st := e.AddStore(tortureStoreID, tsb.Codec{})
					p, err := e.AnalyzeAndRedo()
					if err != nil {
						return nil, err
					}
					pend.finish = func() error { return e.FinishRecovery(p) }
					pend.absent = func() bool { _, err := st.Root("tort"); return err != nil }
					t, err := tsb.Open(st, e.TM, e.Locks, b, "tort", tsbTortOpts(pess, d))
					if err != nil {
						return nil, err
					}
					return tsbTort{t}, nil
				},
			},
			treeKind{
				name: "spatial" + m.suffix,
				create: func(e *engine.Engine, d tortDraws) (tortTree, error) {
					b := spatial.Register(e.Reg)
					st := e.AddStore(tortureStoreID, spatial.Codec{})
					t, err := spatial.Create(st, e.TM, e.Locks, b, "tort", spatialTortOpts(pess, d))
					if err != nil {
						return nil, err
					}
					return spatialTort{t}, nil
				},
				open: func(e *engine.Engine, pend *recoveryPending, d tortDraws) (tortTree, error) {
					b := spatial.Register(e.Reg)
					st := e.AddStore(tortureStoreID, spatial.Codec{})
					p, err := e.AnalyzeAndRedo()
					if err != nil {
						return nil, err
					}
					pend.finish = func() error { return e.FinishRecovery(p) }
					pend.absent = func() bool { _, err := st.Root("tort"); return err != nil }
					t, err := spatial.Open(st, e.TM, e.Locks, b, "tort", spatialTortOpts(pess, d))
					if err != nil {
						return nil, err
					}
					return spatialTort{t}, nil
				},
			},
		)
	}
	return kinds
}

// --- failure menu -------------------------------------------------------

// menuEntry is one way a round can hurt the system. spread bounds the
// randomized After (which hit of the failpoint fires). An atClose entry
// runs its round fault-free on a file-backed engine and arms the
// failpoint only when the workload is over and Engine.Close begins.
type menuEntry struct {
	name    string
	point   string
	spec    fault.Spec
	spread  int
	atClose bool
}

func tortureMenu() []menuEntry {
	return []menuEntry{
		{"torn-page-write+crash", "disk.write", fault.Spec{Kind: fault.Torn, Crash: true}, 12, false},
		{"permanent-disk-write", "disk.write", fault.Spec{Kind: fault.Permanent}, 12, false},
		{"transient-disk-write", "disk.write", fault.Spec{Kind: fault.Transient, Count: 3}, 12, false},
		{"transient-disk-read", "disk.read", fault.Spec{Kind: fault.Transient, Count: 3}, 12, false},
		{"torn-log-sync+crash", wal.FPSync, fault.Spec{Kind: fault.Torn, Crash: true}, 40, false},
		{"permanent-log-sync", wal.FPSync, fault.Spec{Kind: fault.Permanent}, 40, false},
		{"crash-at-log-sync", wal.FPSync, fault.Spec{Kind: fault.None, Crash: true}, 40, false},
		{"crash-mid-eviction", "pool.evict", fault.Spec{Kind: fault.None, Crash: true}, 20, false},
		{"crash-mid-smo-commit", txn.FPAACommit, fault.Spec{Kind: fault.None, Crash: true}, 30, false},
		{"crash-mid-user-commit", txn.FPUserCommit, fault.Spec{Kind: fault.None, Crash: true}, 40, false},
		// Pipelined-commit crash points: after early lock release but
		// before the commit record is stable (dependents may already have
		// read the doomed state — no ack of theirs may survive either),
		// and between the flush pipeline's write and sync stages (bytes
		// are in the sink but not fsynced; recovery must not treat them
		// as stable under SyncAlways semantics).
		{"crash-at-elr", txn.FPELR, fault.Spec{Kind: fault.None, Crash: true}, 40, false},
		{"crash-between-write-and-sync", wal.FPWrite, fault.Spec{Kind: fault.None, Crash: true}, 40, false},
		// Maintenance crash points: mid-consolidation (between the merge's
		// page free and its commit) and mid-free (before the free-space map
		// meta write). They only fire on rounds whose draws turn the
		// relevant maintenance on — otherwise the round degenerates to a
		// clean end-of-round freeze, which is itself a valid case.
		{"crash-mid-consolidate", storage.FPConsolidate, fault.Spec{Kind: fault.None, Crash: true}, 8, false},
		{"crash-mid-free", storage.FPStoreFree, fault.Spec{Kind: fault.None, Crash: true}, 8, false},
		// Vectorized-path crash points. crash-mid-batch-apply fires between
		// two leaf-runs of one batched MultiPut — earlier runs fully logged,
		// later runs never started — so recovery must resolve the batch per
		// record against the ack oracle: an unacked batch leaves no ghosts,
		// an acked one loses nothing. transient-prefetch flakes the pool's
		// background read-ahead; scans must fall back to synchronous fetches
		// and never surface wrong data. Rounds on trees without the batch or
		// scan surface degenerate to a clean end-of-round freeze.
		{"crash-mid-batch-apply", core.FPBatchApply, fault.Spec{Kind: fault.None, Crash: true}, 6, false},
		{"transient-prefetch", storage.FPPoolPrefetch, fault.Spec{Kind: fault.Transient, Count: 3}, 6, false},
		// Shutdown crash points. Close forces the log, flushes every page,
		// takes a checkpoint and recycles the whole log, then compacts the
		// page file: the crash lands on one of Close's two log syncs (the
		// force, the checkpoint record), on one of its page writes, or
		// among the compaction's moves, and the directory it leaves — or
		// the clean one, when After outruns Close — must reopen to exactly
		// the acknowledged state.
		{"crash-mid-shutdown-checkpoint", wal.FPSync, fault.Spec{Kind: fault.None, Crash: true}, 2, true},
		{"crash-mid-shutdown-flush", storage.FPDiskWrite, fault.Spec{Kind: fault.None, Crash: true}, 6, true},
		{"crash-mid-compaction", storage.FPDiskCompact, fault.Spec{Kind: fault.None, Crash: true}, 6, true},
		// A posting action fails once its space test is done — after any
		// index split it needed — and before its term: the action, split
		// included, is undone under its latches, and lazy completion must
		// post the term later.
		{"transient-post", pitree.FPPost, fault.Spec{Kind: fault.Transient, Count: 3}, 12, false},
		// Write elision: a fetch of a page an eviction dropped unwritten
		// replays its chain. The crash lands between two replayed records —
		// the half-rebuilt page must never reach the disk — and the
		// transient fault is retried as a disk read is.
		{"crash-mid-replay", storage.FPPoolReplay, fault.Spec{Kind: fault.None, Crash: true}, 40, false},
		{"transient-replay", storage.FPPoolReplay, fault.Spec{Kind: fault.Transient, Count: 3}, 40, false},
	}
}

// roundCounts is what a round's pools did with dirty victims — pages an
// eviction dropped unwritten, and fetches that replayed one — on a
// torture round, how often its armed failpoint fired, and on a tsb round
// what its trees did with full nodes and retired history: time splits,
// prunes and GC's page frees.
type roundCounts struct {
	elisions, replays, trips    int64
	tsb                         bool
	timeSplits, prunes, gcFrees int64
}

func (c *roundCounts) add(pools []*storage.Pool) {
	for _, p := range pools {
		s := p.Stats()
		c.elisions += s.Elisions
		c.replays += s.Replays
	}
}

// addTree adds a tsb tree's structure counters; other trees have none.
func (c *roundCounts) addTree(t tortTree) {
	if tt, ok := t.(tsbTort); ok {
		s := &tt.t.Stats
		c.tsb = true
		c.timeSplits += s.TimeSplits.Load()
		c.prunes += s.Prunes.Load()
		c.gcFrees += s.GCFreedPages.Load()
	}
}

func (c roundCounts) String() string {
	out := fmt.Sprintf("elisions=%d replays=%d", c.elisions, c.replays)
	if c.tsb {
		out += fmt.Sprintf(" time_splits=%d prunes=%d gc_frees=%d", c.timeSplits, c.prunes, c.gcFrees)
	}
	return out
}

// errNoElision fails a run none of whose rounds dropped a dirty page
// unwritten: the gate would have stopped covering write elision.
var errNoElision = errors.New("no round elided a page: the write-elision path went untested")

// --- the torture loop ---------------------------------------------------

// oracleVal is the durably-committed state of one key: its value, or
// absent. Only the owning worker mutates an entry, so no lock is needed
// until the workers are joined.
type oracleVal struct {
	present bool
	val     string
}

type tortureConfig struct {
	rounds, workers, ops int
	seed                 int64
	pageOriented         bool
}

// --- snapshot-isolation oracle (TSB rounds only) ------------------------
//
// One writer commits rounds over a key space disjoint from the torture
// workers: each round rewrites every snap key with the round number, and
// an acked commit records it as the newest durable round. Readers race it
// (and version GC) with lock-free snapshots and assert, per snapshot:
// every key shows the SAME round (no torn snapshot), the round was never
// aborted (no ghosts), it is at least the newest round acked before
// capture (captured-after-commit monotonicity), and a repeated read does
// not move. After the crash, the keys must hold exactly the last acked
// round.

const (
	snapKeyBase = uint64(1) << 40 // far above any worker key
	snapKeys    = 8
)

type snapOracle struct {
	last    atomic.Int64 // newest acked round; -1 before any commit
	aborted sync.Map     // round -> true: commit failed or was aborted

	mu        sync.Mutex
	violation error // first consistency violation
}

func (s *snapOracle) fail(err error) {
	s.mu.Lock()
	if s.violation == nil {
		s.violation = err
	}
	s.mu.Unlock()
}

func (s *snapOracle) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.violation
}

// runSnapWriter commits rounds until the armed fault stops the world or
// the round's bounded workers finish (stop).
func runSnapWriter(e *engine.Engine, inj *fault.Injector, tree tortTree, s *snapOracle, seed int64, stop *atomic.Bool) {
	wrng := rand.New(rand.NewSource(seed * 104729))
	for round := int64(0); !stop.Load() && !inj.Crashed() && !e.Degraded(); round++ {
		tx := e.TM.Begin()
		ok := true
		for i := uint64(0); i < snapKeys; i++ {
			if err := tree.insert(tx, snapKeyBase+i, []byte(fmt.Sprintf("s%d", round))); err != nil {
				ok = false
				break
			}
		}
		if !ok || wrng.Intn(6) == 0 {
			s.aborted.Store(round, true)
			_ = tx.Abort()
			continue
		}
		if err := tx.Commit(); err != nil {
			s.aborted.Store(round, true)
			continue
		}
		s.last.Store(round)
	}
}

// runSnapReader takes snapshots and checks each one is a consistent
// committed prefix. Read errors (injected faults) abort the iteration;
// only consistency violations count.
func runSnapReader(e *engine.Engine, inj *fault.Injector, t *tsb.Tree, s *snapOracle, stop *atomic.Bool) {
	var buf []byte
	for !stop.Load() && !inj.Crashed() && !e.Degraded() {
		r0 := s.last.Load()
		snap := e.TM.BeginSnapshot(nil)
		round, torn := int64(-1), false
		failed := false
		for i := uint64(0); i < snapKeys; i++ {
			v, ok, err := t.SnapshotGet(snap, keys.Uint64(snapKeyBase+i), buf)
			if err != nil {
				failed = true
				break
			}
			buf = v[:0]
			r := int64(-1)
			if ok {
				if _, err := fmt.Sscanf(string(v), "s%d", &r); err != nil {
					s.fail(fmt.Errorf("snap key %d: unparsable value %q", i, v))
					snap.Release()
					return
				}
			}
			if i == 0 {
				round = r
			} else if r != round {
				torn = true
			}
		}
		if failed {
			snap.Release()
			continue
		}
		switch {
		case torn:
			s.fail(fmt.Errorf("torn snapshot at ts %d: keys show mixed rounds (first %d)", snap.TS(), round))
		case round < r0:
			s.fail(fmt.Errorf("snapshot at ts %d went back in time: sees round %d, round %d was acked before capture", snap.TS(), round, r0))
		case round >= 0:
			if _, bad := s.aborted.Load(round); bad {
				s.fail(fmt.Errorf("snapshot at ts %d sees aborted round %d", snap.TS(), round))
			}
		}
		// Repeated read must not move.
		if round >= 0 {
			v, ok, err := t.SnapshotGet(snap, keys.Uint64(snapKeyBase), buf)
			if err == nil && (!ok || string(v) != fmt.Sprintf("s%d", round)) {
				s.fail(fmt.Errorf("repeat read moved inside snapshot ts %d: %q ok=%v, expected round %d", snap.TS(), v, ok, round))
			}
			if err == nil {
				buf = v[:0]
			}
		}
		snap.Release()
	}
}

// finishAudited runs a restart's undo pass inside the space audit: the
// alloc/free history of e's replayed log goes through the alternation
// oracle and e's free-space maps are cross-checked against it, once as
// redo left them and once more after undo, with this restart's CLRs
// applied on top. Both reads of the log are of its segment files
// (Log.StableImage): FinishRecovery releases the replayed log from
// memory. A split the undo pass makes queues its posting on the tree's
// completion workers, whose actions allocate pages too: drain runs them
// to the end before the log and the free-space maps are compared, or an
// allocation could land between the two reads.
func finishAudited(e *engine.Engine, finish func() error, drain func()) error {
	img, err := e.Log.StableImage()
	if err != nil {
		return fmt.Errorf("space audit: read the log: %v", err)
	}
	shadow, err := recovery.AuditSpace(img)
	if err == nil {
		err = recovery.CheckSpace(shadow, e.Pools()...)
	}
	if err != nil {
		return fmt.Errorf("space audit before undo: %v", err)
	}
	if finish != nil {
		if err := finish(); err != nil {
			return fmt.Errorf("undo losers: %v", err)
		}
	}
	drain()
	tail, err := e.Log.StableImage()
	if err == nil {
		shadow, err = recovery.AuditSpaceTail(shadow, tail, img.EndLSN())
	}
	if err == nil {
		err = recovery.CheckSpace(shadow, e.Pools()...)
	}
	if err != nil {
		return fmt.Errorf("space audit: %v", err)
	}
	return nil
}

// entryCoverage is what one menu entry did over a run: the rounds that
// drew it, those whose failpoint fired at least once, and its firings.
type entryCoverage struct{ draws, tripped, trips int64 }

// printCoverage prints one line per menu entry, in menu order.
func printCoverage(menu []menuEntry, cov map[string]*entryCoverage) {
	fmt.Printf("coverage: %-30s %6s %8s %6s\n", "entry", "draws", "tripped", "trips")
	for _, m := range menu {
		c := cov[m.name]
		fmt.Printf("coverage: %-30s %6d %8d %6d\n", m.name, c.draws, c.tripped, c.trips)
	}
}

// roundDeadline is how long a torture round may run before its watchdog
// calls it hung; a green round takes a few tens of milliseconds.
const roundDeadline = 15 * time.Second

// watchRound arms the watchdog of one round, named by round ("torture
// round 3", "real round 3"); the caller stops the timer it returns when
// the round ends. If it fires first, it runs stop, if any (a real round
// kills its child there, so that no process outlives this one), prints
// the round's label, its replay line and every goroutine's stack to
// stderr and exits with status 1. While the timer is pending the runtime
// sees a way for the process to go on, so a round in which every
// goroutine blocks is named this way too, not ended by "all goroutines
// are asleep".
func watchRound(round, label, replay string, stop func()) *time.Timer {
	return time.AfterFunc(roundDeadline, func() {
		if stop != nil {
			stop()
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		for n == len(buf) {
			buf = make([]byte, 2*len(buf))
			n = runtime.Stack(buf, true)
		}
		fmt.Fprintf(os.Stderr, "%s hung: not done after %v (%s)\n%s\n\n%s\n", round, roundDeadline, label, replay, buf[:n])
		os.Exit(1)
	})
}

func runTorture(cfg tortureConfig) error {
	kinds := tortureKinds()
	menu := tortureMenu()
	var total roundCounts
	cov := make(map[string]*entryCoverage, len(menu))
	for _, m := range menu {
		cov[m.name] = &entryCoverage{}
	}
	defer printCoverage(menu, cov)
	for round := 0; round < cfg.rounds; round++ {
		seed := cfg.seed + int64(round)*1000003
		kind := kinds[round%len(kinds)]
		rng := rand.New(rand.NewSource(seed))
		entry := menu[rng.Intn(len(menu))]
		// The recovery worker count joins the fault menu: every fault is
		// crossed with serial and parallel restart shapes. The maintenance
		// draws cross it again with consolidation/reclaim postures (the
		// reclaim draw is taken on every round, so a seed keeps its rounds,
		// but only spatial rounds use it).
		recWorkers := 1 << rng.Intn(4)
		draws := tortDraws{
			consolidation: rng.Intn(2) == 0,
			reclaim:       rng.Intn(2) == 0,
			govBudget:     []int{0, 64, 256}[rng.Intn(3)],
			// From a generator of its own, so the shared one, and with it
			// every draw a seed made before this one existed, is unchanged.
			forceAA: rand.New(rand.NewSource(seed*15485863)).Intn(4) == 0,
		}
		// The round is named before it runs: a runtime fatal inside it (a
		// concurrent map write, say) ends the process with no error to
		// print, and still leaves the round and its replay line behind; a
		// hang is named by the round's watchdog.
		label := fmt.Sprintf("tree=%s fault=%s workers=%d %v", kind.name, entry.name, recWorkers, draws.label(kind.name))
		replay := fmt.Sprintf("reproduce with: pitree-verify -torture -seed %d -rounds %d", cfg.seed, round+1)
		fmt.Fprintf(os.Stderr, "torture round %d start (%s seed=%d)\n%s\n", round, label, seed, replay)
		watchdog := watchRound(fmt.Sprintf("torture round %d", round), label, replay, nil)
		restart, counts, err := tortureRound(seed, kind, entry, recWorkers, draws, rng, cfg)
		watchdog.Stop()
		c := cov[entry.name]
		c.draws++
		if counts.trips > 0 {
			c.tripped++
			c.trips += counts.trips
		}
		if err != nil {
			return fmt.Errorf("round %d (%s seed=%d %v): %w\n%s", round, label, seed, counts, err, replay)
		}
		total.elisions += counts.elisions
		total.replays += counts.replays
		fmt.Printf("torture round %d ok (%s restart=%v trips=%d %v)\n",
			round, label, restart.Round(10*time.Microsecond), counts.trips, counts)
	}
	if total.elisions == 0 {
		return errNoElision
	}
	fmt.Println("all torture rounds verified: committed data durable, no ghosts, trees well-formed")
	return nil
}

// imageDirs are the directories of an engine's files: the page files at
// its root, the log segments in wal.
var imageDirs = []string{".", "wal"}

// copyImage copies the engine files under from in src to under to in dst.
func copyImage(src fsys.FS, from string, dst fsys.FS, to string) error {
	for _, sub := range imageDirs {
		names, err := src.ReadDir(filepath.Join(from, sub))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		} else if err != nil {
			return err
		}
		if err := dst.MkdirAll(filepath.Join(to, sub)); err != nil {
			return err
		}
		for _, name := range names {
			b, err := fsys.ReadFile(src, filepath.Join(from, sub, name))
			if err != nil {
				return err
			}
			if err := fsys.WriteFile(dst, filepath.Join(to, sub, name), b); err != nil {
				return err
			}
		}
	}
	return nil
}

// withCrashImage saves a failed round's crash image — the files its
// restart began from — to a new directory and appends its path to err,
// for -logstat and -pagestat to read.
func withCrashImage(err error, img fsys.FS) error {
	if err == nil || img == nil {
		return err
	}
	dir, derr := os.MkdirTemp("", "pitree-tort-crash-*")
	if derr == nil {
		derr = copyImage(img, ".", fsys.OS, dir)
	}
	if derr != nil {
		return fmt.Errorf("%w\ncrash image not saved: %v", err, derr)
	}
	return fmt.Errorf("%w\ncrash image saved in %s (pitree-verify -logstat %s, -pagestat %s)",
		err, dir, filepath.Join(dir, "wal"), filepath.Join(dir, fmt.Sprintf("store-%d.pages", tortureStoreID)))
}

// withPageFiles appends to a failed round's error each page file's block
// occupancy at the time of the failure; memory-backed engines have none.
func withPageFiles(err error, e *engine.Engine) error {
	if err == nil || e == nil {
		return err
	}
	_, disks := e.FileStats()
	ids := make([]uint32, 0, len(disks))
	for id := range disks {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		d := disks[id]
		err = fmt.Errorf("%w\nstore %d page file: blocks=%d free_blocks=%d limbo_blocks=%d demand_syncs=%d fsyncs=%d pages_written=%d checksum_fails=%d",
			err, id, d.Blocks, d.FreeBlocks, d.LimboBlocks, d.DemandSyncs, d.Fsyncs, d.PagesWritten, d.ChecksumFails)
	}
	return err
}

func tortureRound(seed int64, kind treeKind, entry menuEntry, recWorkers int, draws tortDraws, rng *rand.Rand, cfg tortureConfig) (restart time.Duration, counts roundCounts, err error) {
	inj := fault.New(seed)
	// Every firing counts, a shutdown's included, whichever way the round
	// ends.
	defer func() { counts.trips = int64(len(inj.Trips())) }()
	spec := entry.spec
	spec.After = 1 + int64(rng.Intn(entry.spread))

	eopts := engine.Options{Injector: inj, PoolCapacity: 40, PageOriented: cfg.pageOriented,
		PrefetchWindow: 8, ForceOnAACommit: draws.forceAA}
	var e *engine.Engine
	if entry.atClose {
		dir, err := os.MkdirTemp("", "pitree-tort-*")
		if err != nil {
			return 0, counts, err
		}
		defer os.RemoveAll(dir)
		eopts.DataDir, eopts.SegmentSize, eopts.SlotSize, eopts.Sync = dir, 1<<15, 4096, wal.SyncNever
		if e, _, err = engine.Open(eopts); err != nil {
			return 0, counts, fmt.Errorf("open: %v", err)
		}
	} else {
		inj.Arm(entry.point, spec)
		e = engine.New(eopts)
	}
	tree, err := kind.create(e, draws)
	if err != nil {
		// Creation can only fail if the fault fired this early; the round
		// degenerates to "nothing ever committed", which recovery of an
		// empty image trivially satisfies.
		if errors.Is(err, fault.ErrInjected) || inj.Crashed() {
			return 0, counts, nil
		}
		return 0, counts, fmt.Errorf("create: %v", err)
	}

	// Concurrent transactional workload. Workers own disjoint key sets,
	// so each worker's oracle entries are exact: a nil Commit guarantees
	// durability (the commit record was stable when acked) and a non-nil
	// Commit guarantees rollback (the record can never become stable).
	oracle := make([]map[uint64]oracleVal, cfg.workers)
	attempted := make([]map[uint64]bool, cfg.workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		oracle[w] = make(map[uint64]oracleVal)
		attempted[w] = make(map[uint64]bool)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed ^ int64(w+1)*7919))
			seq := 0
			for i := 0; i < cfg.ops; i++ {
				if inj.Crashed() || e.Degraded() {
					return
				}
				// Some transactions commit a multi-key vectorized batch
				// instead of a single op. The whole batch acks or rolls back
				// as one commit, so on ack every batch key joins the oracle;
				// otherwise every batch key must be absent (or at its prior
				// acked state) after recovery — a crash that lands between
				// two leaf-runs of the batch must not leak a partial batch.
				if bt, isBatcher := tree.(tortBatcher); isBatcher && wrng.Intn(5) == 0 {
					n := 2 + wrng.Intn(7)
					bks := make([]uint64, 0, n)
					bvs := make([][]byte, 0, n)
					inBatch := make(map[uint64]bool, n)
					for len(bks) < n {
						k := uint64(w + cfg.workers*wrng.Intn(cfg.ops/2+1))
						if inBatch[k] {
							continue
						}
						inBatch[k] = true
						seq++
						bks = append(bks, k)
						bvs = append(bvs, []byte(fmt.Sprintf("v%d.%d.%d", w, k, seq)))
					}
					tx := e.TM.Begin()
					if err := bt.insertBatch(tx, bks, bvs); err != nil {
						_ = tx.Abort()
						continue
					}
					for _, k := range bks {
						attempted[w][k] = true
					}
					if wrng.Intn(8) == 0 {
						_ = tx.Abort()
						continue
					}
					if err := tx.Commit(); err != nil {
						continue
					}
					for j, k := range bks {
						oracle[w][k] = oracleVal{present: true, val: string(bvs[j])}
					}
					continue
				}
				k := uint64(w + cfg.workers*wrng.Intn(cfg.ops/2+1))
				present := oracle[w][k].present
				if draws.forceAA && wrng.Intn(4) == 0 {
					// An atomic write: its commit is forced, so an ack is
					// durable and an error leaves the key as it was.
					attempted[w][k] = true
					if present && wrng.Intn(2) == 0 {
						if tree.remove(nil, k) == nil {
							oracle[w][k] = oracleVal{}
						}
						continue
					}
					seq++
					val := fmt.Sprintf("v%d.%d.%d", w, k, seq)
					if tree.insert(nil, k, []byte(val)) == nil {
						oracle[w][k] = oracleVal{present: true, val: val}
					}
					continue
				}
				tx := e.TM.Begin()
				var opErr error
				del := false
				val := ""
				if present && wrng.Intn(2) == 0 {
					del = true
					opErr = tree.remove(tx, k)
				} else {
					seq++
					val = fmt.Sprintf("v%d.%d.%d", w, k, seq)
					opErr = tree.insert(tx, k, []byte(val))
				}
				if opErr != nil {
					_ = tx.Abort()
					continue
				}
				attempted[w][k] = true
				if wrng.Intn(8) == 0 {
					_ = tx.Abort()
					continue
				}
				if err := tx.Commit(); err != nil {
					// Not durable, rolled back: oracle unchanged.
					continue
				}
				if del {
					oracle[w][k] = oracleVal{}
				} else {
					oracle[w][k] = oracleVal{present: true, val: val}
				}
			}
		}(w)
	}

	// On TSB rounds, a snapshot writer and lock-free snapshot readers join
	// the mix on their own key space, racing the workers, the chaos below,
	// and background version GC. They run until the workers finish their
	// bounded op counts (or the armed fault crashes the world first — many
	// menu entries never trip): snapStop is their off switch, flipped
	// after wg drains so they cannot outlive the round.
	var snapO *snapOracle
	var snapWG sync.WaitGroup
	var snapStop atomic.Bool
	if tt, isTSB := tree.(tsbTort); isTSB {
		snapO = &snapOracle{}
		snapO.last.Store(-1)
		snapWG.Add(3)
		go func() { defer snapWG.Done(); runSnapWriter(e, inj, tree, snapO, seed, &snapStop) }()
		for r := 0; r < 2; r++ {
			go func() { defer snapWG.Done(); runSnapReader(e, inj, tt.t, snapO, &snapStop) }()
		}
	}

	// Background chaos: flushes, checkpoints, drains — all failable.
	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		crng := rand.New(rand.NewSource(seed * 31))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if inj.Crashed() {
				return
			}
			switch crng.Intn(4) {
			case 0:
				_, _ = e.FlushAll()
			case 1:
				_, _ = e.Checkpoint()
			case 2:
				tree.drain()
			case 3:
				// Full scans drive the pool's read-ahead so the
				// transient-prefetch round has hints to fault.
				if sc, isScanner := tree.(tortScanner); isScanner {
					_ = sc.scanSome()
				}
			}
		}
	}()

	wg.Wait()
	snapStop.Store(true)
	snapWG.Wait()
	close(stop)
	chaosWG.Wait()

	if snapO != nil {
		if err := snapO.err(); err != nil {
			return 0, counts, fmt.Errorf("snapshot oracle: %w (trips: %v)", err, inj.Trips())
		}
	}

	// Restart clean: the injector died with the process. The drawn worker
	// count routes recovery through the serial or parallel pipeline. A
	// memory-backed restart's pool is as small as the workload's, so redo
	// elides and replays too. A file-backed one keeps an unbounded pool: a
	// TSB node can outgrow its 4 KiB page slots, and a bounded restart
	// would have to write such a node back.
	counts.add(e.Pools())
	counts.addTree(tree)
	ropts := engine.Options{PageOriented: cfg.pageOriented, RecoveryWorkers: recWorkers}
	if !entry.atClose {
		ropts.PoolCapacity = eopts.PoolCapacity
	}
	var e2 *engine.Engine
	var crashImage fsys.FS
	defer func() { err = withCrashImage(withPageFiles(err, e2), crashImage) }()
	var restartStart time.Time
	if entry.atClose {
		// The shutdown is the crash site. A Close cut short by the fault
		// still releases its files, and the next incarnation reads them.
		inj.Arm(entry.point, spec)
		tree.close()
		_ = e.Close()
		mem := fsys.NewMem()
		if err := copyImage(fsys.OS, eopts.DataDir, mem, "."); err != nil {
			return 0, counts, fmt.Errorf("copy the crash image: %v", err)
		}
		crashImage = mem
		restartStart = time.Now()
		ropts.DataDir = eopts.DataDir
		if e2, _, err = engine.Open(ropts); err != nil {
			return 0, counts, fmt.Errorf("reopen after shutdown: %v\ntrips: %v", err, inj.Trips())
		}
		defer e2.Close()
	} else {
		// Freeze the world if the armed fault never crashed it (permanent /
		// transient entries, or an After past the workload's hit count).
		if !inj.Crashed() {
			inj.TripCrash()
		}
		tree.close()
		// Park the read-ahead workers: the crash image is about to be taken
		// and this engine abandoned, so no prefetcher may outlive the round.
		for _, p := range e.Pools() {
			p.StopPrefetch()
		}
		img := e.Crash(nil)
		crashImage = img.FS
		restartStart = time.Now()
		e2 = engine.Restarted(img, ropts)
	}
	var pend recoveryPending
	// The crash may predate the tree creation becoming stable; then
	// nothing can have committed.
	noTree := func(why error) (time.Duration, roundCounts, error) {
		for w := range oracle {
			for k, v := range oracle[w] {
				if v.present {
					return 0, counts, fmt.Errorf("tree absent after crash (%v) but key %d was acked", why, k)
				}
			}
		}
		return time.Since(restartStart), counts, nil
	}
	tree2, err := kind.open(e2, &pend, draws)
	if err != nil {
		return noTree(err)
	}
	defer tree2.close()
	if err := finishAudited(e2, pend.finish, tree2.drain); err != nil {
		return 0, counts, fmt.Errorf("%v\ntrips: %v", err, inj.Trips())
	}
	if pend.absent() {
		return noTree(errors.New("undo rolled back its creation"))
	}
	restart = time.Since(restartStart)
	counts.add(e2.Pools())
	counts.addTree(tree2)

	if err := tree2.verify(); err != nil {
		return 0, counts, fmt.Errorf("tree ill-formed after recovery: %v\ntrips: %v", err, inj.Trips())
	}
	for w := range oracle {
		for k, v := range oracle[w] {
			got, ok, err := tree2.lookup(k)
			if err != nil {
				return 0, counts, fmt.Errorf("lookup %d: %v", k, err)
			}
			if v.present {
				if !ok {
					return 0, counts, fmt.Errorf("durability violation: committed key %d lost (trips: %v)", k, inj.Trips())
				}
				if string(got) != v.val {
					return 0, counts, fmt.Errorf("durability violation: key %d = %q, committed %q", k, got, v.val)
				}
			} else if ok {
				return 0, counts, fmt.Errorf("ghost: deleted key %d present after recovery", k)
			}
		}
		// No-ghost: keys attempted but never acked must be absent.
		for k := range attempted[w] {
			if _, acked := oracle[w][k]; acked {
				continue
			}
			if _, ok, _ := tree2.lookup(k); ok {
				return 0, counts, fmt.Errorf("ghost: unacked key %d present after recovery (trips: %v)", k, inj.Trips())
			}
		}
	}
	// The snapshot writer's last acked round must have survived intact:
	// every snap key holds exactly that round (later rounds either acked —
	// making them the last — or failed their commit and rolled back).
	if snapO != nil {
		if last := snapO.last.Load(); last >= 0 {
			want := fmt.Sprintf("s%d", last)
			for i := uint64(0); i < snapKeys; i++ {
				got, ok, err := tree2.lookup(snapKeyBase + i)
				if err != nil {
					return 0, counts, fmt.Errorf("snap key %d: %v", i, err)
				}
				if !ok || string(got) != want {
					return 0, counts, fmt.Errorf("snapshot durability violation: snap key %d = %q ok=%v, committed %q (trips: %v)",
						i, got, ok, want, inj.Trips())
				}
			}
		}
	}

	// Lazy completion must converge the recovered tree.
	tree2.drain()
	if err := tree2.verify(); err != nil {
		return 0, counts, fmt.Errorf("tree ill-formed after completion: %v", err)
	}
	return restart, counts, nil
}
