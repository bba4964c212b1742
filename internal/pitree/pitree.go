// Package pitree is the Π-tree protocol kernel: the one concurrency-and-
// recovery protocol of Lomet & Salzberg (SIGMOD 1992) that every Π-tree
// shares, written once and generic over the tree's node type N and
// search-key type K.
//
// The kernel owns
//
//   - the per-operation context (Op), its latch-rank arithmetic, and the
//     pinned, latched node reference (Ref) with Acquire / Release /
//     Promote (§4.1.1 resource ordering and the promotion rule);
//   - Step, the edge rule: acquire the target, then release the source —
//     coupled where nodes can be de-allocated (CP), one latch at a time
//     where they cannot (CNS, §5.2);
//   - both descents: the fully latched one and the optimistic one, which
//     reads interior nodes through version-validated snapshots and
//     re-validates the source after loading the target of every edge;
//   - RetryLoop and the No-Wait lock dance (§4.1.2), and the atomic
//     action that creates a tree (Create);
//   - the leaf update action (Update): every tree's one write path, from
//     the U-latched descent to the commit before the latch drops, for a
//     sorted run of one or more keys, and its read-side twin (ReadRuns);
//   - the leaf walk of every range scan (Scan) and the logical undo of a
//     record (Compensate, §4.2);
//   - the bracket every structure change runs in (Op.Atomic, §4.3.1) and
//     on it the half split of every node (Split, §3.2.1) — its sibling's
//     page, format and move lock, its record, and at the root the growth
//     in place (the root case of §5.3's space test) — the index-term
//     posting action (Post, §5.3) and the consolidation action that frees
//     a node (Absorb, §3.3, §5.2.2);
//   - every node image in the log: the format of a fresh page (Split,
//     Create), the growth's record, and the redo and undo of both and of
//     every split record (NodeKinds.Register);
//   - the completion queue (queue.go) that schedules completing atomic
//     actions lazily (§5.1);
//   - the walk over every reachable page (Walk) and on it the
//     well-formedness check of §2.1.3 (Verify).
//
// A tree supplies a Space: how to read a node's level and dead mark, how
// to clone it for a navigation snapshot, where a key routes from it, what
// to do when a descent follows a side pointer, and which pages a node
// points to; one NodeKinds: its image kinds and codec, how a root is raised
// over two terms, and its split kinds; and for each split a Cut: where the
// node is cut, what the split record says and how it is redone and undone.
// Everything else — key space, split choice, clipping, version visibility,
// which node to consolidate, the other records' codecs, what an undo
// changes — stays in the tree's own package.
package pitree

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
)

// RouteKind says where a key lives relative to a node.
type RouteKind uint8

const (
	// Here: the node directly contains the key and the descent stops.
	Here RouteKind = iota
	// Side: the key's space was delegated to the sibling Route.Pid.
	Side
	// Child: the node directly contains the key; Route.Pid is the child
	// responsible for it (approximately, when postings are pending).
	Child
	// Restart: the key cannot be reached from this node (the structure
	// changed under the traversal); the operation restarts.
	Restart
)

// Route is a Space's answer for one key at one node. Tag is the tree's
// own annotation on a Side route (which kind of sibling, which sibling
// term); the kernel hands it back to Edge untouched.
type Route struct {
	Kind RouteKind
	Pid  storage.PageID
	Tag  int
}

// Space is the contract a Π-tree supplies to the kernel. Nodes handed to
// Level, Dead and Route are either latched or immutable validated
// snapshots; Edge may run under the node's latch and must not block.
type Space[N, K any] interface {
	// Level is the node's level: 0 for data nodes, parents one above
	// their children.
	Level(n N) int
	// Dead reports a de-allocated node still marked in place (§5.2.2(b));
	// a traversal that lands on one restarts.
	Dead(n N) bool
	// Clone returns a deep copy: a navigation snapshot, never changed, or
	// the lower half of a growing root, which Split cuts before it formats
	// it.
	Clone(n N) N
	// Writable reports whether a leaf may take writes; a write whose
	// descent ends on one that may not (a TSB history node) restarts.
	Writable(n N) bool
	// Route answers where key lives relative to n. stop is true when n is
	// at the descent's target level: a node that directly contains key
	// then answers Here rather than choosing a child.
	Route(n N, key K, stop bool) Route
	// Edge is the hook on an edge the descent is about to follow out of n
	// (the page in f): every Side route — the tree counts the traversal
	// and, when sched is set, schedules the completing action that posts
	// the sibling (§5.1) — and, when the caller passed a trace, every
	// Child route, so the tree can save the path (§5.2).
	Edge(n N, f *storage.Frame, r Route, sched bool, trace any)
	// Links calls fn with every page n points to: each side pointer, with
	// term -1, and in an index node each index term's child, with the
	// term's position.
	Links(n N, fn func(pid storage.PageID, term int))
	// EncodedSize is the length of n's image as the tree's codec writes
	// it, in O(1): what Fits holds against the page's room.
	EncodedSize(n N) int
}

// MaxLevel bounds the tree height for rank arithmetic; acquiring the root
// at MaxLevel ranks it before every other node.
const MaxLevel = 63

// ErrRetry restarts an operation from the descent; it never escapes a
// tree package.
var ErrRetry = errors.New("pitree: internal retry")

// ErrLevelGone reports a descent target level above the current root.
var ErrLevelGone = errors.New("pitree: target level does not exist")

// ErrRecordTooLarge reports a record no node can take: a write refused at
// the call by Admit, before any lock or log record, or a structure change
// that would have built a node image larger than its page (Split, and a
// tree's soft overflow). Nothing of the refused write or action remains.
var ErrRecordTooLarge = errors.New("pitree: record too large for a node")

// Config is the per-tree state the kernel reads.
type Config struct {
	// Name prefixes the kernel's error messages ("core", "tsb", ...).
	Name string
	// Store holds the tree's pages; Verify and Responsible read its
	// free-space map.
	Store *storage.Store
	// TM starts the atomic actions of non-transactional leaf writes.
	TM *txn.Manager
	// Root is the root's page ID, fixed for the tree's lifetime; the root
	// node is never de-allocated.
	Root storage.PageID
	// Couple makes latched edges couple (§5.2.2, the CP invariant): the
	// target is latched before the source is released, because a node can
	// be de-allocated while only a pointer to it is held. False is the
	// CNS invariant's one latch at a time (§5.2.1).
	Couple bool
	// Pessimistic forces every descent onto the fully latched path.
	Pessimistic bool
	// PageLock, when set, names the page-granule lock a transaction takes
	// in IX mode on every leaf it updates — what a later move lock on the
	// page must wait for (§4.2.2). Nil for a tree whose record undo is
	// not page-oriented.
	PageLock func(storage.PageID) lock.Name
	// Tasks, when set, is the tree's completion queue: Absorb does not free
	// a page while the posting of its term (PostKey) is queued or running,
	// and counts each such deferral in Deferred. Nil for a tree whose
	// postings read the child they name under the parent latch a
	// consolidation holds X (core).
	Tasks    interface{ Refs(TaskKey) bool }
	Deferred *atomic.Int64
	// IndexHold, when set, records hold durations of U/X latches on index
	// nodes.
	IndexHold *latch.HoldTimer
	// MoveLockWaits, when set, counts the waits for a new page's stale
	// move lock (Split, under PageLock).
	MoveLockWaits *atomic.Int64
	// Restarts counts RetryLoop restarts; the Optimistic counters count
	// snapshot reads served without a latch, snapshot refreshes, and
	// descents abandoned to the latched path.
	Restarts            *atomic.Int64
	OptimisticHits      *atomic.Int64
	OptimisticRetries   *atomic.Int64
	OptimisticFallbacks *atomic.Int64
}

// shared is the non-generic part of a kernel that operation contexts
// point back to.
type shared struct {
	Config
	ops sync.Pool

	// rootf caches the root's buffer frame with one permanent pin, taken
	// lazily on first use and dropped by Close. The root page ID is fixed
	// and the root is never de-allocated, so the frame never goes stale;
	// the cache turns the hottest fetch of every descent into a single
	// atomic load instead of a page-table lookup.
	rootf atomic.Pointer[storage.Frame]
}

// Kernel runs the protocol for one tree.
type Kernel[N, K any] struct {
	s     shared
	sp    Space[N, K]
	kinds *NodeKinds[N]
	// room is the most bytes a node's image may take: the store's page
	// room (storage.Pool.Room).
	room int
}

// New returns the kernel for the tree described by cfg, sp and kinds.
func New[N, K any](cfg Config, sp Space[N, K], kinds *NodeKinds[N]) *Kernel[N, K] {
	k := &Kernel[N, K]{sp: sp, kinds: kinds, room: cfg.Store.Pool.Room()}
	k.s.Config = cfg
	k.s.Store.Pool = cfg.Store.Pool
	return k
}

// Fits is the space test of every node (the paper's nodes are pages, and
// a page is full when it has no room): n's image, grown by extra bytes,
// still fits its page.
func (k *Kernel[N, K]) Fits(n N, extra int) bool { return k.sp.EncodedSize(n)+extra <= k.room }

// Room returns the most bytes a node's image may take.
func (k *Kernel[N, K]) Room() int { return k.room }

// Admit refuses, with ErrRecordTooLarge, a record of size bytes: more than
// a quarter of the room. The tree's size is the record's encoded bytes plus
// those of every further copy of its key that a node's bounds or an index
// term may hold. Then a node with its bounds and one record always has
// room for a second, so a split of a full node always makes progress and
// ends in nodes that fit.
func (k *Kernel[N, K]) Admit(size int) error {
	if limit := k.room / 4; size > limit {
		return fmt.Errorf("%w: %d bytes, limit %d", ErrRecordTooLarge, size, limit)
	}
	return nil
}

// MaxRecord bounds what Admit accepts on any page size: a quarter of the
// largest page. A log payload's decoder refuses a length above it before it
// sizes anything by that length.
const MaxRecord = storage.MaxSlotSize / 4

// Close drops the cached root pin. A straggling operation may briefly
// re-cache it; the pin is process-local bookkeeping, so that is harmless.
func (k *Kernel[N, K]) Close() {
	if f := k.s.rootf.Swap(nil); f != nil {
		k.s.Store.Pool.Unpin(f)
	}
}

// rootFrame returns the root's frame, pinned for the caller. The first
// call fetches and keeps one extra permanent pin; later calls re-pin the
// cached frame (safe: the permanent pin keeps the count non-zero, see
// Frame.Pin).
func (k *Kernel[N, K]) rootFrame() (*storage.Frame, error) {
	if f := k.s.rootf.Load(); f != nil {
		f.Pin()
		return f, nil
	}
	f, err := k.s.Store.Pool.Fetch(k.s.Root)
	if err != nil {
		return nil, err
	}
	if !k.s.rootf.CompareAndSwap(nil, f) {
		// Lost the race to cache; the winner cached the same frame (one
		// page ID maps to one buffered frame), and our fetch pin is the
		// caller's.
		return f, nil
	}
	// Our fetch pin becomes the cache's permanent pin; take another for
	// the caller.
	f.Pin()
	return f, nil
}

// RetryLoop runs fn, each attempt under a fresh operation context for tx,
// until it succeeds or fails with a real error; ErrRetry is a counted
// restart. Every attempt must have released its latches by the time fn
// returns.
func (k *Kernel[N, K]) RetryLoop(tx *txn.Txn, fn func(o *Op[N]) error) error {
	for {
		o := k.NewOp(tx)
		err := fn(o)
		o.Done()
		if !errors.Is(err, ErrRetry) {
			return err
		}
		k.s.Restarts.Add(1)
	}
}
