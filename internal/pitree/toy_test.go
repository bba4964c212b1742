package pitree

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/enc"
	"repro/internal/fsys"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// A fourth Π-tree, defined only here: an in-memory B-link tree over int
// keys with hand-built nodes. It supplies nothing but the Space contract,
// which is the point — if the kernel can run it, the contract is
// sufficient — and its hooks let a test act at the exact instants the
// three real trees reach only by luck of scheduling.

type toyNode struct {
	level int
	low   int // directly contains [low, high)
	high  int
	right storage.PageID
	dead  bool
	seps  []int // index nodes: kids[i] is responsible for [seps[i], seps[i+1])
	kids  []storage.PageID
	keys  []int       // leaves: the stored keys, sorted, at most toyCap
	vals  map[int]int // leaves: a key's value, 0 when absent (scans read it)
}

type toy struct {
	reg  *storage.Registry // withSpace's
	pool *storage.Pool
	log  *wal.Log
	lm   *lock.Manager
	tm   *txn.Manager
	kern *Kernel[*toyNode, int]

	restarts, hits, retries, fallbacks atomic.Int64

	op      *Op[*toyNode] // the operation whose tracker the hooks sample
	maxHeld int           // most latches op held at any hook call
	sides   int           // Side edges reported
	posted  int           // Side edges reported with sched set
	clones  map[*toyNode]int
	onClone func(n *toyNode) // runs inside Clone, under n's S latch
	onRoute func(n *toyNode) // runs inside Route
	warmed  chan *toyNode    // nodes read-ahead warmed, when set (toyCodec)
}

// Toy pages start after the store's meta page, which absorb_test.go
// formats.
const (
	toyRoot storage.PageID = iota + storage.MetaPage + 1
	toyLeft
	toyRight
	toyLeafA
	toyLeafB
	toyLeafC // reachable only through toyLeafB's side pointer
	toyLeafD
)

// newToy builds a three-level tree:
//
//	root[0,inf) -> left[0,100) -> leafA[0,50)  leafB[50,75) ~> leafC[75,100)
//	            -> right[100,inf) -> leafD[100,inf)
//
// leafC's index term is unposted: keys 75..99 route to leafB and side-
// traverse.
func newToy(t *testing.T, couple, pessimistic bool) *toy {
	t.Helper()
	ty := &toy{log: wal.New(), lm: lock.NewManager(), clones: map[*toyNode]int{}}
	disk, err := storage.OpenFileDisk(fsys.NewMem(), "pages", 0)
	if err != nil {
		t.Fatal(err)
	}
	ty.pool = storage.NewPool(1, disk, ty.log, toyCodec{ty}, 0)
	reg := toyRegistry()
	reg.AddPool(ty.pool) // a growth's undo compensates the root
	ty.tm = txn.NewManager(ty.log, ty.lm, reg, txn.Options{})
	inf := math.MaxInt
	ty.put(t, toyRoot, &toyNode{level: 2, high: inf, seps: []int{0, 100}, kids: []storage.PageID{toyLeft, toyRight}})
	ty.put(t, toyLeft, &toyNode{level: 1, high: 100, right: toyRight, seps: []int{0, 50}, kids: []storage.PageID{toyLeafA, toyLeafB}})
	ty.put(t, toyRight, &toyNode{level: 1, low: 100, high: inf, seps: []int{100}, kids: []storage.PageID{toyLeafD}})
	ty.put(t, toyLeafA, &toyNode{high: 50, right: toyLeafB})
	ty.put(t, toyLeafB, &toyNode{low: 50, high: 75, right: toyLeafC})
	ty.put(t, toyLeafC, &toyNode{low: 75, high: 100, right: toyLeafD})
	ty.put(t, toyLeafD, &toyNode{low: 100, high: inf})
	ty.kern = New[*toyNode, int](Config{
		Name: "toy", Store: &storage.Store{Pool: ty.pool}, TM: ty.tm, Root: toyRoot, Couple: couple, Pessimistic: pessimistic,
		Restarts: &ty.restarts, OptimisticHits: &ty.hits, OptimisticRetries: &ty.retries, OptimisticFallbacks: &ty.fallbacks,
	}, ty, &toyKinds)
	t.Cleanup(ty.kern.Close)
	return ty
}

// toyRegistry knows the toy's record kinds: its node images' and its
// split's (the kernel's handlers), the split's compensation, and its own
// kinds, which are redo-only (rollback backs its chain over them).
func toyRegistry() *storage.Registry {
	reg := storage.NewRegistry()
	registerToy(reg)
	return reg
}

func registerToy(reg *storage.Registry) {
	toyKinds.Register(reg)
	reg.Register(toyKindUnsplit, storage.Handler{Redo: RedoNode(applyToyUnsplit)})
	for _, k := range []wal.Kind{toyKindAdd, toyKindTerm} {
		reg.Register(k, storage.Handler{Redo: func(*storage.Frame, *wal.Record) error { return nil }})
	}
}

const (
	toyKindFormat  = wal.Kind(210)
	toyKindRestore = wal.Kind(211)
	toyKindGrow    = wal.Kind(212)
)

// toyKinds describes the toy's node images: the bounds, the side pointer,
// the index terms and a leaf's keys, enough for a split, a root growth and
// their undo.
var toyKinds = NodeKinds[*toyNode]{
	Format: toyKindFormat, Restore: toyKindRestore, Grow: toyKindGrow,
	Image: func(n *toyNode) []byte {
		var w enc.Writer
		for _, v := range []int{n.level, n.low, n.high, int(n.right), len(n.seps)} {
			w.U64(uint64(v))
		}
		for i := range n.seps {
			w.Reset(toyTerm(w.Bytes(), n.seps[i], n.kids[i]))
		}
		w.U64(uint64(len(n.keys)))
		for _, k := range n.keys {
			w.U64(uint64(k))
		}
		return w.Bytes()
	},
	Decode: func(b []byte) (*toyNode, error) {
		r := enc.NewReader(b)
		n := &toyNode{level: int(r.U64()), low: int(r.U64()), high: int(r.U64()), right: storage.PageID(r.U64())}
		setToyTerms(n, r.Records(int(r.U64()), toyTermLayout))
		if nk := r.U64(); r.Err() == nil && nk <= uint64(r.Remaining()/8) {
			for i := uint64(0); i < nk; i++ {
				n.keys = append(n.keys, int(r.U64()))
			}
		} else {
			return n, enc.ErrTruncated
		}
		return n, r.Err()
	},
	Layout: toyTermLayout,
	Splits: []Cut[*toyNode]{&toyCut{}},
	Term:   func(dst []byte, n *toyNode, pid storage.PageID) []byte { return toyTerm(dst, n.low, pid) },
	Raise: func(n *toyNode, terms enc.Records) {
		n.level++
		n.keys = nil
		setToyTerms(n, terms)
	},
}

// A toy index term is its separator and its child, eight bytes each.
var toyTermLayout = enc.Layout{8, 8}

func toyTerm(dst []byte, sep int, kid storage.PageID) []byte {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(dst, uint64(sep)), uint64(kid))
}

// setToyTerms makes terms n's only index terms.
func setToyTerms(n *toyNode, terms enc.Records) {
	n.seps, n.kids = make([]int, terms.Len()), make([]storage.PageID, terms.Len())
	for i := range n.seps {
		t := terms.At(i)
		n.seps[i], n.kids[i] = int(binary.LittleEndian.Uint64(t)), storage.PageID(binary.LittleEndian.Uint64(t[8:]))
	}
}

func (ty *toy) put(t *testing.T, pid storage.PageID, data any) {
	t.Helper()
	f, err := ty.pool.Create(pid)
	if err != nil {
		t.Fatal(err)
	}
	f.Data = data
	ty.pool.Unpin(f)
}

// node returns pid's live node (quiescent helper).
func (ty *toy) node(t *testing.T, pid storage.PageID) *toyNode {
	t.Helper()
	f, err := ty.pool.Fetch(pid)
	if err != nil {
		t.Fatal(err)
	}
	defer ty.pool.Unpin(f)
	return f.Data.(*toyNode)
}

// setDead marks pid's node under its X latch, as a consolidation would.
func (ty *toy) setDead(t *testing.T, pid storage.PageID, dead bool) {
	t.Helper()
	f, err := ty.pool.Fetch(pid)
	if err != nil {
		t.Fatal(err)
	}
	f.Latch.AcquireX()
	f.Data.(*toyNode).dead = dead
	f.Latch.ReleaseX()
	ty.pool.Unpin(f)
}

// bump moves pid's latch version, as any update of the node would. It
// only tries the latch, so it is a no-op when the caller's own descent
// holds the node latched.
func (ty *toy) bump(pid storage.PageID) {
	f, err := ty.pool.Fetch(pid)
	if err != nil {
		panic(err)
	}
	if f.Latch.TryAcquireX() {
		f.Latch.ReleaseX()
	}
	ty.pool.Unpin(f)
}

// descend runs one kernel descent for key and releases its result.
func (ty *toy) descend(key, stopLevel int, mode latch.Mode) (storage.PageID, error) {
	o := ty.kern.NewOp(nil)
	defer o.Done()
	ty.op, ty.maxHeld = o, 0
	r, err := ty.kern.Descend(o, key, stopLevel, mode, true, nil)
	if err != nil {
		return storage.NilPage, err
	}
	pid := r.Pid()
	o.Release(&r)
	return pid, nil
}

func (ty *toy) sample() {
	if ty.op == nil {
		return
	}
	if h := ty.op.Tr.HeldCount(); h > ty.maxHeld {
		ty.maxHeld = h
	}
}

func (ty *toy) Level(n *toyNode) int   { ty.sample(); return n.level }
func (ty *toy) Dead(n *toyNode) bool   { ty.sample(); return n.dead }
func (ty *toy) Writable(*toyNode) bool { return true }

func (ty *toy) Clone(n *toyNode) *toyNode {
	ty.clones[n]++
	if ty.onClone != nil {
		ty.onClone(n)
	}
	c := *n
	return &c
}

func (ty *toy) Route(n *toyNode, key int, stop bool) Route {
	ty.sample()
	if ty.onRoute != nil {
		ty.onRoute(n)
	}
	switch {
	case key < n.low || (key >= n.high && n.right == storage.NilPage):
		return Route{Kind: Restart}
	case key >= n.high:
		return Route{Kind: Side, Pid: n.right}
	case stop:
		return Route{Kind: Here}
	}
	i := len(n.seps) - 1
	for n.seps[i] > key {
		i--
	}
	return Route{Kind: Child, Pid: n.kids[i]}
}

func (ty *toy) Edge(n *toyNode, f *storage.Frame, r Route, sched bool, trace any) {
	ty.sample()
	if r.Kind == Side {
		ty.sides++
		if sched {
			ty.posted++
		}
	}
}

func (ty *toy) Links(n *toyNode, fn func(pid storage.PageID, term int)) {
	if n.right != storage.NilPage {
		fn(n.right, -1)
	}
	for i, kid := range n.kids {
		fn(kid, i)
	}
}

// EncodedSize encodes the node: the toy's images are small, and O(1) is a
// real tree's concern.
func (ty *toy) EncodedSize(n *toyNode) int { return len(toyKinds.Image(n)) }

// The toy tree's split: a node's upper half — its keys, or its index terms,
// from the middle one on — goes to the new sibling. The split record is the
// sibling's term, the separator and the page; its undo takes the sibling's
// image back (toyKindUnsplit).

const (
	toyKindSplit   = wal.Kind(201)
	toyKindUnsplit = wal.Kind(206)
)

// toyCut is the toy's Cut. posted, when set, counts its Post calls.
type toyCut struct {
	posted *int
	sep    int
}

func (*toyCut) Kind() wal.Kind { return toyKindSplit }

func (c *toyCut) Sibling(n *toyNode, pid storage.PageID) (*toyNode, []byte) {
	s := &toyNode{level: n.level, high: n.high, right: n.right}
	if n.level == 0 {
		mid := len(n.keys) / 2
		c.sep, s.keys = n.keys[mid], slices.Clone(n.keys[mid:])
	} else {
		mid := len(n.seps) / 2
		c.sep, s.seps, s.kids = n.seps[mid], slices.Clone(n.seps[mid:]), slices.Clone(n.kids[mid:])
	}
	s.low = c.sep
	return s, toyTerm(nil, c.sep, pid)
}

// decToySplit reads a split record: the separator and the sibling.
func decToySplit(p []byte) (int, storage.PageID, error) {
	if len(p) != 16 {
		return 0, storage.NilPage, fmt.Errorf("toy: split record of %d bytes", len(p))
	}
	return int(binary.LittleEndian.Uint64(p)), storage.PageID(binary.LittleEndian.Uint64(p[8:])), nil
}

func (*toyCut) Apply(n *toyNode, payload []byte) error {
	sep, sib, err := decToySplit(payload)
	if err != nil {
		return err
	}
	n.keys = slices.DeleteFunc(slices.Clone(n.keys), func(k int) bool { return k >= sep })
	at, _ := slices.BinarySearch(n.seps, sep)
	n.seps, n.kids = slices.Clone(n.seps[:at]), slices.Clone(n.kids[:at])
	n.high, n.right = sep, sib
	return nil
}

func (*toyCut) Undo(payload []byte, sibling func(storage.PageID) (*toyNode, []byte, error)) (storage.Compensation, error) {
	_, sib, err := decToySplit(payload)
	if err != nil {
		return storage.Compensation{}, err
	}
	_, img, err := sibling(sib)
	return storage.Compensation{Kind: toyKindUnsplit, Payload: img}, err
}

func (*toyCut) Done(*toyNode, *toyNode, bool) {}

func (c *toyCut) Post(_, _ storage.PageID) {
	if c.posted != nil {
		*c.posted++
	}
}

// applyToyUnsplit takes back into n the sibling whose image the record
// carries.
func applyToyUnsplit(n *toyNode, rec *wal.Record) error {
	sib, err := toyKinds.Decode(rec.Payload)
	if err != nil {
		return err
	}
	n.keys = append(slices.Clone(n.keys), sib.keys...)
	n.seps, n.kids = append(slices.Clone(n.seps), sib.seps...), append(slices.Clone(n.kids), sib.kids...)
	n.high, n.right = sib.high, sib.right
	return nil
}
