package pitree

import (
	"bytes"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// splitToy is a toy tree over an engine's store, for the splits' records,
// aborts and restarts: pages allocated and formatted by Create, a kernel
// over them. Its root is a leaf when rootLeaf is set; otherwise an index
// node over two leaves, [0,50) and [50,inf).
type splitToy struct {
	e     *engine.Engine
	st    *storage.Store
	kern  *Kernel[*toyNode, int]
	root  storage.PageID
	leaf  storage.PageID // the root leaf, or the leaf [0,50)
	inj   *fault.Injector
	posts int
}

func newSplitToy(t *testing.T, rootLeaf bool) *splitToy {
	t.Helper()
	inj := fault.New(1)
	e := engine.New(engine.Options{Injector: inj})
	t.Cleanup(func() { _ = e.Close() })
	registerToy(e.Reg)
	st := e.AddStore(1, toyCodec{})
	npages := 3
	if rootLeaf {
		npages = 1
	}
	root, err := Create(st, e.TM, "toy", npages, &toyKinds, func(pids []storage.PageID) []*toyNode {
		if rootLeaf {
			return []*toyNode{{high: 1 << 40, keys: []int{10, 20, 30, 40}}}
		}
		return []*toyNode{
			{level: 1, high: 1 << 40, seps: []int{0, 50}, kids: slices.Clone(pids[1:])},
			{high: 50, right: pids[2], keys: []int{10, 20, 30, 40}},
			{low: 50, high: 1 << 40, keys: []int{60}},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	sy := &splitToy{e: e, st: st, root: root, leaf: root + 1, inj: inj}
	if rootLeaf {
		sy.leaf = root
	}
	ty := &toy{clones: map[*toyNode]int{}}
	sy.kern = New[*toyNode, int](Config{
		Name: "toy", Store: st, TM: e.TM, Root: root,
		Restarts: &ty.restarts, OptimisticHits: &ty.hits, OptimisticRetries: &ty.retries, OptimisticFallbacks: &ty.fallbacks,
	}, ty, &toyKinds)
	return sy
}

// split cuts page pid at the toy's cut in one atomic action; fail, when
// set, is the action's error once the split is done.
func (sy *splitToy) split(pid storage.PageID, fail error) error {
	o := sy.kern.NewOp(nil)
	defer o.Done()
	node, err := o.Acquire(pid, latch.X, 0)
	if err != nil {
		return err
	}
	o.Hold(&node)
	return o.Atomic(func(aa *txn.Txn) error {
		if err := sy.kern.Split(o, aa, &node, &toyCut{posted: &sy.posts}); err != nil {
			return err
		}
		return fail
	})
}

// storedImage returns the image of pid's node in st (quiescent helper).
func storedImage(t *testing.T, st *storage.Store, pid storage.PageID) []byte {
	t.Helper()
	f, err := st.Pool.Fetch(pid)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Pool.Unpin(f)
	return toyKinds.Image(f.Data.(*toyNode))
}

// storedNode returns a decoded copy of pid's node in st.
func storedNode(t *testing.T, st *storage.Store, pid storage.PageID) *toyNode {
	t.Helper()
	n, err := toyKinds.Decode(storedImage(t, st, pid))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// freeInStore reports whether st's free-space map holds pid unallocated.
func freeInStore(t *testing.T, st *storage.Store, pid storage.PageID) bool {
	t.Helper()
	next, free, ok := st.Pool.SpaceSnapshot()
	if !ok {
		t.Fatal("store has no free-space map")
	}
	return pid >= next || slices.Contains(free, pid)
}

// updates returns the update records from lsn on, and whether a commit
// follows them.
func (sy *splitToy) updates(t *testing.T, from wal.LSN) (ups []wal.Record, committed bool) {
	t.Helper()
	sy.e.Log.FullImage().Scan(from, func(r wal.Record) bool {
		switch r.Type {
		case wal.RecUpdate:
			ups = append(ups, r)
		case wal.RecCommit:
			committed = true
		}
		return true
	})
	return ups, committed
}

// wantRecords fails the test unless recs are the given kinds on the given
// pages, in order.
func wantRecords(t *testing.T, recs []wal.Record, kinds []wal.Kind, pages []storage.PageID) {
	t.Helper()
	if len(recs) != len(kinds) {
		t.Fatalf("%d update records, want %d", len(recs), len(kinds))
	}
	for i, r := range recs {
		if r.Kind != kinds[i] || r.PageID != uint64(pages[i]) {
			t.Fatalf("record %d is kind %d on page %d, want kind %d on page %d", i, r.Kind, r.PageID, kinds[i], pages[i])
		}
	}
}

// TestSplitRecords: a split allocates the sibling's page, formats it and
// logs the split record on the node, in that order, and queues the
// sibling's posting at the commit; a split of the root allocates B, then
// A, formats B, then A, and logs the growth, and owes no posting.
func TestSplitRecords(t *testing.T) {
	sy := newSplitToy(t, false)
	from := sy.e.Log.EndLSN()
	if err := sy.split(sy.leaf, nil); err != nil {
		t.Fatal(err)
	}
	ups, committed := sy.updates(t, from)
	sib := storedNode(t, sy.st, sy.leaf).right
	wantRecords(t, ups, []wal.Kind{storage.KindMetaAlloc, toyKindFormat, toyKindSplit},
		[]storage.PageID{storage.MetaPage, sib, sy.leaf})
	if !committed || sy.posts != 1 || !bytes.Equal(ups[2].Payload, toyTerm(nil, 30, sib)) {
		t.Fatalf("committed %v, %d postings queued, split record %x", committed, sy.posts, ups[2].Payload)
	}
	if a, b := storedNode(t, sy.st, sy.leaf), storedNode(t, sy.st, sib); !slices.Equal(a.keys, []int{10, 20}) || a.high != 30 ||
		!slices.Equal(b.keys, []int{30, 40}) || b.low != 30 || b.high != 50 || b.right != sy.leaf+1 {
		t.Fatalf("halves %+v and %+v", a, b)
	}

	sy = newSplitToy(t, true)
	before := storedImage(t, sy.st, sy.root)
	from = sy.e.Log.EndLSN()
	if err := sy.split(sy.root, nil); err != nil {
		t.Fatal(err)
	}
	ups, committed = sy.updates(t, from)
	root := storedNode(t, sy.st, sy.root)
	if root.level != 1 || len(root.kids) != 2 || !slices.Equal(root.seps, []int{0, 30}) {
		t.Fatalf("grown root %+v", root)
	}
	pidA, pidB := root.kids[0], root.kids[1]
	wantRecords(t, ups, []wal.Kind{storage.KindMetaAlloc, storage.KindMetaAlloc, toyKindFormat, toyKindFormat, toyKindGrow},
		[]storage.PageID{storage.MetaPage, storage.MetaPage, pidB, pidA, sy.root})
	if pidA != pidB+1 || !committed || sy.posts != 0 {
		t.Fatalf("A on page %d, B on %d; committed %v, %d postings queued", pidA, pidB, committed, sy.posts)
	}
	if want := append(toyTerm(toyTerm(nil, 0, pidA), 30, pidB), before...); !bytes.Equal(ups[4].Payload, want) {
		t.Fatalf("growth logs %x, want %x", ups[4].Payload, want)
	}
	if a, b := storedNode(t, sy.st, pidA), storedNode(t, sy.st, pidB); !slices.Equal(a.keys, []int{10, 20}) || a.right != pidB ||
		!slices.Equal(b.keys, []int{30, 40}) || b.low != 30 {
		t.Fatalf("children %+v and %+v", a, b)
	}
}

// TestSplitAbortLeavesNode: an action that fails once its split is logged
// and applied — the failpoint FPSplit, or the action's own error after the
// split — is rolled back at run time: the node is as it was, the page the
// split allocated is free again, and no posting is queued.
func TestSplitAbortLeavesNode(t *testing.T) {
	errAfter := errors.New("the action fails after its split")
	for _, rootLeaf := range []bool{false, true} {
		for _, failpoint := range []bool{false, true} {
			sy := newSplitToy(t, rootLeaf)
			before := storedImage(t, sy.st, sy.leaf)
			next, _, _ := sy.st.Pool.SpaceSnapshot()
			want, fail := error(fault.ErrInjected), error(nil)
			if failpoint {
				sy.inj.Arm(FPSplit, fault.Spec{Kind: fault.Transient})
			} else {
				want, fail = errAfter, errAfter
			}
			if err := sy.split(sy.leaf, fail); !errors.Is(err, want) {
				t.Fatalf("root leaf %v, failpoint %v: split: %v", rootLeaf, failpoint, err)
			}
			if got := storedImage(t, sy.st, sy.leaf); !bytes.Equal(got, before) {
				t.Fatalf("root leaf %v, failpoint %v: node after the abort\n%x, want\n%x", rootLeaf, failpoint, got, before)
			}
			if !freeInStore(t, sy.st, next) || !freeInStore(t, sy.st, next+1) || sy.posts != 0 {
				t.Fatalf("root leaf %v, failpoint %v: pages %d, %d free %v, %v; %d postings queued", rootLeaf, failpoint,
					next, next+1, freeInStore(t, sy.st, next), freeInStore(t, sy.st, next+1), sy.posts)
			}
		}
	}
}

// TestSplitRollbackByRestart: a split whose action's commit did not reach
// the log is rolled back by restart's undo — the split through its cut's
// Undo, from the sibling's format record — and gives back the node as it
// was before the split, with the page free again.
func TestSplitRollbackByRestart(t *testing.T) {
	for _, rootLeaf := range []bool{false, true} {
		sy := newSplitToy(t, rootLeaf)
		before := storedImage(t, sy.st, sy.leaf)
		next, _, _ := sy.st.Pool.SpaceSnapshot()
		from := sy.e.Log.EndLSN()
		if err := sy.split(sy.leaf, nil); err != nil {
			t.Fatal(err)
		}
		if err := sy.e.Log.ForceAll(); err != nil {
			t.Fatal(err)
		}
		var commit wal.LSN
		sy.e.Log.FullImage().Scan(from, func(r wal.Record) bool {
			if r.Type == wal.RecCommit {
				commit = r.LSN
			}
			return commit == wal.NilLSN
		})
		e := engine.Restarted(sy.e.Crash(&commit), engine.Options{})
		registerToy(e.Reg)
		st := e.AddStore(1, toyCodec{})
		p, err := e.AnalyzeAndRedo()
		if err == nil {
			err = e.FinishRecovery(p)
		}
		if err != nil {
			t.Fatalf("root leaf %v: restart: %v", rootLeaf, err)
		}
		if got := storedImage(t, st, sy.leaf); !bytes.Equal(got, before) {
			t.Fatalf("root leaf %v: node after restart\n%x, want\n%x", rootLeaf, got, before)
		}
		if !freeInStore(t, st, next) || !freeInStore(t, st, next+1) {
			t.Fatalf("root leaf %v: the split's pages are not free after restart", rootLeaf)
		}
		_ = e.Close()
	}
}

// TestSplitWaitsOutStaleNewPageLock: under a page lock (page-oriented
// undo), the page a split allocates for a new leaf may still be locked by a
// transaction that knew its previous incarnation. The split gives the page
// back and fails with pageLocked, leaving the node as it was; waitOut, with
// no latch held, waits for the holder, counts the wait and asks for a
// retry, which then splits.
func TestSplitWaitsOutStaleNewPageLock(t *testing.T) {
	sy := newSplitToy(t, false)
	var waits atomic.Int64
	sy.kern.s.PageLock = func(pid storage.PageID) lock.Name { return lock.PageName(toyLockSpace, uint64(pid)) }
	sy.kern.s.MoveLockWaits = &waits
	before := storedImage(t, sy.st, sy.leaf)
	next, _, _ := sy.st.Pool.SpaceSnapshot()
	holder := sy.e.TM.Begin()
	if !holder.TryLock(sy.kern.s.PageLock(next), lock.IX) {
		t.Fatal("the holder could not lock the page's name")
	}
	err := sy.split(sy.leaf, nil)
	var pl pageLocked
	if !errors.As(err, &pl) {
		t.Fatalf("split under a stale page lock: %v", err)
	}
	if !bytes.Equal(storedImage(t, sy.st, sy.leaf), before) || !freeInStore(t, sy.st, next) || sy.posts != 0 {
		t.Fatal("the refused split left the node changed, its page allocated or a posting queued")
	}
	done := make(chan error, 1)
	go func() {
		o := sy.kern.NewOp(nil)
		defer o.Done()
		done <- sy.kern.waitOut(o, err)
	}()
	select {
	case err := <-done:
		t.Fatalf("waitOut returned %v while the holder still held the lock", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrRetry) || waits.Load() != 1 {
		t.Fatalf("waitOut: %v after %d waits; want a retry after one", err, waits.Load())
	}
	if err := sy.split(sy.leaf, nil); err != nil || sy.posts != 1 {
		t.Fatalf("the retried split: %v, %d postings", err, sy.posts)
	}
}
