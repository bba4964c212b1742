package pitree

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/latch"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// The toy tree's postings: toyLeafC is unposted, so the term (75, leafC)
// is owed to toyLeft. An index node holds up to cap separators and splits
// through Kernel.Split at the toy's cut, the root by growing in place; a
// term logs one redo-only record, so the action has a chain to commit or to
// roll back over. The postings run over a store with a free-space map
// (withSpace), which the splits allocate from.

const (
	toyKindTerm  = wal.Kind(202)
	toyKindStuck = wal.Kind(203) // its undo fails: the action is doomed
)

var errToySplit = errors.New("toy: split refused")

// toyPost is the toy's Poster. Its switches and hooks expose the instants
// the kernel's Post passes through.
type toyPost struct {
	ty    *toy
	sep   int
	child storage.PageID
	level int // of the node that takes the term
	cap   int

	done      bool                      // Verify reports nothing to do
	soft      bool                      // Split reports soft overflow
	failSplit int                       // the n-th Split fails (1-based)
	onApply   func(node *Ref[*toyNode]) // runs in Apply, under every latch of the action

	splits    int
	committed int // OnCommit hooks run: the term's and the cuts' Post
}

func (p *toyPost) Search(o *Op[*toyNode]) (Ref[*toyNode], error) {
	return p.ty.kern.Descend(o, p.sep, p.level, latch.U, false, nil)
}

func (p *toyPost) Verify(_ *Op[*toyNode], node *Ref[*toyNode]) (bool, error) {
	return !p.done && !slices.Contains(node.N.seps, p.sep), nil
}

func (p *toyPost) Full(n *toyNode) bool { return len(n.seps) >= p.cap }

func (p *toyPost) Key() int { return p.sep }

func (p *toyPost) Split(*Ref[*toyNode]) (Cut[*toyNode], error) {
	p.splits++
	if p.splits == p.failSplit {
		return nil, errToySplit
	}
	if p.soft {
		return nil, nil
	}
	return &toyCut{posted: &p.committed}, nil
}

func (p *toyPost) Apply(_ *Op[*toyNode], aa *txn.Txn, node *Ref[*toyNode]) error {
	if p.onApply != nil {
		p.onApply(node)
	}
	aa.OnCommit(func() { p.committed++ })
	aa.LogUpdate(node.F, toyKindTerm, nil)
	n := node.N
	at, _ := slices.BinarySearch(n.seps, p.sep)
	n.seps, n.kids = slices.Insert(n.seps, at, p.sep), slices.Insert(n.kids, at, p.child)
	return nil
}

// newPostToy is newToy over a store with a free-space map.
func newPostToy(t *testing.T) *toy {
	ty := newToy(t, false, false)
	ty.withSpace(t)
	return ty
}

func (ty *toy) post(t *testing.T, p *toyPost) (bool, error) {
	p.ty = ty
	return ty.kern.Post(p)
}

// unlatched reports whether nobody holds pid's latch.
func (ty *toy) unlatched(t *testing.T, pid storage.PageID) bool {
	t.Helper()
	f, err := ty.pool.Fetch(pid)
	if err != nil {
		t.Fatal(err)
	}
	defer ty.pool.Unpin(f)
	if !f.Latch.TryAcquireX() {
		return false
	}
	f.Latch.ReleaseX()
	return true
}

// TestPostNothingToDo: a posting whose re-test finds the term posted, or
// that Verify turns down, or whose level is above the root, begins no
// action and logs nothing.
func TestPostNothingToDo(t *testing.T) {
	ty := newToy(t, false, false)
	if posted, err := ty.post(t, &toyPost{sep: 75, child: toyLeafC, level: 1, cap: 4}); !posted || err != nil {
		t.Fatalf("first posting: posted=%v err=%v", posted, err)
	}
	if got := ty.node(t, toyLeft); !slices.Equal(got.seps, []int{0, 50, 75}) || got.kids[2] != toyLeafC {
		t.Fatalf("left holds %v -> %v", got.seps, got.kids)
	}
	from := ty.log.EndLSN()
	for name, p := range map[string]*toyPost{
		"already posted": {sep: 75, child: toyLeafC, level: 1, cap: 4},
		"verify says no": {sep: 80, child: toyLeafC, level: 1, cap: 4, done: true},
		"level gone":     {sep: 80, child: toyLeafC, level: 5, cap: 4},
	} {
		if posted, err := ty.post(t, p); posted || err != nil {
			t.Fatalf("%s: posted=%v err=%v", name, posted, err)
		}
		if recs := ty.records(from); len(recs) != 0 || p.splits != 0 || p.committed != 0 {
			t.Fatalf("%s: %d log records, %d splits, %d commit hooks", name, len(recs), p.splits, p.committed)
		}
		if !ty.unlatched(t, toyLeft) {
			t.Fatalf("%s: left still latched", name)
		}
	}
}

// TestPostSplitKeepsBothHalvesLatched: toyLeft is full. The posting splits
// it and continues in the half that directly contains the key, and the
// half it left stays X-latched until the action's commit record is in the
// log: a reader queued on that half must find the record the moment it
// gets the latch (the commit is stalled just before its record is
// appended, so a latch released first would show a log without it).
func TestPostSplitKeepsBothHalvesLatched(t *testing.T) {
	ty := newPostToy(t)
	inj := fault.New(1)
	ty.tm.SetInjector(inj)
	inj.Arm(txn.FPAACommit, fault.Spec{Delay: 20 * time.Millisecond})
	from := ty.log.EndLSN()
	seen := make(chan []wal.RecType, 1)
	p := &toyPost{sep: 75, child: toyLeafC, level: 1, cap: 2}
	p.onApply = func(node *Ref[*toyNode]) {
		if node.Pid() == toyLeft {
			t.Error("the term went into the half that does not contain its key")
		}
		f, err := ty.pool.Fetch(toyLeft)
		if err != nil {
			t.Error(err)
			return
		}
		go func() {
			f.Latch.AcquireS() // granted by the action's release
			seen <- recTypes(ty.records(from))
			f.Latch.ReleaseS()
			ty.pool.Unpin(f)
		}()
	}
	if posted, err := ty.post(t, p); !posted || err != nil {
		t.Fatalf("posted=%v err=%v", posted, err)
	}
	if got := <-seen; !slices.Contains(got, wal.RecCommit) {
		t.Fatalf("left-behind half unlatched with the log at %v: no commit record yet", got)
	}
	left := ty.node(t, toyLeft)
	sib := ty.node(t, left.right)
	if !slices.Equal(left.seps, []int{0}) || !slices.Equal(sib.seps, []int{50, 75}) || sib.kids[1] != toyLeafC {
		t.Fatalf("halves hold %v and %v -> %v", left.seps, sib.seps, sib.kids)
	}
	if p.splits != 1 || p.committed != 2 {
		t.Fatalf("%d splits, %d commit hooks; want 1, 2 (the split's and the term's)", p.splits, p.committed)
	}
}

// TestPostSplitKeyStays: a key below the split point is posted into the
// node that was split, with no further latch taken.
func TestPostSplitKeyStays(t *testing.T) {
	ty := newPostToy(t)
	p := &toyPost{sep: 25, child: toyLeafD, level: 1, cap: 2}
	if posted, err := ty.post(t, p); !posted || err != nil {
		t.Fatalf("posted=%v err=%v", posted, err)
	}
	if got := ty.node(t, toyLeft); !slices.Equal(got.seps, []int{0, 25}) || p.splits != 1 {
		t.Fatalf("left holds %v after %d splits", got.seps, p.splits)
	}
}

// TestPostRootGrowth: a full root grows in place and the posting continues
// one level down, in the new child that directly contains the key.
func TestPostRootGrowth(t *testing.T) {
	ty := newPostToy(t)
	p := &toyPost{sep: 200, child: toyLeafD, level: 2, cap: 2}
	if posted, err := ty.post(t, p); !posted || err != nil {
		t.Fatalf("posted=%v err=%v", posted, err)
	}
	root := ty.node(t, toyRoot)
	if root.level != 3 || len(root.kids) != 2 {
		t.Fatalf("root at level %d over %v", root.level, root.kids)
	}
	if a, b := ty.node(t, root.kids[0]), ty.node(t, root.kids[1]); !slices.Equal(a.seps, []int{0}) || !slices.Equal(b.seps, []int{100, 200}) || b.level != 2 {
		t.Fatalf("children hold %v and %v (level %d)", a.seps, b.seps, b.level)
	}
	for _, pid := range []storage.PageID{toyRoot, root.kids[0], root.kids[1]} {
		if !ty.unlatched(t, pid) {
			t.Fatalf("page %d still latched", pid)
		}
	}
}

// TestPostSoftOverflow: when the tree says no split helps, the term still
// goes in, into the over-full node.
func TestPostSoftOverflow(t *testing.T) {
	ty := newPostToy(t)
	p := &toyPost{sep: 75, child: toyLeafC, level: 1, cap: 2, soft: true}
	if posted, err := ty.post(t, p); !posted || err != nil {
		t.Fatalf("posted=%v err=%v", posted, err)
	}
	if got := ty.node(t, toyLeft); !slices.Equal(got.seps, []int{0, 50, 75}) || p.splits != 1 {
		t.Fatalf("left holds %v after %d Split calls", got.seps, p.splits)
	}
}

// TestPostFailureAborts: an error after the action began — from the second
// Split, or from the failpoint behind the space test — releases every
// latch (the operation context's latch tracker checks that itself on
// Done), aborts the action, and runs no commit hook.
func TestPostFailureAborts(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cap       int // at capacity one the sibling a split creates is full too
		failSplit int
		failpoint bool
		want      error
	}{
		{name: "second split", cap: 1, failSplit: 2, want: errToySplit},
		{name: "failpoint", cap: 2, failpoint: true, want: fault.ErrInjected},
	} {
		ty := newPostToy(t)
		if tc.failpoint {
			inj := fault.New(1)
			ty.pool.SetInjector(inj)
			inj.Arm(FPPost, fault.Spec{Kind: fault.Transient})
		}
		p := &toyPost{sep: 75, child: toyLeafC, level: 1, cap: tc.cap, failSplit: tc.failSplit}
		from := ty.log.EndLSN()
		if posted, err := ty.post(t, p); posted || !errors.Is(err, tc.want) {
			t.Fatalf("%s: posted=%v err=%v", tc.name, posted, err)
		}
		// The one split that succeeded — its page's allocation, the
		// sibling's format and the split record — is backed over; no term,
		// no commit.
		if got, want := recTypes(ty.records(from)), []wal.RecType{wal.RecUpdate, wal.RecUpdate, wal.RecUpdate,
			wal.RecAbort, wal.RecCLR, wal.RecCLR, wal.RecCLR, wal.RecEnd}; !slices.Equal(got, want) {
			t.Fatalf("%s: log holds %v, want the aborted action %v", tc.name, got, want)
		}
		if left := ty.node(t, toyLeft); !slices.Equal(left.seps, []int{0, 50}) || left.right != toyRight {
			t.Fatalf("%s: left after the abort holds %v, right %d", tc.name, left.seps, left.right)
		}
		if p.committed != 0 || p.splits == 0 {
			t.Fatalf("%s: %d commit hooks after %d splits", tc.name, p.committed, p.splits)
		}
		for _, pid := range []storage.PageID{toyLeft, ty.node(t, toyLeft).right} {
			if !ty.unlatched(t, pid) {
				t.Fatalf("%s: page %d still latched", tc.name, pid)
			}
		}
	}
}

// TestPostCommitFailure: when the commit itself fails (here: atomic-action
// commits force the log, and the log cannot sync) the posting reports the
// error, no commit hook runs, and the latches are released all the same.
func TestPostCommitFailure(t *testing.T) {
	ty := newPostToy(t)
	ty.kern.s.TM = txn.NewManager(ty.log, ty.lm, ty.reg, txn.Options{ForceOnAACommit: true})
	inj := fault.New(1)
	ty.log.SetInjector(inj)
	inj.Arm(wal.FPSync, fault.Spec{Kind: fault.Permanent})
	p := &toyPost{sep: 75, child: toyLeafC, level: 1, cap: 2}
	if posted, err := ty.post(t, p); posted || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("posted=%v err=%v", posted, err)
	}
	if p.committed != 0 {
		t.Fatalf("%d commit hooks ran for a commit that failed", p.committed)
	}
	if !ty.unlatched(t, toyLeft) || !ty.unlatched(t, ty.node(t, toyLeft).right) {
		t.Fatal("a latch outlived the failed action")
	}
}

// TestAtomicDoomedEndsRetryLoop: an action whose body asks for a retry but
// whose rollback then fails is doomed. Atomic returns the doomed error —
// degraded, and no longer a retry — so RetryLoop stops instead of running
// the operation again on an engine that can commit nothing; the action
// stays in the table for restart undo, and no latch outlives it.
func TestAtomicDoomedEndsRetryLoop(t *testing.T) {
	ty := newToy(t, false, false)
	reg := toyRegistry()
	reg.Register(toyKindStuck, storage.Handler{
		Redo: func(*storage.Frame, *wal.Record) error { return nil },
		MakeUndo: func(*wal.Record, storage.LogReader) (storage.Compensation, error) {
			return storage.Compensation{}, errors.New("toy: undo cannot run")
		},
	})
	ty.kern.s.TM = txn.NewManager(ty.log, ty.lm, reg, txn.Options{})
	attempts := 0
	err := ty.kern.RetryLoop(nil, func(o *Op[*toyNode]) error {
		attempts++
		leaf, err := o.Acquire(toyLeafA, latch.X, 0)
		if err != nil {
			return err
		}
		return o.Atomic(func(aa *txn.Txn) error {
			o.Hold(&leaf)
			aa.LogUpdate(leaf.F, toyKindStuck, nil)
			return ErrRetry
		})
	})
	if attempts != 1 || errors.Is(err, ErrRetry) || !errors.Is(err, txn.ErrDoomed) || !errors.Is(err, wal.ErrLogFailed) {
		t.Fatalf("%d attempts, err %v; want one attempt ending doomed", attempts, err)
	}
	if n := ty.kern.s.TM.ActiveCount(); n != 1 || !ty.log.Damaged() {
		t.Fatalf("%d transactions in the table, log damaged %v; want the doomed action kept and the log damaged", n, ty.log.Damaged())
	}
	if !ty.unlatched(t, toyLeafA) {
		t.Fatal("a latch outlived the doomed action")
	}
}
