package pitree

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// The toy tree's leaf writes: each leaf holds up to toyCap sorted int
// keys, a write adds keys, and a full leaf splits in place (unlogged, and
// every logged kind redo-only — the toy has no recovery) with the upper
// half reachable through the side pointer only.

const (
	toyCap             = 4
	toyKindAdd         = wal.Kind(200)
	toySplitPage       = storage.PageID(100) // first page ID a toy split allocates
	toyLockSpace       = 9
	toyWaitForBlocking = 5 * time.Second
)

var errToyExists = errors.New("toy: key exists")

// toyWrite is the toy's LeafWriter. Its hooks and counters expose the
// instants the kernel's Update passes through.
type toyWrite struct {
	ty       *toy
	ks       []int
	undo     bool // a compensation: a key already there is no change
	cap      int  // the leaves' entry cap; 0 is toyCap
	splits   int
	locks    int                      // LockName calls
	reserves []int                    // Reserve's argument, per call
	afters   []int                    // After's argument, per run
	onApply  func(leaf Ref[*toyNode]) // runs in Apply, under the X latch
}

func (w *toyWrite) less(i, j int) bool { return w.ks[i] < w.ks[j] }
func (w *toyWrite) Key(i int) int      { return w.ks[i] }
func (w *toyWrite) Trace() any         { return nil }
func (w *toyWrite) After(applied int)  { w.afters = append(w.afters, applied) }

// Next: a compensation goes through the writer's keys in order.
func (w *toyWrite) Next(_ *toyNode, i int) bool { return i+1 < len(w.ks) }

func (w *toyWrite) LockName(i int) lock.Name {
	w.locks++
	return toyLockName(w.ks[i])
}

func toyLockName(key int) lock.Name { return lock.PageName(toyLockSpace, uint64(key)) }

// Need: a new key adds its eight bytes to the leaf's image, a key already
// there nothing.
func (w *toyWrite) Need(n *toyNode, i int) int {
	if _, exists := slices.BinarySearch(n.keys, w.ks[i]); exists {
		return 0
	}
	return 8
}

func (w *toyWrite) Full(n *toyNode, i int) bool {
	c := w.cap
	if c == 0 {
		c = toyCap
	}
	return len(n.keys) >= c || !w.ty.kern.Fits(n, w.Need(n, i))
}

func (w *toyWrite) Reserve(_ *toyNode, bytes int) { w.reserves = append(w.reserves, bytes) }

func (w *toyWrite) Split(o *Op[*toyNode], leaf Ref[*toyNode]) error {
	o.Promote(&leaf)
	n, mid := leaf.N, len(leaf.N.keys)/2
	pid := toySplitPage + storage.PageID(w.splits)
	w.splits++
	f, err := w.ty.pool.Create(pid)
	if err != nil {
		o.Release(&leaf)
		return err
	}
	f.Data = &toyNode{low: n.keys[mid], high: n.high, right: n.right, keys: slices.Clone(n.keys[mid:])}
	w.ty.pool.Unpin(f)
	n.high, n.right, n.keys = n.keys[mid], pid, n.keys[:mid]
	o.Release(&leaf)
	return nil
}

func (w *toyWrite) Apply(leaf Ref[*toyNode], i int) (txn.GroupUpdate, error) {
	if w.onApply != nil {
		w.onApply(leaf)
	}
	n, k := leaf.N, w.ks[i]
	at, exists := slices.BinarySearch(n.keys, k)
	if exists {
		if w.undo {
			return txn.GroupUpdate{}, nil
		}
		return txn.GroupUpdate{}, errToyExists
	}
	n.keys = slices.Insert(n.keys, at, k)
	return txn.GroupUpdate{Kind: toyKindAdd, Payload: binary.LittleEndian.AppendUint64(nil, uint64(k))}, nil
}

func (ty *toy) write(tx *txn.Txn, w *toyWrite) error {
	w.ty = ty
	return ty.kern.Update(tx, len(w.ks), w.less, w)
}

// records returns every log record from lsn on.
func (ty *toy) records(lsn wal.LSN) []wal.Record {
	var out []wal.Record
	ty.log.FullImage().Scan(lsn, func(r wal.Record) bool {
		out = append(out, r)
		return true
	})
	return out
}

func recTypes(recs []wal.Record) []wal.RecType {
	out := make([]wal.RecType, len(recs))
	for i, r := range recs {
		out[i] = r.Type
	}
	return out
}

// TestUpdateRunStopsWhenLeafFills: six keys of one leaf's range against a
// capacity of four. The first run applies four as one group under one
// atomic action; the remainder re-descends, splits the full leaf, and
// lands — in key order, whatever the batch order — on the new sibling.
func TestUpdateRunStopsWhenLeafFills(t *testing.T) {
	ty := newToy(t, false, false)
	from := ty.log.EndLSN()
	w := &toyWrite{ks: []int{5, 1, 6, 2, 4, 3}}
	if err := ty.write(nil, w); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(w.afters, []int{4, 2}) || w.splits != 1 {
		t.Fatalf("runs %v, %d splits; want [4 2], 1", w.afters, w.splits)
	}
	if got := ty.restarts.Load(); got != 1 {
		t.Fatalf("%d restarts, want 1 (the split)", got)
	}
	if a, b := ty.node(t, toyLeafA).keys, ty.node(t, toySplitPage).keys; !slices.Equal(a, []int{1, 2}) || !slices.Equal(b, []int{3, 4, 5, 6}) {
		t.Fatalf("leaves hold %v and %v", a, b)
	}
	want := []wal.RecType{
		wal.RecUpdate, wal.RecUpdate, wal.RecUpdate, wal.RecUpdate, wal.RecCommit,
		wal.RecUpdate, wal.RecUpdate, wal.RecCommit,
	}
	recs := ty.records(from)
	if !slices.Equal(recTypes(recs), want) {
		t.Fatalf("log holds %v, want %v", recTypes(recs), want)
	}
	// Each run's records chain through its own atomic action, whose first
	// record (nil PrevLSN) is all the begin it has.
	for i, r := range recs {
		first := i == 0 || recs[i-1].Type == wal.RecCommit
		if first && (r.PrevLSN != wal.NilLSN || !r.IsSystem()) {
			t.Fatalf("record %d (%+v) does not begin an atomic action", i, r)
		}
		if !first && (r.TxnID != recs[i-1].TxnID || r.PrevLSN != recs[i-1].LSN) {
			t.Fatalf("record %d (%+v) does not chain to %+v", i, r, recs[i-1])
		}
	}
}

// TestUpdateNoWaitLock: a write meeting a held record lock must drop its
// latch before it blocks, restart once the lock is granted, and find the
// lock still held on the retry.
func TestUpdateNoWaitLock(t *testing.T) {
	ty := newToy(t, false, false)
	holder, tx := ty.tm.Begin(), ty.tm.Begin()
	if err := holder.Lock(toyLockName(10), lock.X); err != nil {
		t.Fatal(err)
	}
	w := &toyWrite{ks: []int{10}}
	done := make(chan error, 1)
	go func() { done <- ty.write(tx, w) }()

	deadline := time.Now().Add(toyWaitForBlocking)
	for waits, _ := ty.lm.Stats(); waits == 0; waits, _ = ty.lm.Stats() {
		if time.Now().After(deadline) {
			t.Fatal("the write never blocked on the held lock")
		}
		time.Sleep(time.Millisecond)
	}
	f, err := ty.pool.Fetch(toyLeafA)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Latch.TryAcquireX() {
		t.Fatal("leaf still latched while its writer waits for a database lock")
	}
	f.Latch.ReleaseX()
	ty.pool.Unpin(f)
	if len(w.afters) != 0 {
		t.Fatal("write applied before its lock was granted")
	}

	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := ty.restarts.Load(); got != 1 {
		t.Fatalf("%d restarts, want exactly the one after the wait", got)
	}
	if mode, held := ty.lm.HeldMode(tx.ID, toyLockName(10)); !held || mode != lock.X {
		t.Fatalf("after the retry tx holds %v (held=%v), want X", mode, held)
	}
	if !slices.Equal(ty.node(t, toyLeafA).keys, []int{10}) {
		t.Fatalf("leaf holds %v", ty.node(t, toyLeafA).keys)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateFailpointBeforeLog: the failpoint fires with the run's locks
// granted and nothing logged or applied; a non-transactional write's
// atomic action is aborted empty.
func TestUpdateFailpointBeforeLog(t *testing.T) {
	ty := newToy(t, false, false)
	inj := fault.New(1)
	ty.pool.SetInjector(inj)

	inj.Arm(FPBatchApply, fault.Spec{Kind: fault.Permanent})
	tx := ty.tm.Begin()
	from := ty.log.EndLSN()
	w := &toyWrite{ks: []int{10, 11}}
	if err := ty.write(tx, w); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("write over the armed failpoint: %v", err)
	}
	for _, k := range w.ks {
		if _, held := ty.lm.HeldMode(tx.ID, toyLockName(k)); !held {
			t.Fatalf("failpoint fired before key %d was locked", k)
		}
	}
	if recs := ty.records(from); len(recs) != 0 || len(ty.node(t, toyLeafA).keys) != 0 || len(w.afters) != 0 {
		t.Fatalf("failed run left %d log records, keys %v, %d After calls", len(recs), ty.node(t, toyLeafA).keys, len(w.afters))
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	inj.Arm(FPBatchApply, fault.Spec{Kind: fault.Permanent})
	from = ty.log.EndLSN()
	if err := ty.write(nil, &toyWrite{ks: []int{10}}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("non-transactional write over the armed failpoint: %v", err)
	}
	if got := recTypes(ty.records(from)); len(got) != 0 {
		t.Fatalf("log holds %v: an aborted action that logged nothing leaves no record", got)
	}
}

// TestUpdateCommitBeforeUnlatch: a reader queued on the leaf's latch
// while the run is being applied must, the moment it gets the latch, find
// the atomic action's commit record already in the log. The commit is
// stalled just before its record is appended, so a latch released first
// would hand the reader a log without it.
func TestUpdateCommitBeforeUnlatch(t *testing.T) {
	ty := newToy(t, false, false)
	inj := fault.New(1)
	ty.tm.SetInjector(inj)
	inj.Arm(txn.FPAACommit, fault.Spec{Delay: 20 * time.Millisecond})
	from := ty.log.EndLSN()
	seen := make(chan []wal.RecType, 1)
	w := &toyWrite{ks: []int{10}}
	w.onApply = func(leaf Ref[*toyNode]) {
		f := leaf.F
		f.Pin()
		go func() {
			f.Latch.AcquireS() // granted by the writer's release
			seen <- recTypes(ty.records(from))
			f.Latch.ReleaseS()
			ty.pool.Unpin(f)
		}()
	}
	if err := ty.write(nil, w); err != nil {
		t.Fatal(err)
	}
	if got := <-seen; !slices.Contains(got, wal.RecCommit) {
		t.Fatalf("latch released with the log at %v: no commit record yet", got)
	}
}

// TestUpdateSemanticError: an error from Apply ends the write with
// nothing changed and no update logged, and After is not called.
func TestUpdateSemanticError(t *testing.T) {
	ty := newToy(t, false, false)
	if err := ty.write(nil, &toyWrite{ks: []int{10}}); err != nil {
		t.Fatal(err)
	}
	for _, tx := range []*txn.Txn{nil, ty.tm.Begin()} {
		from := ty.log.EndLSN()
		w := &toyWrite{ks: []int{10}}
		if err := ty.write(tx, w); err != errToyExists {
			t.Fatalf("duplicate write: %v, want errToyExists unwrapped", err)
		}
		for _, r := range ty.records(from) {
			if r.Type == wal.RecUpdate || r.Type == wal.RecCommit {
				t.Fatalf("refused write logged %+v", r)
			}
		}
		if len(w.afters) != 0 || !slices.Equal(ty.node(t, toyLeafA).keys, []int{10}) {
			t.Fatalf("refused write ran After %v, leaf holds %v", w.afters, ty.node(t, toyLeafA).keys)
		}
		if tx != nil {
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// logAdd logs, and does not apply, a toy add to leaf A in tx: the record a
// compensation then undoes.
func (ty *toy) logAdd(t *testing.T, tx *txn.Txn) wal.LSN {
	f, err := ty.pool.Fetch(toyLeafA)
	if err != nil {
		t.Fatal(err)
	}
	defer ty.pool.Unpin(f)
	f.Latch.AcquireX()
	defer f.Latch.ReleaseX()
	return tx.LogUpdate(f, toyKindAdd, nil)
}

// compensate runs the toy's logical undo of key under tx, UndoNext next.
func (ty *toy) compensate(tx *txn.Txn, next wal.LSN, key int) (*toyWrite, error) {
	w := &toyWrite{ty: ty, ks: []int{key}, undo: true}
	return w, ty.kern.Compensate(tx, &wal.Record{PrevLSN: next}, w)
}

// TestCompensateTakesNoLockBeginsNoAction: a compensation logs one CLR
// under the rolling-back transaction and nothing else — no record lock, no
// atomic action of its own, no After.
func TestCompensateTakesNoLockBeginsNoAction(t *testing.T) {
	ty := newToy(t, false, false)
	tx := ty.tm.Begin()
	next := ty.logAdd(t, tx)
	grants, from := ty.lm.Grants(), ty.log.EndLSN()
	w, err := ty.compensate(tx, next, 10)
	if err != nil {
		t.Fatal(err)
	}
	recs := ty.records(from)
	if len(recs) != 1 || recs[0].Type != wal.RecCLR || recs[0].TxnID != tx.ID || recs[0].UndoNext != next ||
		recs[0].Kind != toyKindAdd || recs[0].PageID != uint64(toyLeafA) {
		t.Fatalf("compensation logged %+v, want one CLR of txn %d on page %d with UndoNext %d", recs, tx.ID, toyLeafA, next)
	}
	if !slices.Equal(ty.node(t, toyLeafA).keys, []int{10}) || len(w.afters) != 0 {
		t.Fatalf("leaf holds %v, After ran %v", ty.node(t, toyLeafA).keys, w.afters)
	}
	if got := ty.lm.Grants(); got != grants {
		t.Fatalf("compensation took %d locks", got-grants)
	}
	if after := ty.tm.Begin(); after.ID != tx.ID+1 {
		t.Fatalf("next transaction is %d, want %d: the compensation began an atomic action", after.ID, tx.ID+1)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestCompensateIgnoresBatchFailpoint: FPBatchApply is a forward write's
// failpoint; a rollback armed over it still compensates, and the point
// stays armed for the next write.
func TestCompensateIgnoresBatchFailpoint(t *testing.T) {
	ty := newToy(t, false, false)
	inj := fault.New(1)
	ty.pool.SetInjector(inj)
	inj.Arm(FPBatchApply, fault.Spec{Kind: fault.Permanent})
	tx := ty.tm.Begin()
	if _, err := ty.compensate(tx, wal.NilLSN, 10); err != nil {
		t.Fatalf("compensation over the armed failpoint: %v", err)
	}
	if !slices.Equal(ty.node(t, toyLeafA).keys, []int{10}) {
		t.Fatalf("leaf holds %v", ty.node(t, toyLeafA).keys)
	}
	if err := ty.write(nil, &toyWrite{ks: []int{11}}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("write after the compensation: %v, want the failpoint still armed", err)
	}
}

// TestCompensateSplitsFullLeaf: an insert's compensation that meets a full
// leaf splits it and retries, and its CLR names the leaf the key went to.
func TestCompensateSplitsFullLeaf(t *testing.T) {
	ty := newToy(t, false, false)
	if err := ty.write(nil, &toyWrite{ks: []int{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	tx := ty.tm.Begin()
	from := ty.log.EndLSN()
	w, err := ty.compensate(tx, wal.NilLSN, 5)
	if err != nil {
		t.Fatal(err)
	}
	if w.splits != 1 || ty.restarts.Load() != 1 {
		t.Fatalf("%d splits, %d restarts; want 1 and 1", w.splits, ty.restarts.Load())
	}
	if b := ty.node(t, toySplitPage).keys; !slices.Equal(b, []int{3, 4, 5}) {
		t.Fatalf("split sibling holds %v", b)
	}
	recs := ty.records(from)
	if len(recs) != 1 || recs[0].Type != wal.RecCLR || recs[0].PageID != uint64(toySplitPage) {
		t.Fatalf("compensation logged %+v, want one CLR on page %d", recs, toySplitPage)
	}
}

// TestCompensateTerminalCLR: a compensation whose item is already as the
// undo would leave it changes nothing and logs the terminal CLR, which
// only carries the undo chain past the record.
func TestCompensateTerminalCLR(t *testing.T) {
	ty := newToy(t, false, false)
	if err := ty.write(nil, &toyWrite{ks: []int{10}}); err != nil {
		t.Fatal(err)
	}
	tx := ty.tm.Begin()
	next := ty.logAdd(t, tx)
	from := ty.log.EndLSN()
	if _, err := ty.compensate(tx, next, 10); err != nil {
		t.Fatal(err)
	}
	recs := ty.records(from)
	if len(recs) != 1 || recs[0].Type != wal.RecCLR || recs[0].UndoNext != next ||
		recs[0].Kind != 0 || recs[0].StoreID != 0 || recs[0].PageID != 0 || len(recs[0].Payload) != 0 {
		t.Fatalf("compensation logged %+v, want one terminal CLR with UndoNext %d", recs, next)
	}
	if !slices.Equal(ty.node(t, toyLeafA).keys, []int{10}) {
		t.Fatalf("leaf holds %v", ty.node(t, toyLeafA).keys)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestCompensateItems: a compensation of several items applies them in
// order, on whatever leaf each routes to; every CLR but the last leaves
// the undo chain at the record being undone, the last moves it past, and
// an item that finds nothing to do logs nothing — but the terminal CLR
// when it is the last.
func TestCompensateItems(t *testing.T) {
	ty := newToy(t, false, false)
	if err := ty.write(nil, &toyWrite{ks: []int{20}}); err != nil {
		t.Fatal(err)
	}
	tx := ty.tm.Begin()
	rec := &wal.Record{LSN: ty.logAdd(t, tx), PrevLSN: wal.NilLSN}
	for _, c := range []struct {
		ks    []int
		pages []storage.PageID // each CLR's page, 0 for the terminal CLR
	}{
		{[]int{10, 20, 60}, []storage.PageID{toyLeafA, toyLeafB}},
		{[]int{11, 20}, []storage.PageID{toyLeafA, 0}},
	} {
		from := ty.log.EndLSN()
		if err := ty.kern.Compensate(tx, rec, &toyWrite{ty: ty, ks: c.ks, undo: true}); err != nil {
			t.Fatal(err)
		}
		recs := ty.records(from)
		if len(recs) != len(c.pages) {
			t.Fatalf("items %v logged %+v, want %d CLRs", c.ks, recs, len(c.pages))
		}
		for i, r := range recs {
			want := rec.LSN
			if i == len(recs)-1 {
				want = rec.PrevLSN
			}
			if r.Type != wal.RecCLR || r.PageID != uint64(c.pages[i]) || r.UndoNext != want {
				t.Fatalf("items %v: CLR %d is %+v, want page %d, UndoNext %d", c.ks, i, r, c.pages[i], want)
			}
		}
	}
	if a, b := ty.node(t, toyLeafA).keys, ty.node(t, toyLeafB).keys; !slices.Equal(a, []int{10, 11, 20}) || !slices.Equal(b, []int{60}) {
		t.Fatalf("leaves hold %v and %v", a, b)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}

// heldTx is a rolling-back transaction whose caller's operation holds
// the latches tr records, as AbortHeld's and CommitHeld's callers do.
type heldTx struct {
	*txn.Txn
	tr *latch.Tracker
}

func (h heldTx) Held() *latch.Tracker { return h.tr }

// TestCompensateInHeldLeaf: an item whose key routes to a leaf the
// rolling-back action's operation holds X-latched, as its tracker records,
// is applied there, without a latch of its own — a descent would wait for
// the caller's latch forever — and an item bound elsewhere still descends.
func TestCompensateInHeldLeaf(t *testing.T) {
	ty := newToy(t, false, false)
	f, err := ty.pool.Fetch(toyLeafA)
	if err != nil {
		t.Fatal(err)
	}
	defer ty.pool.Unpin(f)
	tx := ty.tm.Begin()
	from := ty.log.EndLSN()
	done := make(chan error, 1)
	var tr latch.Tracker
	f.Latch.AcquireX()
	tr.Acquired(f, 0, latch.X)
	go func() {
		done <- ty.kern.Compensate(heldTx{tx, &tr}, &wal.Record{}, &toyWrite{ty: ty, ks: []int{10, 60}, undo: true})
	}()
	select {
	case err := <-done:
		tr.Released(f)
		f.Latch.ReleaseX()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the compensation waits for the latch its rolling-back action holds")
	}
	recs := ty.records(from)
	if len(recs) != 2 || recs[0].PageID != uint64(toyLeafA) || recs[1].PageID != uint64(toyLeafB) {
		t.Fatalf("compensation logged %+v, want CLRs on pages %d and %d", recs, toyLeafA, toyLeafB)
	}
	if a, b := ty.node(t, toyLeafA).keys, ty.node(t, toyLeafB).keys; !slices.Equal(a, []int{10}) || !slices.Equal(b, []int{60}) {
		t.Fatalf("leaves hold %v and %v", a, b)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateBatchLinear: one ascending batch of 4 096 keys in one
// transaction, into leaves that fill by bytes. Each run is bounded by the
// leaf's room, so every key is routed and lock-requested a constant number
// of times however often the leaf fills and splits under the batch — not
// once for every run the rest of the batch outlives.
func TestUpdateBatchLinear(t *testing.T) {
	ty := newToy(t, false, false)
	routes := 0
	ty.onRoute = func(*toyNode) { routes++ }
	const n = 4096
	w := &toyWrite{ks: make([]int, n), cap: math.MaxInt}
	for i := range w.ks {
		w.ks[i] = 100 + i
	}
	tx := ty.tm.Begin()
	if err := ty.write(tx, w); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if w.splits < 4 {
		t.Fatalf("%d splits: the batch must fill its leaf several times", w.splits)
	}
	t.Logf("%d keys, %d splits, %d runs: %d routes, %d lock names", n, w.splits, len(w.afters), routes, w.locks)
	if routes > 2*n || w.locks > 2*n {
		t.Fatalf("%d routes and %d lock names for %d keys, want at most %d each", routes, w.locks, n, 2*n)
	}
	var got []int
	for pid := storage.PageID(toyLeafD); pid != storage.NilPage; pid = ty.node(t, pid).right {
		got = append(got, ty.node(t, pid).keys...)
	}
	if !slices.Equal(got, w.ks) {
		t.Fatalf("the leaves hold %d keys, want the batch's %d in order", len(got), n)
	}
}

// TestUpdateRunReservesOnce: a run of several keys grows its leaf once,
// by the bytes the run adds, before its first apply; a run of one
// reserves nothing.
func TestUpdateRunReservesOnce(t *testing.T) {
	ty := newToy(t, false, false)
	w := &toyWrite{ks: []int{3, 1, 2}}
	if err := ty.write(nil, w); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(w.reserves, []int{24}) {
		t.Fatalf("reserved %v, want one reservation of 24 bytes", w.reserves)
	}
	w = &toyWrite{ks: []int{4}}
	if err := ty.write(nil, w); err != nil {
		t.Fatal(err)
	}
	if len(w.reserves) != 0 {
		t.Fatalf("a run of one reserved %v", w.reserves)
	}
}

// TestTakeRunsSort: the batch sort is stable, and costs n-1 comparisons
// on a batch already in order and O(n log n) on a reversed one. (That it
// allocates nothing is core's TestMultiGetAllocs.)
func TestTakeRunsSort(t *testing.T) {
	const n = 4096
	ks := make([]int, n)
	calls := 0
	less := func(i, j int) bool {
		calls++
		return ks[i] < ks[j]
	}
	for _, tc := range []struct {
		name  string
		key   func(i int) int
		limit int
	}{
		{"sorted", func(i int) int { return i }, n - 1},
		{"reversed", func(i int) int { return n - i }, n * 12}, // n log2 n
		{"ties", func(i int) int { return (i * 7919) % 13 }, n * 12},
	} {
		for i := range ks {
			ks[i] = tc.key(i)
		}
		calls = 0
		rs := takeRuns(n, less)
		t.Logf("%s: %d comparisons", tc.name, calls)
		if calls > tc.limit {
			t.Errorf("%s: %d comparisons, want at most %d", tc.name, calls, tc.limit)
		}
		for p := 1; p < n; p++ {
			a, b := rs.idx[p-1], rs.idx[p]
			if ks[a] > ks[b] || (ks[a] == ks[b] && a > b) {
				t.Fatalf("%s: item %d (key %d) before item %d (key %d)", tc.name, a, ks[a], b, ks[b])
			}
		}
		rs.free()
	}
}
