package pitree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/latch"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// The toy tree's consolidation: leafB [50,75) goes back into leafA [0,50),
// the node that contains it, and left loses leafB's term. As in core's
// merge, the action holds both survivors, left and leafA.

const (
	toyKindLink   = wal.Kind(204) // a leaf's high key and side pointer; undone from the old pair it carries
	toyKindUnterm = wal.Kind(205) // an index node loses a term; undone by toyKindReterm
	toyKindReterm = wal.Kind(207) // an index node gets a term back
)

// encLink is a toyKindLink payload: the new high and right, then the old.
func encLink(high int, right storage.PageID, oldHigh int, oldRight storage.PageID) []byte {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, uint64(high)), uint64(right)), uint64(oldHigh)), uint64(oldRight))
}

// withSpace gives the toy a store whose free-space map has every toy page
// allocated, and a transaction manager whose registry (ty.reg) can undo an
// allocation, a free and a toyKindLink, so Split can allocate a toy page and
// Absorb free one, and either roll back.
func (ty *toy) withSpace(t *testing.T) *storage.Store {
	t.Helper()
	reg := toyRegistry()
	storage.RegisterMetaHandlers(reg)
	reg.Register(toyKindLink, storage.Handler{
		Redo: func(f *storage.Frame, rec *wal.Record) error {
			n, p := f.Data.(*toyNode), rec.Payload
			n.high, n.right = int(binary.LittleEndian.Uint64(p)), storage.PageID(binary.LittleEndian.Uint64(p[8:]))
			return nil
		},
		MakeUndo: func(rec *wal.Record, _ storage.LogReader) (storage.Compensation, error) {
			p := rec.Payload
			return storage.Compensation{Kind: toyKindLink, Payload: append(slices.Clone(p[16:]), p[:16]...)}, nil
		},
	})
	reg.Register(toyKindUnterm, storage.Handler{
		Redo: RedoNode(func(n *toyNode, rec *wal.Record) error {
			i := slices.Index(n.kids, storage.PageID(binary.LittleEndian.Uint64(rec.Payload[8:])))
			n.seps, n.kids = slices.Delete(slices.Clone(n.seps), i, i+1), slices.Delete(slices.Clone(n.kids), i, i+1)
			return nil
		}),
		MakeUndo: func(rec *wal.Record, _ storage.LogReader) (storage.Compensation, error) {
			return storage.Compensation{Kind: toyKindReterm, Payload: rec.Payload}, nil
		},
	})
	reg.Register(toyKindReterm, storage.Handler{Redo: RedoNode(func(n *toyNode, rec *wal.Record) error {
		sep, kid := int(binary.LittleEndian.Uint64(rec.Payload)), storage.PageID(binary.LittleEndian.Uint64(rec.Payload[8:]))
		i, _ := slices.BinarySearch(n.seps, sep)
		n.seps, n.kids = slices.Insert(slices.Clone(n.seps), i, sep), slices.Insert(slices.Clone(n.kids), i, kid)
		return nil
	})})
	st := storage.NewStore(ty.pool, reg)
	ty.reg, ty.tm = reg, txn.NewManager(ty.log, ty.lm, reg, txn.Options{})
	ty.kern.s.TM, ty.kern.s.Store = ty.tm, st
	aa := ty.tm.BeginAtomicAction()
	err := st.Bootstrap(aa)
	for pid := storage.MetaPage + 1; err == nil && pid <= toyLeafD; pid++ {
		_, err = st.Alloc(aa, nil)
	}
	if err == nil {
		err = aa.Commit()
	}
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// toyAbsorb is the toy's Absorber. Its switches fail each re-test, abandon
// the cut, and run a hook under every latch of the action.
type toyAbsorb struct {
	left, a Ref[*toyNode]

	failSurvivor, failVictim, abandon bool
	onCut                             func()
}

// Survivors latches left, re-tests that it still holds leafB's term and
// promotes it, then does the same with leafA and its side pointer.
func (m *toyAbsorb) Survivors(o *Op[*toyNode]) (storage.PageID, int, error) {
	var err error
	if m.left, err = o.Acquire(toyLeft, latch.U, 1); err != nil {
		return storage.NilPage, 0, err
	}
	o.Hold(&m.left)
	if m.failSurvivor || !slices.Contains(m.left.N.kids, toyLeafB) {
		return storage.NilPage, 0, nil
	}
	o.Promote(&m.left)
	if m.a, err = o.Acquire(toyLeafA, latch.U, 0); err != nil {
		return storage.NilPage, 0, err
	}
	o.Hold(&m.a)
	if m.a.N.right != toyLeafB {
		return storage.NilPage, 0, nil
	}
	o.Promote(&m.a)
	return toyLeafB, 0, nil
}

func (m *toyAbsorb) Victim(n *toyNode) bool { return !m.failVictim && n.low == m.a.N.high }

// Cut links leafA past leafB and takes leafB's term out of left.
func (m *toyAbsorb) Cut(aa *txn.Txn, b *Ref[*toyNode]) (bool, error) {
	if m.abandon {
		return false, nil
	}
	if m.onCut != nil {
		m.onCut()
	}
	a := m.a.N
	aa.LogUpdate(m.a.F, toyKindLink, encLink(b.N.high, b.N.right, a.high, a.right))
	a.high, a.right = b.N.high, b.N.right
	left := m.left.N
	i := slices.Index(left.kids, toyLeafB)
	aa.LogUpdate(m.left.F, toyKindUnterm, toyTerm(nil, left.seps[i], toyLeafB))
	left.seps, left.kids = slices.Delete(slices.Clone(left.seps), i, i+1), slices.Delete(slices.Clone(left.kids), i, i+1)
	return true, nil
}

// absorb runs one Absorb of m in an operation of its own, which checks on
// Done that the action left no latch behind.
func (ty *toy) absorb(m Absorber[*toyNode]) (bool, error) {
	o := ty.kern.NewOp(nil)
	defer o.Done()
	return ty.kern.Absorb(o, m)
}

// unchanged fails t unless the toy reads as it did before an absorb:
// leafA ends at leafB, left still has leafB's term, and leafB's page is
// allocated.
func (ty *toy) unchanged(t *testing.T, st *storage.Store) {
	t.Helper()
	if a, left := ty.node(t, toyLeafA), ty.node(t, toyLeft); a.high != 50 || a.right != toyLeafB || !slices.Equal(left.kids, []storage.PageID{toyLeafA, toyLeafB}) {
		t.Fatalf("leafA [%d) -> %d, left's children %v", a.high, a.right, left.kids)
	}
	if ok, err := st.IsAllocated(toyLeafB); !ok || err != nil {
		t.Fatalf("victim free (%v)", err)
	}
}

// nextActionID begins and ends an empty action and returns its ID: the
// ID the next action begun will be one above it.
func (ty *toy) nextActionID() wal.TxnID {
	aa := ty.tm.BeginAtomicAction()
	_ = aa.Abort() // logged nothing: ends at once
	return aa.ID
}

// TestAbsorbFrees: the survivors and the victim are held to the commit,
// the parent loses its term beside the cut, and the page is free once the
// action commits.
func TestAbsorbFrees(t *testing.T) {
	ty := newToy(t, true, false)
	st := ty.withSpace(t)
	from := ty.log.EndLSN()
	if freed, err := ty.absorb(&toyAbsorb{}); !freed || err != nil {
		t.Fatalf("absorb: %v %v", freed, err)
	}
	var kinds []wal.Kind
	for _, r := range ty.records(from) {
		kinds = append(kinds, r.Kind)
	}
	if want := []wal.Kind{toyKindLink, toyKindUnterm, storage.KindMetaFree, 0}; !slices.Equal(kinds, want) {
		t.Fatalf("action logged kinds %v, want %v: the cut, the parent's term, the free, the commit", kinds, want)
	}
	if a, left := ty.node(t, toyLeafA), ty.node(t, toyLeft); a.high != 75 || a.right != toyLeafC || slices.Contains(left.kids, toyLeafB) {
		t.Fatalf("leafA [%d) -> %d, left's children %v", a.high, a.right, left.kids)
	}
	if ok, err := st.IsAllocated(toyLeafB); ok || err != nil {
		t.Fatalf("freed page still allocated (%v)", err)
	}
	for _, pid := range []storage.PageID{toyLeft, toyLeafA, toyLeafB} {
		if !ty.unlatched(t, pid) {
			t.Fatalf("page %d still latched", pid)
		}
	}
}

// TestAbsorbNothingToDo: a failed survivor or victim re-test begins no
// action, and a completion task that names the victim — queued, or running
// — defers the free the same way, counted in Config.Deferred; an abandoned
// cut aborts an empty action. None logs anything or leaves a latch behind
// (the operation context's latch tracker checks that on Done).
func TestAbsorbNothingToDo(t *testing.T) {
	for _, tc := range []struct {
		name  string
		m     toyAbsorb
		task  string // "", "queued" or "running"
		begun bool
	}{
		{name: "survivor re-test", m: toyAbsorb{failSurvivor: true}},
		{name: "victim re-test", m: toyAbsorb{failVictim: true}},
		{name: "queued task", task: "queued"},
		{name: "running task", task: "running"},
		{name: "abandoned cut", m: toyAbsorb{abandon: true}, begun: true},
	} {
		ty := newToy(t, true, false)
		st := ty.withSpace(t)
		var freed bool
		var err error
		run := func() { freed, err = ty.absorb(&tc.m) }
		q := NewQueue(QueueConfig[int]{Sync: true, Paced: func(int) bool { return false }, Run: func(int) { run() }})
		var deferred atomic.Int64
		ty.kern.s.Tasks, ty.kern.s.Deferred = q, &deferred
		id, from := ty.nextActionID(), ty.log.EndLSN()
		switch tc.task {
		case "":
			run()
		case "queued":
			q.Schedule(PostKey(1, toyLeafB), 0)
			run()
		case "running":
			q.Schedule(PostKey(1, toyLeafB), 0)
			q.Drain()
		}
		if freed || err != nil || (deferred.Load() == 1) != (tc.task != "") {
			t.Fatalf("%s: freed %v, err %v, %d deferrals", tc.name, freed, err, deferred.Load())
		}
		if recs := ty.records(from); len(recs) != 0 {
			t.Fatalf("%s: logged %v", tc.name, recTypes(recs))
		}
		if begun := ty.nextActionID() != id+1; begun != tc.begun {
			t.Fatalf("%s: an action begun: %v, want %v", tc.name, begun, tc.begun)
		}
		if ok, err := st.IsAllocated(toyLeafB); !ok || err != nil {
			t.Fatalf("%s: victim freed (%v)", tc.name, err)
		}
		for _, pid := range []storage.PageID{toyLeft, toyLeafA, toyLeafB} {
			if !ty.unlatched(t, pid) {
				t.Fatalf("%s: page %d still latched", tc.name, pid)
			}
		}
		q.CloseDrain()
	}
}

// TestAbsorbFaultAborts: a fault at FPConsolidate, after the cut and the
// free, aborts the action. Undo restores leafA and left under the latches
// the action holds — a reader queued on leafA since the cut finds the old
// link the moment it gets in — and re-allocates the page.
func TestAbsorbFaultAborts(t *testing.T) {
	ty := newToy(t, true, false)
	st := ty.withSpace(t)
	inj := fault.New(1)
	ty.pool.SetInjector(inj)
	inj.Arm(storage.FPConsolidate, fault.Spec{Kind: fault.Transient})
	seen := make(chan [2]int, 1)
	m := &toyAbsorb{onCut: func() {
		f, err := ty.pool.Fetch(toyLeafA)
		if err != nil {
			t.Error(err)
			return
		}
		go func() {
			f.Latch.AcquireS() // granted by the action's release
			n := f.Data.(*toyNode)
			seen <- [2]int{n.high, int(n.right)}
			f.Latch.ReleaseS()
			ty.pool.Unpin(f)
		}()
	}}
	from := ty.log.EndLSN()
	if freed, err := ty.absorb(m); freed || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("absorb: %v %v", freed, err)
	}
	if got := <-seen; got != [2]int{50, int(toyLeafB)} {
		t.Fatalf("a reader of leafA saw [%d) -> %d: unlatched before its undo", got[0], got[1])
	}
	want := []wal.RecType{wal.RecUpdate, wal.RecUpdate, wal.RecUpdate, wal.RecAbort, wal.RecCLR, wal.RecCLR, wal.RecCLR, wal.RecEnd}
	if got := recTypes(ty.records(from)); !slices.Equal(got, want) {
		t.Fatalf("log holds %v, want the aborted cut, term removal and free %v", got, want)
	}
	ty.unchanged(t, st)
}

// forceAACommits makes every atomic-action commit of the toy force its
// log, and arms a permanent fault at the log's sync: the next action's
// commit fails after its cut, and Commit rolls it back.
func (ty *toy) forceAACommits() {
	ty.tm = txn.NewManager(ty.log, ty.lm, ty.reg, txn.Options{ForceOnAACommit: true})
	ty.kern.s.TM = ty.tm
	inj := fault.New(1)
	ty.log.SetInjector(inj)
	inj.Arm(wal.FPSync, fault.Spec{Kind: fault.Permanent, Count: -1})
}

// errWithin runs fn and fails t unless it returns an error within a
// deadline.
func errWithin(t *testing.T, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("an absorb whose commit could not be forced succeeded")
		}
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("the absorb's rollback waits for a latch its own operation holds")
	}
	return nil
}

// TestAbsorbCommitFailureRollsBack: when the commit of a free cannot be
// forced, the rollback runs under the latches the action holds — the
// parent's among them — returns the error at once, and leaves the toy as
// it was.
func TestAbsorbCommitFailureRollsBack(t *testing.T) {
	ty := newToy(t, true, false)
	st := ty.withSpace(t)
	ty.forceAACommits()
	err := errWithin(t, func() error { _, err := ty.absorb(&toyAbsorb{}); return err })
	if !errors.Is(err, wal.ErrLogFailed) || errors.Is(err, txn.ErrDoomed) {
		t.Fatalf("absorb: %v, want the failed force, rolled back", err)
	}
	ty.unchanged(t, st)
}

// callerHeldParent is toyAbsorb with the parent left out of the action:
// the caller keeps left latched around Absorb, in mode, and Cut changes it
// all the same.
type callerHeldParent struct{ toyAbsorb }

func (m *callerHeldParent) Survivors(o *Op[*toyNode]) (storage.PageID, int, error) {
	var err error
	if m.a, err = o.Acquire(toyLeafA, latch.U, 0); err != nil {
		return storage.NilPage, 0, err
	}
	o.Hold(&m.a)
	o.Promote(&m.a)
	return toyLeafB, 0, nil
}

// absorbUnderCallersParent runs a callerHeldParent absorb whose commit
// fails, with the caller holding left in mode across it, and returns
// the absorb's error.
func (ty *toy) absorbUnderCallersParent(t *testing.T, mode latch.Mode) error {
	t.Helper()
	o := ty.kern.NewOp(nil)
	left, err := o.Acquire(toyLeft, latch.U, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mode == latch.X {
		o.Promote(&left)
	}
	err = errWithin(t, func() error { _, err := ty.kern.Absorb(o, &callerHeldParent{toyAbsorb{left: left}}); return err })
	o.Release(&left)
	o.Done()
	return err
}

// TestUndoOfAnUnheldLatchFails: with the parent outside the action's held
// latches and held by its operation in U, the rollback of a failed commit
// would latch the parent its own operation holds and wait for itself. The
// operation's latch tracker, which always records, turns that wait into
// an error naming the page, and the action is doomed.
func TestUndoOfAnUnheldLatchFails(t *testing.T) {
	ty := newToy(t, true, false)
	ty.withSpace(t)
	ty.forceAACommits()
	err := ty.absorbUnderCallersParent(t, latch.U)
	if !errors.Is(err, txn.ErrDoomed) || !strings.Contains(err.Error(), fmt.Sprintf("kind %d on page %d", toyKindUnterm, toyLeft)) {
		t.Fatalf("absorb: %v, want a doomed rollback naming page %d", err, toyLeft)
	}
}

// TestUndoInTheOperationsXLatch: with the parent outside the action's held
// latches but held by its operation in X, the rollback of a failed commit
// compensates the parent in place, under the operation's latch as its
// tracker records it: the failed force is returned, nothing is doomed, and
// the toy reads as it did.
func TestUndoInTheOperationsXLatch(t *testing.T) {
	ty := newToy(t, true, false)
	st := ty.withSpace(t)
	ty.forceAACommits()
	err := ty.absorbUnderCallersParent(t, latch.X)
	if !errors.Is(err, wal.ErrLogFailed) || errors.Is(err, txn.ErrDoomed) {
		t.Fatalf("absorb: %v, want the failed force, rolled back", err)
	}
	ty.unchanged(t, st)
}
