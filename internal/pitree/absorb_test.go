package pitree

import (
	"encoding/binary"
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/latch"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// The toy tree's consolidation: leafB [50,75) goes back into leafA [0,50),
// the node that contains it, and left loses leafB's term. As in core's
// merge sweep, left is the parent the caller keeps X-latched across
// actions; leafA is the one survivor the absorber latches.

const (
	toyKindLink   = wal.Kind(204) // a leaf's high key and side pointer; undone from the old pair it carries
	toyKindUnterm = wal.Kind(205) // an index node loses a term (redo-only)
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
	reg.Register(toyKindUnterm, storage.Handler{Redo: func(*storage.Frame, *wal.Record) error { return nil }})
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
	parent *Ref[*toyNode] // left, X-latched by the caller
	a      Ref[*toyNode]

	failSurvivor, failVictim, abandon bool
	onCut                             func()
}

func (m *toyAbsorb) Survivors(o *Op[*toyNode]) (storage.PageID, int, error) {
	a, err := o.Acquire(toyLeafA, latch.U, 0)
	if err != nil {
		return storage.NilPage, 0, err
	}
	m.a = a
	o.Hold(&m.a)
	if m.failSurvivor || m.a.N.right != toyLeafB {
		return storage.NilPage, 0, nil
	}
	o.Promote(&m.a)
	return toyLeafB, 0, nil
}

func (m *toyAbsorb) Victim(n *toyNode) bool { return !m.failVictim && n.low == m.a.N.high }

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
	return true, nil
}

func (m *toyAbsorb) Last(aa *txn.Txn) {
	p := m.parent
	aa.LogUpdate(p.F, toyKindUnterm, nil)
	i := slices.Index(p.N.kids, toyLeafB)
	p.N.seps, p.N.kids = slices.Delete(p.N.seps, i, i+1), slices.Delete(p.N.kids, i, i+1)
}

// absorb runs one Absorb of m with left X-latched around it, as core's
// sweep holds its parent, and checks that left is still latched when it
// returns; m.parent is set here.
func (ty *toy) absorb(t *testing.T, m *toyAbsorb) (bool, error) {
	t.Helper()
	o := ty.kern.NewOp(nil)
	defer o.Done()
	left, err := o.Acquire(toyLeft, latch.U, 1)
	if err != nil {
		t.Fatal(err)
	}
	o.Promote(&left)
	m.parent = &left
	freed, err := ty.kern.Absorb(o, m)
	if ty.unlatched(t, toyLeft) {
		t.Error("Absorb released the parent its caller holds")
	}
	o.Release(&left)
	return freed, err
}

// nextActionID begins and ends an empty action and returns its ID: the
// ID the next action begun will be one above it.
func (ty *toy) nextActionID() wal.TxnID {
	aa := ty.tm.BeginAtomicAction()
	_ = aa.Abort() // logged nothing: ends at once
	return aa.ID
}

// TestAbsorbFrees: the survivors and the victim are held to the commit,
// the caller's parent is changed last — after the free and the failpoint
// — and stays latched, and the page is free once the action commits.
func TestAbsorbFrees(t *testing.T) {
	ty := newToy(t, true, false)
	st := ty.withSpace(t)
	from := ty.log.EndLSN()
	if freed, err := ty.absorb(t, &toyAbsorb{}); !freed || err != nil {
		t.Fatalf("absorb: %v %v", freed, err)
	}
	var kinds []wal.Kind
	for _, r := range ty.records(from) {
		kinds = append(kinds, r.Kind)
	}
	if want := []wal.Kind{toyKindLink, storage.KindMetaFree, toyKindUnterm, 0}; !slices.Equal(kinds, want) {
		t.Fatalf("action logged kinds %v, want %v: the cut, the free, the parent last, the commit", kinds, want)
	}
	if a, left := ty.node(t, toyLeafA), ty.node(t, toyLeft); a.high != 75 || a.right != toyLeafC || slices.Contains(left.kids, toyLeafB) {
		t.Fatalf("leafA [%d) -> %d, left's children %v", a.high, a.right, left.kids)
	}
	if ok, err := st.IsAllocated(toyLeafB); ok || err != nil {
		t.Fatalf("freed page still allocated (%v)", err)
	}
	for _, pid := range []storage.PageID{toyLeafA, toyLeafB} {
		if !ty.unlatched(t, pid) {
			t.Fatalf("page %d still latched", pid)
		}
	}
}

// TestAbsorbNothingToDo: a failed survivor or victim re-test begins no
// action, and a completion task that names the victim — queued, or running
// — defers the free the same way, counted in Config.Deferred; an abandoned
// cut aborts an empty action. None logs anything or leaves a latch behind
// (the operation context checks that: CheckLatchOrder is on).
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
		run := func() { freed, err = ty.absorb(t, &tc.m) }
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
// free, aborts the action. Undo restores leafA under the latch the action
// holds — a reader queued on it since the cut finds the old link the moment
// it gets in — and re-allocates the page; the caller's parent was not
// changed yet and is still latched.
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
	if freed, err := ty.absorb(t, m); freed || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("absorb: %v %v", freed, err)
	}
	if got := <-seen; got != [2]int{50, int(toyLeafB)} {
		t.Fatalf("a reader of leafA saw [%d) -> %d: unlatched before its undo", got[0], got[1])
	}
	want := []wal.RecType{wal.RecUpdate, wal.RecUpdate, wal.RecAbort, wal.RecCLR, wal.RecCLR, wal.RecEnd}
	if got := recTypes(ty.records(from)); !slices.Equal(got, want) {
		t.Fatalf("log holds %v, want the aborted cut and free %v", got, want)
	}
	if ok, err := st.IsAllocated(toyLeafB); !ok || err != nil {
		t.Fatalf("victim free after the abort (%v)", err)
	}
	if a, left := ty.node(t, toyLeafA), ty.node(t, toyLeft); a.high != 50 || a.right != toyLeafB || !slices.Contains(left.kids, toyLeafB) {
		t.Fatalf("after the abort leafA [%d) -> %d, left's children %v", a.high, a.right, left.kids)
	}
}
