package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/enc"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/pitree"
	"repro/internal/pitree/pitreetest"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// The structure-change records carry no node pre-image: a split says where
// it cut and finds what left in the sibling's format record, a consolidate
// move carries what came and cuts it off again. These tests hold that the
// undo so built is exact, that it works from a live log and from a restart
// image, and that the records stay small.

// undoRoundTrip applies a record of kind to a copy of n — sib is the
// sibling it made, if any — and then its compensation; see
// pitreetest.UndoRoundTrip.
func undoRoundTrip(t *testing.T, reg *storage.Registry, n *Node, sibPid storage.PageID, sib *Node, kind wal.Kind, payload []byte) (applied, undone []byte) {
	t.Helper()
	var sibImage []byte
	if sib != nil {
		sibImage = encNodeImage(sib)
	}
	return pitreetest.UndoRoundTrip(t, reg, n.clone(), func(d any) []byte { return encNodeImage(d.(*Node)) },
		KindFormatNode, sibPid, sibImage, kind, payload)
}

// randomNode builds a node of up to 24 entries over keys above low.
func randomNode(rng *rand.Rand, level int, low uint64) (*Node, uint64) {
	n := &Node{Level: level, Right: storage.PageID(rng.Intn(1000)), Dead: false}
	if low > 0 {
		n.Low = keys.Uint64(low)
	}
	k := low
	for i, cnt := 0, 2+rng.Intn(23); i < cnt; i++ {
		e := Entry{Key: keys.Uint64(k)}
		if level == 0 {
			e.Value = make([]byte, 1+rng.Intn(40))
			rng.Read(e.Value)
		} else {
			e.Child = storage.PageID(1 + rng.Intn(1000))
		}
		appendEntries(n, e)
		k += 1 + uint64(rng.Intn(9))
	}
	if rng.Intn(4) == 0 {
		n.High, n.Right = keys.Inf, storage.NilPage
	} else {
		n.High = keys.At(keys.Uint64(k))
	}
	return n, k
}

func TestSlimUndoRestoresNode(t *testing.T) {
	reg := storage.NewRegistry()
	Register(reg, false)
	rng, urng := rand.New(rand.NewSource(21)), rand.New(rand.NewSource(22))
	for i := 0; i < 300; i++ {
		n, high := randomNode(rng, rng.Intn(3), uint64(rng.Intn(50)))
		want := encNodeImage(n)

		// Split, as halfCut does it.
		mid := n.Len() / 2
		sep := keys.Clone(n.keyAt(mid))
		upper := &Node{Level: n.Level, Low: sep, High: n.High, Right: n.Right, recs: n.recs.Slice(mid, n.Len())}
		applied, undone := undoRoundTrip(t, reg, n, 901, upper, KindSplitTruncate, appendTerm(nil, sep, 901))
		lower := n.clone()
		lower.recs, lower.High, lower.Right = lower.recs.Slice(0, mid), keys.At(sep), 901
		if !bytes.Equal(applied, encNodeImage(lower)) {
			t.Fatalf("node %d: split left %x, want the lower half %x", i, applied, encNodeImage(lower))
		}
		if !bytes.Equal(undone, want) {
			t.Fatalf("node %d: undo of the split gives\n%x, want\n%x", i, undone, want)
		}

		// Root growth, logged as the parent commit logged it.
		termA, termB := Entry{Key: n.Low, Child: 903}, Entry{Key: sep, Child: 904}
		applied, undone = undoRoundTrip(t, reg, n, 0, nil, KindRootGrow, oracleEncRootGrow(termA, termB, n))
		raised := &Node{Level: n.Level + 1, Low: n.Low, High: keys.Inf, Right: storage.NilPage}
		appendEntries(raised, termA, termB)
		if !bytes.Equal(applied, encNodeImage(raised)) {
			t.Fatalf("node %d: growth gives %x, want %x", i, applied, encNodeImage(raised))
		}
		if !bytes.Equal(undone, want) {
			t.Fatalf("node %d: undo of the growth gives\n%x, want\n%x", i, undone, want)
		}

		// Update of a data record, to a value of any length but its own:
		// the delta, then its inverse.
		if n.Level == 0 {
			j := urng.Intn(n.Len())
			e := n.entry(j)
			nv := make([]byte, urng.Intn(120))
			urng.Read(nv)
			if len(nv) == len(e.Value) {
				nv = append(nv, 1)
			}
			applied, undone = undoRoundTrip(t, reg, n, 0, nil, KindUpdateRecord, appendUpdate(nil, e.Key, e.Value, nv))
			updated := n.clone()
			updated.setValue(j, enc.NilIfEmpty(nv))
			if !bytes.Equal(applied, encNodeImage(updated)) {
				t.Fatalf("node %d: update gives %x, want %x", i, applied, encNodeImage(updated))
			}
			if !bytes.Equal(undone, want) {
				t.Fatalf("node %d: undo of the update gives\n%x, want\n%x", i, undone, want)
			}
		}

		// Consolidate move: absorb a right neighbour, where there can be one.
		if n.High.Unbounded {
			continue
		}
		c, _ := randomNode(rng, n.Level, high)
		n.Right = 902
		want = encNodeImage(n)
		applied, undone = undoRoundTrip(t, reg, n, 0, nil, KindConsolidateMove, encConsolidateMove(902, encNodeImage(c)))
		merged := n.clone()
		appendEntries(merged, entriesOf(c)...)
		merged.High, merged.Right = c.High, c.Right
		if !bytes.Equal(applied, encNodeImage(merged)) {
			t.Fatalf("node %d: consolidate move gives %x, want %x", i, applied, encNodeImage(merged))
		}
		if !bytes.Equal(undone, want) {
			t.Fatalf("node %d: undo of the consolidate move gives\n%x, want\n%x", i, undone, want)
		}
	}
}

// TestSplitUndoNeedsTheSiblingsFormatRecord: the undo refuses a chain whose
// previous record is not the format of the sibling the split names.
func TestSplitUndoNeedsTheSiblingsFormatRecord(t *testing.T) {
	reg := storage.NewRegistry()
	Register(reg, false)
	h, _ := reg.Handler(KindSplitTruncate)
	log := wal.New()
	n, _ := randomNode(rand.New(rand.NewSource(1)), 0, 0)
	prev := log.Append(&wal.Record{Type: wal.RecUpdate, Kind: KindFormatNode, TxnID: 1, StoreID: 1, PageID: 5, Payload: encNodeImage(n)})
	for name, rec := range map[string]*wal.Record{
		"other sibling":     {Type: wal.RecUpdate, Kind: KindSplitTruncate, TxnID: 1, PrevLSN: prev, StoreID: 1, PageID: 7, Payload: appendTerm(nil, keys.Uint64(3), 6)},
		"other transaction": {Type: wal.RecUpdate, Kind: KindSplitTruncate, TxnID: 2, PrevLSN: prev, StoreID: 1, PageID: 7, Payload: appendTerm(nil, keys.Uint64(3), 5)},
		"no previous":       {Type: wal.RecUpdate, Kind: KindSplitTruncate, TxnID: 1, StoreID: 1, PageID: 7, Payload: appendTerm(nil, keys.Uint64(3), 5)},
	} {
		log.Append(rec)
		if _, err := h.MakeUndo(rec, log); err == nil {
			t.Fatalf("%s: undo built a compensation from a record that is not the sibling's format", name)
		}
	}
}

// slimOpts are small nodes, synchronous completion.
func slimOpts() Options {
	o := defaultTestOpts()
	o.LeafCapacity, o.IndexCapacity = 4, 4
	return o
}

// contents reads the whole tree.
func (fx *fixture) contents(t *testing.T) map[uint64]string {
	t.Helper()
	got := map[uint64]string{}
	err := fx.tree.RangeScan(nil, nil, nil, func(k keys.Key, v []byte) bool {
		got[keys.ToUint64(k)] = string(v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func sameContents(t *testing.T, label string, got, want map[uint64]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: key %d = %q, want %q", label, k, got[k], v)
		}
	}
}

// slimCase drives one structure change of a kind and says what the tree
// must hold if the change's action never commits.
type slimCase struct {
	name string
	kind wal.Kind
	// run builds a tree and performs the change as its last logged action
	// (with fail set: as an action that fails after logging it, and is
	// rolled back at run time). It returns the contents from just before.
	run func(t *testing.T, fail bool) (*fixture, map[uint64]string)
}

// growUntil inserts ascending keys, draining completions after each, until
// the counter moves; it returns the contents before the insert that moved
// it (whose key is their number).
func growUntil(t *testing.T, fx *fixture, counter func() int64, before func(key uint64)) map[uint64]string {
	t.Helper()
	want := map[uint64]string{}
	for k, base := uint64(0), counter(); k < 10000; k++ {
		before(k)
		if err := fx.tree.Insert(nil, keys.Uint64(k), val(int(k))); err != nil && !errors.Is(err, fault.ErrInjected) {
			t.Fatal(err)
		}
		fx.tree.DrainCompletions()
		if counter() != base {
			return want
		}
		want[k] = string(val(int(k)))
	}
	t.Fatal("the structure change never happened")
	return nil
}

// splitByHand splits the leaf of key 0 as splitLeaf would, in an action
// that then fails and is rolled back at run time.
func (fx *fixture) splitByHand(t *testing.T) {
	t.Helper()
	o := fx.tree.kern.NewOp(nil)
	defer o.Done()
	leaf, err := fx.tree.descendTo(o, keys.Uint64(0), 0, latch.U, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	errAbandon := errors.New("split abandoned")
	err = o.Atomic(func(aa *txn.Txn) error {
		o.Hold(&leaf)
		o.Promote(&leaf)
		cut, err := fx.tree.cutOf(leaf.N, nil)
		if err != nil {
			return err
		}
		if err := fx.tree.kern.Split(o, aa, &leaf, cut); err != nil {
			return err
		}
		return errAbandon
	})
	if err != errAbandon {
		t.Fatal(err)
	}
}

// fullRoot builds a tree whose root is a full leaf.
func fullRoot(t *testing.T) (*fixture, map[uint64]string) {
	fx := newFixture(t, engine.Options{}, slimOpts())
	for k := uint64(0); k < uint64(slimOpts().LeafCapacity); k++ {
		if err := fx.tree.Insert(nil, keys.Uint64(k), val(int(k))); err != nil {
			t.Fatal(err)
		}
	}
	return fx, fx.contents(t)
}

var slimCases = []slimCase{
	{
		// A leaf split is its own action and nothing in it can fail behind
		// the split record: the run-time abort is of the same action made
		// to fail by hand.
		name: "leaf split", kind: KindSplitTruncate,
		run: func(t *testing.T, fail bool) (*fixture, map[uint64]string) {
			fx := newFixture(t, engine.Options{}, slimOpts())
			want := growUntil(t, fx, fx.tree.Stats.LeafSplits.Load, func(uint64) {})
			if fail {
				want = fx.contents(t)
				fx.splitByHand(t)
			}
			return fx, want
		},
	},
	{
		// The split of the root leaf grows the tree: likewise.
		name: "root growth", kind: KindRootGrow,
		run: func(t *testing.T, fail bool) (*fixture, map[uint64]string) {
			fx, want := fullRoot(t)
			if fail {
				fx.splitByHand(t)
			} else if err := fx.tree.Insert(nil, keys.Uint64(100), val(100)); err != nil {
				t.Fatal(err)
			}
			if n := fx.tree.Stats.RootGrowths.Load(); n != 1 {
				t.Fatalf("%d root growths", n)
			}
			return fx, want
		},
	},
	{
		// Page-oriented undo: a transaction that fills a leaf it has
		// updated splits it itself, and its abort undoes the split.
		name: "leaf split in transaction", kind: KindSplitTruncate,
		run: func(t *testing.T, fail bool) (*fixture, map[uint64]string) {
			fx := newFixture(t, engine.Options{PageOriented: true}, slimOpts())
			for k := uint64(0); k < 400; k += 10 {
				if err := fx.tree.Insert(nil, keys.Uint64(k), val(int(k))); err != nil {
					t.Fatal(err)
				}
			}
			fx.tree.DrainCompletions()
			want := fx.contents(t)
			tx := fx.e.TM.Begin()
			for k := uint64(1); fx.tree.Stats.InTxnSplits.Load() == 0; k++ {
				if k == 10 {
					t.Fatal("the transaction never split a leaf")
				}
				if err := fx.tree.Insert(tx, keys.Uint64(k), val(int(k))); err != nil {
					t.Fatal(err)
				}
			}
			if fail {
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
				return fx, want
			}
			// Restart finds the transaction without a commit record; give
			// the cut one to aim at.
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			return fx, want
		},
	},
	{
		name: "index split", kind: KindSplitTruncate,
		run: func(t *testing.T, fail bool) (*fixture, map[uint64]string) {
			opts := slimOpts()
			dry := newFixture(t, engine.Options{}, opts)
			trigger := uint64(len(growUntil(t, dry, dry.tree.Stats.IndexSplits.Load, func(uint64) {})))
			inj := fault.New(1)
			fx := newFixture(t, engine.Options{Injector: inj}, opts)
			want := growUntil(t, fx, fx.tree.Stats.IndexSplits.Load, func(k uint64) {
				if fail && k == trigger {
					// Fails the posting that is about to split its node, after
					// the split.
					inj.Arm(pitree.FPPost, fault.Spec{Kind: fault.Transient})
				}
			})
			if fail && fx.tree.Stats.PostsFailed.Load() != 1 {
				t.Fatalf("%d postings failed, want the one that split", fx.tree.Stats.PostsFailed.Load())
			}
			want[trigger] = string(val(int(trigger))) // the insert is committed before its leaf's posting runs
			return fx, want
		},
	},
	{
		name: "consolidate move", kind: KindConsolidateMove,
		run: func(t *testing.T, fail bool) (*fixture, map[uint64]string) {
			inj := fault.New(1)
			fx := newFixture(t, engine.Options{Injector: inj}, slimOpts())
			want := map[uint64]string{}
			for k := uint64(0); k < 64; k++ {
				if err := fx.tree.Insert(nil, keys.Uint64(k), val(int(k))); err != nil {
					t.Fatal(err)
				}
				want[k] = string(val(int(k)))
			}
			fx.tree.DrainCompletions()
			if fail {
				inj.Arm(storage.FPConsolidate, fault.Spec{Kind: fault.Transient})
			}
			for k := uint64(0); k < 64; k++ {
				if err := fx.tree.Delete(nil, keys.Uint64(k)); err != nil {
					t.Fatal(err)
				}
				delete(want, k)
				fx.tree.DrainCompletions()
				if fx.tree.Stats.Consolidations.Load() > 0 || len(inj.Trips()) > 0 {
					return fx, want
				}
			}
			t.Fatal("no consolidation was attempted")
			return nil, nil
		},
	},
}

// TestSlimRecordRolledBack: a structure change whose record is in the log
// and whose action's commit record is not — because the action failed and
// was rolled back at run time, or because a crash cut the log there — leaves
// a well-formed tree holding what it held before.
func TestSlimRecordRolledBack(t *testing.T) {
	for _, tc := range slimCases {
		t.Run(tc.name+"/abort", func(t *testing.T) {
			fx, want := tc.run(t, true)
			fx.mustVerify(t)
			sameContents(t, "after the runtime abort", fx.contents(t), want)
		})
		t.Run(tc.name+"/restart", func(t *testing.T) {
			fx, want := tc.run(t, false)
			cut := pitreetest.CutBeforeCommit(t, fx.e.Log, tc.kind)
			fx2 := fx.crashRestart(t, &cut)
			fx2.mustVerify(t)
			sameContents(t, "after restart", fx2.contents(t), want)
		})
	}
}

// TestSplitLogIdentity: a split rolled back at run time logs the parent
// commit's bytes — the sibling's format, the split record and the
// compensation that undid it (oracleSplit, oracleUnsplit), or at the root
// both halves' formats, the growth and its restore (oracleRootSplit) — for
// a leaf split (under logical undo, and under page-oriented undo with
// record move locks, failed at pitree.FPSplit), an index split in a
// posting that fails at pitree.FPPost, a root split, and a split inside a
// transaction under page-oriented undo, with record move locks off and on,
// that the transaction's abort undoes.
func TestSplitLogIdentity(t *testing.T) {
	var snap map[storage.PageID][]byte
	var from wal.LSN
	take := func(fx *fixture) {
		snap, from = pitreetest.Images(fx.tree.kern, encNodeImage), fx.e.Log.EndLSN()
	}
	pre := func(t *testing.T, pid storage.PageID) *Node {
		n, err := decNodeImage(snap[pid])
		if err != nil {
			t.Fatalf("page %d before the split: %v", pid, err)
		}
		return n
	}
	identity := func(t *testing.T, fx *fixture) {
		t.Helper()
		pitreetest.SplitIdentity(t, fx.e.Log, from, KindFormatNode, KindConsolidateMove, []wal.Kind{KindSplitTruncate},
			func(page, sib storage.PageID) ([]byte, []byte) { return oracleSplit(pre(t, page), sib) }, oracleUnsplit)
	}
	inTxn := func(t *testing.T, moveLocks bool) *fixture {
		opts := slimOpts()
		opts.RecordMoveLocks = moveLocks
		fx := newFixture(t, engine.Options{PageOriented: true}, opts)
		for k := uint64(0); k < 400; k += 10 {
			if err := fx.tree.Insert(nil, keys.Uint64(k), val(int(k))); err != nil {
				t.Fatal(err)
			}
		}
		fx.tree.DrainCompletions()
		tx := fx.e.TM.Begin()
		for k := uint64(1); fx.tree.Stats.InTxnSplits.Load() == 0; k++ {
			if k == 10 {
				t.Fatal("the transaction never split a leaf")
			}
			take(fx)
			if err := fx.tree.Insert(tx, keys.Uint64(k), val(int(k))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		return fx
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) *fixture
	}{
		{"leaf split", func(t *testing.T) *fixture {
			fx := newFixture(t, engine.Options{}, slimOpts())
			growUntil(t, fx, fx.tree.Stats.LeafSplits.Load, func(uint64) {})
			take(fx)
			fx.splitByHand(t)
			return fx
		}},
		{"leaf split, record move locks", func(t *testing.T) *fixture {
			opts := slimOpts()
			opts.RecordMoveLocks = true
			inj := fault.New(1)
			fx := newFixture(t, engine.Options{PageOriented: true, Injector: inj}, opts)
			growUntil(t, fx, func() int64 { return int64(len(inj.Trips())) }, func(k uint64) {
				if k == 6 {
					take(fx)
					inj.Arm(pitree.FPSplit, fault.Spec{Kind: fault.Transient})
				}
			})
			return fx
		}},
		{"index split", func(t *testing.T) *fixture {
			dry := newFixture(t, engine.Options{}, slimOpts())
			trigger := uint64(len(growUntil(t, dry, dry.tree.Stats.IndexSplits.Load, func(uint64) {})))
			inj := fault.New(1)
			fx := newFixture(t, engine.Options{Injector: inj}, slimOpts())
			growUntil(t, fx, fx.tree.Stats.IndexSplits.Load, func(k uint64) {
				if k == trigger {
					take(fx)
					inj.Arm(pitree.FPPost, fault.Spec{Kind: fault.Transient})
				}
			})
			if fx.tree.Stats.PostsFailed.Load() != 1 {
				t.Fatalf("%d postings failed, want the one that split", fx.tree.Stats.PostsFailed.Load())
			}
			return fx
		}},
		{"leaf split in transaction", func(t *testing.T) *fixture { return inTxn(t, false) }},
		{"leaf split in transaction, record move locks", func(t *testing.T) *fixture { return inTxn(t, true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := tc.run(t)
			identity(t, fx)
			fx.mustVerify(t)
		})
	}
	t.Run("root split", func(t *testing.T) {
		fx, _ := fullRoot(t)
		take(fx)
		fx.splitByHand(t)
		root := pre(t, fx.tree.root)
		pitreetest.GrowIdentity(t, fx.e.Log, from, KindFormatNode, KindRootGrow, KindRestoreImage,
			func(pidA, pidB storage.PageID, imageA, imageB []byte) []byte {
				a, b, grow := oracleRootSplit(root, pidA, pidB)
				if !bytes.Equal(imageA, a) || !bytes.Equal(imageB, b) {
					t.Fatalf("halves format\n%x and\n%x, want\n%x and\n%x", imageA, imageB, a, b)
				}
				return grow
			}, oracleRestore)
		if got := pitreetest.Images(fx.tree.kern, encNodeImage)[fx.tree.root]; !bytes.Equal(got, snap[fx.tree.root]) {
			t.Fatalf("root after the rollback is\n%x, want\n%x", got, snap[fx.tree.root])
		}
		fx.mustVerify(t)
	})
}

// TestStructureRecordsStaySmall: with 64-entry nodes of 100-byte values no
// structure-change record but a node image — a format, the node a
// consolidation absorbs, the root kinds' pre-image — reaches 512 bytes. A
// node pre-image would be some 7 KiB.
func TestStructureRecordsStaySmall(t *testing.T) {
	opts := defaultTestOpts()
	opts.LeafCapacity, opts.IndexCapacity = 64, 64
	fx := newFixture(t, engine.Options{}, opts)
	value := bytes.Repeat([]byte{'v'}, 100)
	const n = 64 * 80
	for k := uint64(0); k < n; k++ {
		if err := fx.tree.Insert(nil, keys.Uint64(k*7919%n), value); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < n; k += 2 {
		if err := fx.tree.Delete(nil, keys.Uint64(k)); err != nil {
			t.Fatal(err)
		}
		if err := fx.tree.Delete(nil, keys.Uint64(k+1)); err != nil && k%8 != 0 {
			t.Fatal(err)
		}
	}
	fx.mustVerify(t)
	images := map[wal.Kind]bool{KindFormatNode: true, KindConsolidateMove: true, KindRootGrow: true, KindRootShrink: true}
	seen := map[wal.Kind]int{}
	fx.e.Log.FullImage().Scan(wal.NilLSN, func(r wal.Record) bool {
		seen[r.Kind]++
		if !images[r.Kind] && r.Size() >= 512 {
			t.Errorf("%s record of kind %d at LSN %d is %d bytes", r.Type, r.Kind, r.LSN, r.Size())
		}
		return true
	})
	for _, k := range []wal.Kind{KindSplitTruncate, KindConsolidateMove, KindPostIndexTerm, KindRemoveIndexTerm} {
		if seen[k] == 0 {
			t.Errorf("the workload logged no record of kind %d", k)
		}
	}
	if seen[KindSplitTruncate] < 64 {
		t.Errorf("only %d splits: no index node split", seen[KindSplitTruncate])
	}
}

// FuzzSlimPayloads: the decoders of the slimmed payloads, and the node
// decoder under them, fail on arbitrary bytes; they do not panic or size an
// allocation by a count they have not checked against the input. An
// update's delta that decodes is exactly what appendUpdate writes for a
// value it applies to and the value it makes of it: it re-encodes to the
// same bytes either way, its runs turn that value into one of its target
// length, and its inverse turns that back. The redo's one walk of the runs
// (redoUpdate) agrees: it applies what decUpdate accepts to a value of the
// delta's From length and makes what the decoded delta makes, and any other
// payload, or a value of another length, it refuses and leaves the node as
// it was.
func FuzzSlimPayloads(f *testing.F) {
	n, _ := randomNode(rand.New(rand.NewSource(3)), 0, 5)
	f.Add(appendTerm(nil, keys.Uint64(9), 4))
	f.Add(encConsolidateMove(4, encNodeImage(n)))
	f.Add(encRootShrink(n, n))
	f.Add([]byte{0xff, 0xff, 0xff, 0xfe, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})
	// Field prefixes: a nil key beside an empty value, a prefix cut short,
	// one past 64 bits, and a length past the input.
	f.Add(appendLeaf(nil, nil, []byte{}))
	f.Add([]byte{0x89, 0x80})
	f.Add(append(bytes.Repeat([]byte{0xff}, 10), 1, 9))
	f.Add(append([]byte{0xff, 0xff, 0x7f}, appendTerm(nil, keys.Uint64(9), 4)[1:]...))
	long, short := bytes.Repeat([]byte("0123456789"), 10), []byte("abcdefg")
	f.Add(appendUpdate(nil, keys.Uint64(9), long, short))
	f.Add(appendUpdate(nil, keys.Uint64(9), short, nil))
	f.Add(appendUpdate(nil, keys.Uint64(9), nil, long))
	f.Add(appendUpdate(nil, keys.Uint64(9), long, append(long[:50:50], 'x')))
	f.Add(appendUpdate(nil, keys.Uint64(9), long, bytes.Repeat([]byte("0123456780"), 10)))
	// A shrinking delta with a run that starts past the new value.
	f.Add(appendUpdate(nil, keys.Uint64(9), []byte("abcdefgh\x00\x00\x00\x00\x00xyz"), []byte("abcdefgh")))
	// Lengths far past any record, which must be refused unread, and a run
	// past its value's end.
	f.Add(appendDelta(nil, valueDelta{key: keys.Uint64(9), Delta: enc.Delta{From: 1 << 40, To: 1 << 40, Runs: []byte{0, 1, 1}}}))
	f.Add(appendDelta(nil, valueDelta{key: keys.Uint64(9), Delta: enc.Delta{From: 4, To: 4, Runs: []byte{3, 2, 1, 1}}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		if d, err := decUpdate(b); err == nil {
			if again := appendDelta(nil, d); !bytes.Equal(again, b) {
				t.Fatalf("delta %x re-encodes as %x", b, again)
			}
			// A value the delta applies to: any bytes below its target
			// length, and above it the old bytes a shrinking delta carries.
			x := make([]byte, max(d.From, d.To))
			for _, r := range runsOf(d) {
				copy(x[r.off:], r.x)
			}
			v := make([]byte, d.From)
			for p := range v {
				if v[p] = x[p]; p < d.To {
					v[p] = byte(p*31 + 7)
				}
			}
			w, err := d.apply(nil, v)
			if err != nil || len(w) != d.To {
				t.Fatalf("delta %x made %d bytes of %d (%v), want %d", b, len(w), len(v), err, d.To)
			}
			if again := appendUpdate(nil, d.key, v, w); !bytes.Equal(again, b) {
				t.Fatalf("delta %x turns %x into %x, an update logged as %x", b, v, w, again)
			}
			if back, err := d.inverse().apply(nil, w); err != nil || !bytes.Equal(back, v) {
				t.Fatalf("delta %x: its inverse gives %x back for %x (%v)", b, back, v, err)
			}
		}
		checkRedoUpdate(t, b)
		if cut, err := decRecord(1, b); err == nil {
			if got := appendTerm(nil, cut.Key, cut.Child); !bytes.Equal(got, b) {
				t.Fatalf("split payload %x decodes to one that encodes as %x", b, got)
			}
		}
		if _, n, err := decConsolidateMove(b); err == nil && n.Len() > len(b) {
			t.Fatalf("%d entries out of %d bytes", n.Len(), len(b))
		}
		_, _, _ = decRootShrink(b)
	})
}

// checkRedoUpdate holds redoUpdate to decUpdate and valueDelta.apply for
// the update payload b, over a leaf that holds b's key beside two others,
// valued with each of a few lengths and the delta's From length.
func checkRedoUpdate(t *testing.T, b []byte) {
	key := enc.NewReader(b).ViewField()
	if key == nil {
		return
	}
	d, decErr := decUpdate(b)
	lengths := []int{0, 1, 7, 100}
	if decErr == nil && d.From <= 4096 {
		lengths = append(lengths, d.From)
	}
	for _, l := range lengths {
		v := make([]byte, l)
		for i := range v {
			v[i] = byte(i*131 + 17)
		}
		n := &Node{High: keys.Inf}
		for _, e := range []Entry{{Key: key, Value: v}, {Key: append(bytes.Clone(key), 0), Value: []byte("after")}, {Key: nil, Value: []byte("first")}} {
			n.insertEntry(e)
		}
		before := encNodeImage(n)
		err := redoUpdate(n, b)
		if decErr != nil || l != d.From {
			if err == nil {
				t.Fatalf("payload %x over a %d-byte value: redone, though decUpdate says %v (From %d)", b, l, decErr, d.From)
			}
			if after := encNodeImage(n); !bytes.Equal(after, before) {
				t.Fatalf("payload %x refused (%v) changed the node: %x, was %x", b, err, after, before)
			}
			continue
		}
		want, werr := d.apply(nil, v)
		i, _ := n.search(key)
		if got := n.entry(i).Value; err != nil || werr != nil || !bytes.Equal(got, want) {
			t.Fatalf("payload %x over %x: redo made %x (%v), the decoded delta %x (%v)", b, v, got, err, want, werr)
		}
	}
}

// TestGrowLogIdentity: the growth of a full root leaf, rolled back, logs
// the parent commit's bytes for that root — its growth record
// (oracleEncRootGrow) and the restore its undo made (oracleRestore) — and
// leaves the root as it was.
func TestGrowLogIdentity(t *testing.T) {
	fx, _ := fullRoot(t)
	pre := fx.rootNode(t)
	from := fx.e.Log.EndLSN()
	fx.splitByHand(t)
	pitreetest.GrowIdentity(t, fx.e.Log, from, KindFormatNode, KindRootGrow, KindRestoreImage,
		func(pidA, pidB storage.PageID, _, imageB []byte) []byte {
			b, err := decNodeImage(imageB)
			if err != nil {
				t.Fatal(err)
			}
			return oracleEncRootGrow(Entry{Key: pre.Low, Child: pidA}, Entry{Key: b.Low, Child: pidB}, pre)
		}, oracleRestore)
	if got := encNodeImage(fx.rootNode(t)); !bytes.Equal(got, encNodeImage(pre)) {
		t.Fatalf("root after the rollback is\n%x, want\n%x", got, encNodeImage(pre))
	}
}

// rootNode returns a copy of the root (quiescent helper).
func (fx *fixture) rootNode(t *testing.T) *Node {
	t.Helper()
	f, err := fx.tree.store.Pool.Fetch(fx.tree.root)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.tree.store.Pool.Unpin(f)
	return f.Data.(*Node).clone()
}
