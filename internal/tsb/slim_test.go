package tsb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/enc"
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
// it cut, carries the node's header as it was, and finds what left in the
// sibling's format record; a retire carries nothing and is not undone.
// These tests hold that the undo so built is exact, that it works from a
// live log and from a restart image, and that the records stay small.

// undoRoundTrip applies a record of kind to a copy of n — sib is the
// sibling it made, if any — and then its compensation, and returns the
// node's image after that; see pitreetest.UndoRoundTrip.
func undoRoundTrip(t *testing.T, reg *storage.Registry, n *Node, sibPid storage.PageID, sib *Node, kind wal.Kind, payload []byte) []byte {
	t.Helper()
	var sibImage []byte
	if sib != nil {
		sibImage = encNodeImage(sib)
	}
	_, undone := pitreetest.UndoRoundTrip(t, reg, n.clone(), func(d any) []byte { return encNodeImage(d.(*Node)) },
		KindFormat, sibPid, sibImage, kind, payload)
	return undone
}

func randomRect(rng *rand.Rand) Rect {
	r := Rect{KeyHigh: keys.Inf, TimeLow: uint64(rng.Intn(50)), TimeHigh: NoEnd}
	if rng.Intn(3) > 0 {
		r.KeyLow = keys.Uint64(uint64(100 + rng.Intn(100)))
	}
	if rng.Intn(3) > 0 {
		r.KeyHigh = keys.At(keys.Uint64(uint64(800 + rng.Intn(100))))
	}
	return r
}

// randomDataNode builds a current data node: up to 8 keys in (200, 800),
// one to five versions each, starts ascending from the node's time low.
func randomDataNode(rng *rand.Rand) *Node {
	n := &Node{Rect: randomRect(rng), KeySib: storage.PageID(rng.Intn(50)), HistSib: storage.PageID(rng.Intn(50)), HistShared: rng.Intn(2) == 0}
	k := uint64(200)
	for i, cnt := 0, 2+rng.Intn(7); i < cnt; i++ {
		k += 1 + uint64(rng.Intn(60))
		start := n.Rect.TimeLow
		for v, vs := 0, 1+rng.Intn(5); v < vs; v++ {
			start += 1 + uint64(rng.Intn(20))
			e := Entry{Key: keys.Uint64(k), Start: start, Value: make([]byte, 1+rng.Intn(30)), Deleted: rng.Intn(8) == 0, Txn: wal.TxnID(rng.Intn(3))}
			rng.Read(e.Value)
			appendEntries(n, e)
		}
	}
	return n
}

// randomIndexNode builds a level-1 node of rectangle terms, some of them
// history terms wide enough to span a split key and some clipped already,
// or a higher node of key terms.
func randomIndexNode(rng *rand.Rand, level int) *Node {
	n := &Node{Level: level, Rect: randomRect(rng), KeySib: storage.PageID(rng.Intn(50))}
	n.Rect.TimeLow = 0
	k := uint64(200)
	for i, cnt := 0, 3+rng.Intn(10); i < cnt; i++ {
		e := Entry{Child: storage.PageID(1000 + i)}
		low := keys.Uint64(k)
		if i == 0 {
			low = keys.Clone(n.Rect.KeyLow)
		}
		k += 1 + uint64(rng.Intn(40))
		if level > 1 {
			e.Key = low
			appendEntries(n, e)
			continue
		}
		e.ChildRect = Rect{KeyLow: low, KeyHigh: keys.At(keys.Uint64(k)), TimeLow: uint64(rng.Intn(40)), TimeHigh: NoEnd}
		if rng.Intn(2) == 0 { // a history node's term, its key range from before later key splits
			e.ChildRect.TimeHigh = e.ChildRect.TimeLow + 1 + uint64(rng.Intn(40))
			e.ChildRect.KeyHigh = keys.At(keys.Uint64(k + uint64(rng.Intn(200))))
			e.Clipped = rng.Intn(3) == 0
		}
		n.insertTerm(e)
	}
	return n
}

func TestSlimUndoRestoresNode(t *testing.T) {
	reg := storage.NewRegistry()
	Register(reg)
	rng := rand.New(rand.NewSource(22))
	spanned, clipped := 0, 0
	for i := 0; i < 300; i++ {
		n := randomDataNode(rng)
		want := encNodeImage(n)

		// Time split at a time inside the node's versions, as splitCut does.
		ts := n.startAt(rng.Intn(n.Len())) + uint64(rng.Intn(2))
		hist := &Node{Rect: cloneRect(n.Rect), HistSib: n.HistSib, HistShared: n.HistShared, recs: historyContents(n, ts)}
		hist.Rect.TimeHigh = ts
		for j := 0; j < hist.Len(); j++ { // a version alive across ts is in both nodes
			if j+1 == hist.Len() || !keys.Equal(hist.keyAt(j+1), hist.keyAt(j)) {
				spanned++
			}
		}
		if hist.Len() > 0 {
			if got := undoRoundTrip(t, reg, n, 901, hist, KindTimeSplit, encTimeSplit(ts, 901, n)); !bytes.Equal(got, want) {
				t.Fatalf("node %d: undo of the time split at %d gives\n%x, want\n%x", i, ts, got, want)
			}
		}

		// Key split at a key of the node.
		k := keys.Clone(n.keyAt(n.Len() / 2))
		sib := &Node{Rect: cloneRect(n.Rect), KeySib: n.KeySib, HistSib: n.HistSib, HistShared: n.HistSib != storage.NilPage}
		sib.Rect.KeyLow = keys.Clone(k)
		for _, e := range entriesOf(n) {
			if keys.Compare(e.Key, k) >= 0 {
				appendEntries(sib, e)
			}
		}
		if got := undoRoundTrip(t, reg, n, 902, sib, KindKeySplit, encKeySplit(k, 902, n, nil)); !bytes.Equal(got, want) {
			t.Fatalf("node %d: undo of the key split gives\n%x, want\n%x", i, got, want)
		}

		// Cutting the history edge.
		if n.HistSib != storage.NilPage {
			if got := undoRoundTrip(t, reg, n, 0, nil, KindCutHist, encCutHist(n)); !bytes.Equal(got, want) {
				t.Fatalf("node %d: undo of the history cut gives\n%x, want\n%x", i, got, want)
			}
		}

		// Index key split, with clipping at level 1.
		in := randomIndexNode(rng, 1+rng.Intn(2))
		want = encNodeImage(in)

		// Root growth, logged as the parent commit logged it.
		grow := oracleEncRootGrow(Entry{Child: 904}, Entry{Key: keys.Uint64(500), Child: 905}, in)
		if got := undoRoundTrip(t, reg, in, 0, nil, KindRootGrow, grow); !bytes.Equal(got, want) {
			t.Fatalf("node %d: undo of the growth gives\n%x, want\n%x", i, got, want)
		}

		tree := &Tree{}
		ik, ok := tree.indexSplitKey(in)
		if !ok {
			continue
		}
		isib, c := indexSibling(in, ik)
		clipped += c
		if got := undoRoundTrip(t, reg, in, 903, isib, KindIndexKeySplit, encKeySplit(ik, 903, in, newlyClipped(in, ik))); !bytes.Equal(got, want) {
			t.Fatalf("node %d: undo of the index key split at %x gives\n%x, want\n%x", i, ik, got, want)
		}
	}
	if spanned == 0 || clipped == 0 {
		t.Fatalf("the nodes had %d versions spanning a split time and %d terms clipped by a split", spanned, clipped)
	}
}

// slimOpts are small nodes, synchronous completion, no background GC.
func slimOpts() Options {
	o := smallOpts()
	o.DataCapacity, o.IndexCapacity = 4, 4
	return o
}

func sval(k uint64, round int) string { return fmt.Sprintf("k%d-r%d", k, round) }

// reads answers, for every key below n, the current read and the as-of read
// at each of the times.
func (fx *fixture) reads(t *testing.T, n uint64, times []uint64) map[string]string {
	t.Helper()
	got := map[string]string{}
	for k := uint64(0); k < n; k++ {
		for _, at := range append([]uint64{fx.tree.Now()}, times...) {
			v, ok, err := fx.tree.GetAsOf(nil, keys.Uint64(k), at)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%d@%d", k, at)
			if at == fx.tree.Now() {
				name = fmt.Sprintf("%d@now", k)
			}
			got[name] = fmt.Sprintf("%s/%v", v, ok)
		}
	}
	return got
}

func sameReads(t *testing.T, label string, got, want map[string]string) {
	t.Helper()
	for name, v := range want {
		if got[name] != v {
			t.Fatalf("%s: read %s = %s, want %s", label, name, got[name], v)
		}
	}
}

var errFailedByHand = errors.New("the test fails this action")

// failedSplit runs a split of key's full data node as splitData would, but
// fails the action once the split is logged and applied.
func (fx *fixture) failedSplit(t *testing.T, key uint64, timeSplit bool) {
	t.Helper()
	tr := fx.tree
	o := tr.kern.NewOp(nil)
	defer o.Done()
	leaf, err := tr.descend(o, keys.Uint64(key), NoEnd-1, 0, latch.U, false)
	if err != nil {
		t.Fatal(err)
	}
	o.Promote(&leaf)
	err = o.Atomic(func(aa *txn.Txn) error {
		o.Hold(&leaf)
		cut := &splitCut{t: tr, kind: KindTimeSplit}
		if !timeSplit {
			cut = &splitCut{t: tr, kind: KindKeySplit, k: medianKey(leaf.N, distinctKeys(leaf.N))}
		}
		if err := tr.kern.Split(o, aa, &leaf, cut); err != nil {
			return err
		}
		return errFailedByHand
	})
	if err != errFailedByHand {
		t.Fatal(err)
	}
}

// failedPrune prunes key's full data node at the visibility horizon as
// prune does, but fails the action once the prune is logged and applied.
func (fx *fixture) failedPrune(t *testing.T, key uint64) {
	t.Helper()
	tr := fx.tree
	o := tr.kern.NewOp(nil)
	defer o.Done()
	leaf, err := tr.descend(o, keys.Uint64(key), NoEnd-1, 0, latch.U, false)
	if err != nil {
		t.Fatal(err)
	}
	h := tr.tm.VisibilityHorizon()
	if prunable(leaf.N, h) == 0 {
		t.Fatal("the node holds nothing to prune")
	}
	o.Promote(&leaf)
	err = o.Atomic(func(aa *txn.Txn) error {
		o.Hold(&leaf)
		aa.LogUpdate(leaf.F, KindPrune, encPrune(h))
		applyPrune(leaf.N, h)
		return errFailedByHand
	})
	if err != errFailedByHand {
		t.Fatal(err)
	}
}

// slimCase drives one structure change of a kind. run builds a tree and
// performs the change as its last logged action — with fail set: as an
// action that fails after logging it, and is rolled back at run time — and
// returns the tree with the number of keys in it and the reads taken just
// before the action.
type slimCase struct {
	name string
	kind wal.Kind
	run  func(t *testing.T, fail bool) (fx *fixture, n uint64, want map[string]string)
}

var slimCases = []slimCase{
	{
		name: "time split", kind: KindTimeSplit,
		run: func(t *testing.T, fail bool) (*fixture, uint64, map[string]string) {
			fx := newFixture(t, slimOpts())
			// Two keys, rewritten until their node is full of versions.
			var want map[string]string
			for round := 0; fx.tree.Stats.TimeSplits.Load() == 0; round++ {
				want = fx.reads(t, 2, nil)
				if fail && round == 2 { // four versions: the node is full
					fx.failedSplit(t, 0, true)
					break
				}
				for k := uint64(0); k < 2; k++ {
					if err := fx.tree.Put(nil, keys.Uint64(k), []byte(sval(k, round))); err != nil {
						t.Fatal(err)
					}
				}
			}
			return fx, 2, want
		},
	},
	{
		name: "key split", kind: KindKeySplit,
		run: func(t *testing.T, fail bool) (*fixture, uint64, map[string]string) {
			fx := newFixture(t, slimOpts())
			for k := uint64(0); k < 4; k++ {
				if err := fx.tree.Put(nil, keys.Uint64(k), []byte(sval(k, 0))); err != nil {
					t.Fatal(err)
				}
			}
			want := fx.reads(t, 5, nil)
			if fail {
				fx.failedSplit(t, 0, false)
			} else if err := fx.tree.Put(nil, keys.Uint64(4), []byte(sval(4, 0))); err != nil {
				t.Fatal(err)
			}
			return fx, 5, want
		},
	},
	{
		name: "index key split", kind: KindIndexKeySplit,
		run: func(t *testing.T, fail bool) (*fixture, uint64, map[string]string) {
			return postingCase(t, fail, func(s *Stats) int64 { return s.IndexSplits.Load() }, func(*fixture) {})
		},
	},
	{
		name: "root growth", kind: KindRootGrow,
		run: func(t *testing.T, fail bool) (*fixture, uint64, map[string]string) {
			return postingCase(t, fail, func(s *Stats) int64 { return s.RootGrowths.Load() }, func(*fixture) {})
		},
	},
	{
		name: "prune", kind: KindPrune,
		run: func(t *testing.T, fail bool) (*fixture, uint64, map[string]string) {
			opts := slimOpts()
			opts.GC = true
			fx := newFixture(t, opts)
			// Two keys, rewritten until their full node prunes.
			var want map[string]string
			for round := 0; fx.tree.Stats.Prunes.Load() == 0; round++ {
				want = fx.reads(t, 2, nil)
				if fail && round == 2 { // four versions: the node is full
					fx.failedPrune(t, 0)
					break
				}
				for k := uint64(0); k < 2; k++ {
					if err := fx.tree.Put(nil, keys.Uint64(k), []byte(sval(k, round))); err != nil {
						t.Fatal(err)
					}
				}
			}
			return fx, 2, want
		},
	},
	{
		name: "history cut", kind: KindCutHist,
		run: func(t *testing.T, fail bool) (*fixture, uint64, map[string]string) {
			opts := slimOpts()
			inj := fault.New(1)
			fx := newFixture(t, opts)
			fx.tree.store.Pool.SetInjector(inj)
			churn(t, fx, 2, 0, 12)
			fx.tree.DrainCompletions()
			if _, err := fx.tree.gcChainOf(t, 0); err != nil {
				t.Fatal(err)
			}
			want := fx.reads(t, 2, nil)
			if fail {
				inj.Arm(storage.FPConsolidate, fault.Spec{Kind: fault.Transient})
			}
			freed, err := fx.tree.reclaimChain(fx.tree.headOf(t, 0))
			if fail != (err != nil) || (!fail && freed == 0) {
				t.Fatalf("reclaim freed %d pages, err=%v", freed, err)
			}
			return fx, 2, want
		},
	},
}

// postingCase makes fixed puts — fresh keys and rewrites mixed, so an index
// node that splits holds history terms to clip — up to the one whose
// posting first moves the counter moved finds: a dry run finds it. With
// fail set, that posting fails after the change, at pitree.FPPost.
// atTrigger runs just before that put. The reads are taken after it: the
// put itself is committed before its posting runs.
func postingCase(t *testing.T, fail bool, moved func(*Stats) int64, atTrigger func(*fixture)) (*fixture, uint64, map[string]string) {
	t.Helper()
	put := func(fx *fixture, i uint64) {
		t.Helper()
		if err := fx.tree.Put(nil, keys.Uint64(i*7919%61), []byte(sval(i, 0))); err != nil {
			t.Fatal(err)
		}
		fx.tree.DrainCompletions()
	}
	dry, trigger := newFixture(t, slimOpts()), uint64(0)
	for ; moved(&dry.tree.Stats) == 0; trigger++ {
		put(dry, trigger)
	}
	trigger--
	inj := fault.New(1)
	fx := newFixture(t, slimOpts())
	fx.tree.store.Pool.SetInjector(inj)
	for i := uint64(0); i < trigger; i++ {
		put(fx, i)
	}
	if fail {
		inj.Arm(pitree.FPPost, fault.Spec{Kind: fault.Transient})
	}
	atTrigger(fx)
	put(fx, trigger)
	if fail && fx.tree.Stats.PostsFailed.Load() != 1 {
		t.Fatalf("%d postings failed, want the one that made the change", fx.tree.Stats.PostsFailed.Load())
	}
	if moved(&fx.tree.Stats) != 1 {
		t.Fatalf("the change was made %d times, want once", moved(&fx.tree.Stats))
	}
	return fx, 61, fx.reads(t, 61, nil)
}

// TestGrowLogIdentity: the growth of the root in a posting that then fails
// logs the parent commit's bytes for that root — its growth record
// (oracleEncRootGrow) and the restore its undo made (oracleRestore) — and
// leaves the root as it was.
func TestGrowLogIdentity(t *testing.T) {
	var pre *Node
	var from wal.LSN
	fx, _, _ := postingCase(t, true, func(s *Stats) int64 { return s.RootGrowths.Load() }, func(fx *fixture) {
		pre, from = fx.rootNode(t), fx.e.Log.EndLSN()
	})
	pitreetest.GrowIdentity(t, fx.e.Log, from, KindFormat, KindRootGrow, KindRestoreImage,
		func(pidA, pidB storage.PageID, _, imageB []byte) []byte {
			b, err := decNodeImage(imageB)
			if err != nil {
				t.Fatal(err)
			}
			return oracleEncRootGrow(Entry{Child: pidA}, Entry{Key: b.Rect.KeyLow, Child: pidB}, pre)
		}, oracleRestore)
	if got := encNodeImage(fx.rootNode(t)); !bytes.Equal(got, encNodeImage(pre)) {
		t.Fatalf("root after the rollback is\n%x, want\n%x", got, encNodeImage(pre))
	}
}

// TestSplitLogIdentity: a split rolled back at run time logs the parent
// commit's bytes — the sibling's format, the split record and the unsplit
// that undid it (oracleTimeSplit, oracleKeySplit, oracleIndexSplit,
// oracleUnsplit), or at the root both halves' formats, the growth and its
// restore (oracleRootSplit) — for a time split and a key split failed by
// hand, an index key split that clips terms and a root split, both in a
// posting that fails at pitree.FPPost.
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
	identity := func(t *testing.T, fx *fixture, kind wal.Kind, oracle func(pre *Node, sib storage.PageID) ([]byte, []byte)) {
		t.Helper()
		pitreetest.SplitIdentity(t, fx.e.Log, from, KindFormat, KindUnsplit, []wal.Kind{kind},
			func(page, sib storage.PageID) ([]byte, []byte) { return oracle(pre(t, page), sib) }, oracleUnsplit(kind))
	}
	t.Run("time split", func(t *testing.T) {
		fx := newFixture(t, slimOpts())
		for round := 0; round < 2; round++ {
			for k := uint64(0); k < 2; k++ {
				if err := fx.tree.Put(nil, keys.Uint64(k), []byte(sval(k, round))); err != nil {
					t.Fatal(err)
				}
			}
		}
		take(fx)
		ts := fx.tree.Now() + 1
		fx.failedSplit(t, 0, true)
		identity(t, fx, KindTimeSplit, func(pre *Node, sib storage.PageID) ([]byte, []byte) { return oracleTimeSplit(pre, ts, sib) })
	})
	t.Run("key split", func(t *testing.T) {
		fx := newFixture(t, slimOpts())
		for k := uint64(0); k < 4; k++ {
			if err := fx.tree.Put(nil, keys.Uint64(k), []byte(sval(k, 0))); err != nil {
				t.Fatal(err)
			}
		}
		take(fx)
		fx.failedSplit(t, 0, false)
		identity(t, fx, KindKeySplit, oracleKeySplit)
	})
	t.Run("index key split", func(t *testing.T) {
		fx, _, _ := postingCase(t, true, func(s *Stats) int64 { return s.IndexSplits.Load() }, take)
		if fx.tree.Stats.ClippedTerms.Load() == 0 {
			t.Fatal("the index split clipped no term")
		}
		identity(t, fx, KindIndexKeySplit, oracleIndexSplit)
	})
	t.Run("root split", func(t *testing.T) {
		fx, _, _ := postingCase(t, true, func(s *Stats) int64 { return s.RootGrowths.Load() }, take)
		root := pre(t, fx.tree.root)
		pitreetest.GrowIdentity(t, fx.e.Log, from, KindFormat, KindRootGrow, KindRestoreImage,
			func(pidA, pidB storage.PageID, imageA, imageB []byte) []byte {
				a, b, grow := oracleRootSplit(root, pidA, pidB)
				if !bytes.Equal(imageA, a) || !bytes.Equal(imageB, b) {
					t.Fatalf("halves format\n%x and\n%x, want\n%x and\n%x", imageA, imageB, a, b)
				}
				return grow
			}, oracleRestore)
	})
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

// headOf returns the current data node of key.
func (tr *Tree) headOf(t *testing.T, key uint64) storage.PageID {
	t.Helper()
	o := tr.kern.NewOp(nil)
	defer o.Done()
	leaf, err := tr.descend(o, keys.Uint64(key), NoEnd-1, 0, latch.S, false)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Release(&leaf)
	return leaf.Pid()
}

// gcChainOf retires what it can of key's history chain.
func (tr *Tree) gcChainOf(t *testing.T, key uint64) (int, error) {
	return tr.gcChain(tr.headOf(t, key))
}

// TestSlimRecordRolledBack: a structure change whose record is in the log
// and whose action's commit record is not — because the action failed and
// was rolled back at run time, or because a crash cut the log there — leaves
// a well-formed tree that answers every read as before.
func TestSlimRecordRolledBack(t *testing.T) {
	for _, tc := range slimCases {
		t.Run(tc.name+"/abort", func(t *testing.T) {
			fx, n, want := tc.run(t, true)
			fx.mustVerify(t)
			sameReads(t, "after the runtime abort", fx.reads(t, n, nil), want)
		})
		t.Run(tc.name+"/restart", func(t *testing.T) {
			fx, n, want := tc.run(t, false)
			cut := pitreetest.CutBeforeCommit(t, fx.e.Log, tc.kind)
			img := fx.e.Crash(&cut)
			fx2 := fx.restartFrom(t, img)
			fx2.mustVerify(t)
			sameReads(t, "after restart", fx2.reads(t, n, nil), want)
		})
	}
}

// TestRetireRolledBackStaysRetired: KindRetireNode is redo-only. An action
// rolled back behind its retire record — at run time, or by restart — puts
// the victim's index terms back and leaves the node retired: the tree is
// well-formed, every read at or above the horizon (a snapshot's too) answers
// as before, and the next GC pass has nothing to do.
func TestRetireRolledBackStaysRetired(t *testing.T) {
	// setUp builds two history chains with a snapshot in their middle, and
	// takes the reads at and above the horizon — the snapshot's pin, or, if
	// it is not kept, the clock.
	setUp := func(t *testing.T, keepSnap bool) (*fixture, *txn.Snapshot, []uint64, map[string]string) {
		fx := newFixture(t, slimOpts())
		churn(t, fx, 2, 0, 12)
		fx.tree.DrainCompletions()
		if fx.tree.Stats.TimeSplits.Load() < 2 {
			t.Fatalf("%d time splits: no history chain to collect", fx.tree.Stats.TimeSplits.Load())
		}
		snap := fx.e.TM.BeginSnapshot(nil)
		churn(t, fx, 2, 12, 14)
		fx.tree.DrainCompletions()
		times := []uint64{fx.e.TM.VisibilityHorizon(), snap.TS(), fx.tree.Now() - 1}
		if !keepSnap {
			snap.Release()
			times = []uint64{fx.e.TM.VisibilityHorizon()}
		}
		return fx, snap, times, fx.reads(t, 2, times)
	}
	snapReads := func(t *testing.T, fx *fixture, snap *txn.Snapshot) string {
		var out string
		for k := uint64(0); k < 2; k++ {
			v, ok, err := fx.tree.SnapshotGet(snap, keys.Uint64(k), nil)
			if err != nil {
				t.Fatal(err)
			}
			out += fmt.Sprintf("%s/%v ", v, ok)
		}
		return out
	}
	settled := func(t *testing.T, fx *fixture, times []uint64, want map[string]string) {
		t.Helper()
		fx.mustVerify(t)
		sameReads(t, "after the rollback", fx.reads(t, 2, times), want)
		if _, err := fx.tree.RunGC(); err != nil {
			t.Fatal(err)
		}
		if n, err := fx.tree.RunGC(); n != 0 || err != nil {
			t.Fatalf("a second GC pass retired %d nodes, err=%v", n, err)
		}
		fx.mustVerify(t)
		sameReads(t, "after the next GC passes", fx.reads(t, 2, times), want)
	}

	t.Run("abort", func(t *testing.T) {
		fx, snap, times, want := setUp(t, true)
		defer snap.Release()
		wantSnap := snapReads(t, fx, snap)
		// The oldest node of key 0's chain, retired by an action that then
		// fails.
		tr := fx.tree
		var v gcVictim
		for pid := tr.headOf(t, 0); pid != storage.NilPage; {
			f, err := tr.store.Pool.Fetch(pid)
			if err != nil {
				t.Fatal(err)
			}
			n := f.Data.(*Node)
			v = gcVictim{pid: pid, rect: cloneRect(n.Rect), entries: n.Len()}
			pid = n.HistSib
			tr.store.Pool.Unpin(f)
		}
		if v.rect.TimeHigh > times[0] || v.entries == 0 {
			t.Fatalf("chain tail %v with %d versions is not below the horizon %d", v.rect, v.entries, times[0])
		}
		terms := tr.Stats.GCRemovedTerms.Load()
		o := tr.kern.NewOp(nil)
		first, err := tr.descend(o, v.rect.KeyLow, NoEnd-1, 1, latch.U, false)
		if err != nil {
			t.Fatal(err)
		}
		err = o.Atomic(func(aa *txn.Txn) error {
			if err := tr.retireIn(o, aa, &first, v); err != nil {
				return err
			}
			return errFailedByHand
		})
		o.Done()
		if err != errFailedByHand {
			t.Fatal(err)
		}
		if tr.Stats.GCRemovedTerms.Load() == terms {
			t.Fatal("the failed action removed no index term: nothing was rolled back")
		}
		f, err := tr.store.Pool.Fetch(v.pid)
		if err != nil {
			t.Fatal(err)
		}
		if n := f.Data.(*Node); !n.Retired || n.Len() != 0 {
			t.Fatalf("victim after the rollback: retired=%v with %d versions; the retire is not undone", n.Retired, n.Len())
		}
		tr.store.Pool.Unpin(f)
		settled(t, fx, times, want)
		if got := snapReads(t, fx, snap); got != wantSnap {
			t.Fatalf("snapshot reads %q, want %q", got, wantSnap)
		}
	})

	t.Run("restart", func(t *testing.T) {
		fx, _, times, want := setUp(t, false) // a snapshot would die with the crash
		if n, err := fx.tree.RunGC(); n == 0 || err != nil {
			t.Fatalf("GC retired %d nodes, err=%v", n, err)
		}
		cut := pitreetest.CutBeforeCommit(t, fx.e.Log, KindRetireNode)
		fx2 := fx.restartFrom(t, fx.e.Crash(&cut))
		settled(t, fx2, times, want)
	})
}

// TestStructureRecordsStaySmall: with 64-entry nodes of 100-byte values no
// structure-change record but a node image — a format, the root's
// pre-image — reaches 512 bytes. A node pre-image would be some 10 KiB.
func TestStructureRecordsStaySmall(t *testing.T) {
	opts := smallOpts()
	opts.DataCapacity, opts.IndexCapacity, opts.GC = 64, 64, true
	fx := newFixture(t, opts)
	value := bytes.Repeat([]byte{'v'}, 100)
	// Fresh keys and rewrites mixed: key and time splits both, under a
	// snapshot that keeps every version visible. Released, it leaves the
	// history to GC, and further rewrites fill nodes that then prune.
	snap := fx.e.BeginSnapshot()
	for i := uint64(0); i < 64*200; i++ {
		if i == 64*150 {
			fx.tree.DrainCompletions()
			snap.Release()
			if n, err := fx.tree.RunGC(); n == 0 || err != nil {
				t.Fatalf("GC retired %d nodes, err=%v", n, err)
			}
		}
		if err := fx.tree.Put(nil, keys.Uint64(i*7919%3001), value); err != nil {
			t.Fatal(err)
		}
	}
	fx.mustVerify(t)
	images := map[wal.Kind]bool{KindFormat: true, KindRootGrow: true}
	seen := map[wal.Kind]int{}
	fx.e.Log.FullImage().Scan(wal.NilLSN, func(r wal.Record) bool {
		seen[r.Kind]++
		if !images[r.Kind] && r.Size() >= 512 {
			t.Errorf("%s record of kind %d at LSN %d is %d bytes", r.Type, r.Kind, r.LSN, r.Size())
		}
		return true
	})
	for _, k := range []wal.Kind{KindTimeSplit, KindKeySplit, KindIndexKeySplit, KindRetireNode, KindPostTerm, KindRemoveTerm, KindPrune} {
		if seen[k] == 0 {
			t.Errorf("the workload logged no record of kind %d", k)
		}
	}
}

// FuzzSlimPayloads: the decoders of the slimmed payloads, and the node
// decoder under them, fail on arbitrary bytes; they do not panic or size an
// allocation by a count they have not checked against the input. A put that
// decodes is exactly what appendPut writes: a literal re-encodes to the same
// bytes, and a delta, redone over a predecessor it applies to, makes a
// value of its length that, put over that predecessor, logs the same bytes.
func FuzzSlimPayloads(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	n, in := randomDataNode(rng), randomIndexNode(rng, 1)
	const recTxn = 7
	pred := Entry{Key: keys.Uint64(9), Start: 40, Value: bytes.Repeat([]byte("0123456789"), 10)}
	for _, e := range []Entry{
		{Key: keys.Uint64(9), Start: 50, Value: append(bytes.Clone(pred.Value[:60]), 'x'), Txn: recTxn},
		{Key: keys.Uint64(9), Start: 300, Value: []byte("short"), Txn: 12},
		{Key: keys.Uint64(9), Start: 1 << 40, Deleted: true},
	} {
		f.Add(appendPut(nil, e, recTxn, &pred))
		f.Add(appendPut(nil, e, recTxn, nil))
	}
	f.Add(encTimeSplit(9, 4, n))
	f.Add(encKeySplit(keys.Uint64(300), 4, in, []storage.PageID{1001, 1002}))
	f.Add(encRetire())
	f.Add(encUnsplit(n, n.recs.Slice(0, 2), nil))
	f.Add(encUnsplit(in, in.recs.Slice(0, 1), []storage.PageID{1001}))
	f.Add(encCutHist(n))
	f.Add(encPrune(9))
	// Field prefixes: a nil key beside an empty value, a prefix cut short,
	// one past 64 bits, and a length past the input.
	f.Add(appendPut(nil, Entry{Start: 3, Value: []byte{}}, recTxn, nil))
	f.Add([]byte{0x89, 0x80})
	f.Add(append(bytes.Repeat([]byte{0xff}, 10), 1, 9))
	f.Add(append([]byte{0xff, 0xff, 0x7f}, appendKeyTerm(nil, keys.Uint64(9), 4)[1:]...))
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _, _, _ = decTimeSplit(b)
		if _, _, _, clipped, err := decKeySplit(b); err == nil && len(clipped) > len(b) {
			t.Fatalf("%d pages out of %d bytes", len(clipped), len(b))
		}
		_, _ = decRetire(b)
		if h, err := decPrune(b); err == nil {
			applyPrune(randomDataNode(rand.New(rand.NewSource(5))), h)
		}
		if img, unclip, err := decUnsplit(b); err == nil {
			if img.Len() > len(b) || len(unclip) > len(b) {
				t.Fatalf("%d entries and %d pages out of %d bytes", img.Len(), len(unclip), len(b))
			}
			_ = applyUnsplit(randomDataNode(rand.New(rand.NewSource(4))), img, unclip)
		}
		_, _ = decodeNode(enc.NewReader(b))
		if p, err := decPut(b, recTxn); err == nil {
			if p.back == 0 {
				if again := appendPut(nil, p.Entry, recTxn, nil); !bytes.Equal(again, b) {
					t.Fatalf("put %x re-encodes as %x", b, again)
				}
				return
			}
			// A predecessor the delta applies to: any bytes below its
			// target length, and above it the old bytes a shrinking delta
			// carries, which its inverse makes of zeros.
			v, err := p.delta.Inverse().Apply(nil, make([]byte, p.delta.To))
			if err != nil {
				t.Fatal(err)
			}
			for i := range v[:min(p.delta.From, p.delta.To)] {
				v[i] = byte(i*31 + 7)
			}
			pred := Entry{Key: p.Key, Start: p.Start - p.back, Value: v}
			held := &Node{}
			held.setEntries(pred)
			e, err := p.version(held, nil)
			if err != nil || len(e.Value) != p.delta.To {
				t.Fatalf("put %x over a predecessor of %d bytes made %d (%v), want %d", b, p.delta.From, len(e.Value), err, p.delta.To)
			}
			if again := appendPut(nil, e, recTxn, &pred); !bytes.Equal(again, b) {
				t.Fatalf("put %x over %x re-encodes as %x", b, v, again)
			}
		}
	})
}
