package spatial

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/enc"
	"repro/internal/fault"
	"repro/internal/latch"
	"repro/internal/pitree"
	"repro/internal/pitree/pitreetest"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// The structure-change records carry no node pre-image: a split says where
// it cut and what became of each index term, and finds what left in the
// sibling's format record; its undo is an absorb of that sibling, and an
// absorb's undo is the split again. These tests hold that the undo so built
// is exact, that it works from a live log and from a restart image, and that
// the records stay small.

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

// randomNode builds a node over a random direct region with up to three
// sibling terms: a data node of sorted points, or an index node of terms in
// no order, some reaching across the region and some clipped already.
func randomNode(rng *rand.Rand, level int) *Node {
	x0, y0 := uint64(rng.Intn(1000)), uint64(rng.Intn(1000))
	n := &Node{Level: level, Direct: Rect{X0: x0, Y0: y0, X1: x0 + 100 + uint64(rng.Intn(900)), Y1: y0 + 100 + uint64(rng.Intn(900))}}
	for i, cnt := 0, rng.Intn(4); i < cnt; i++ {
		n.Sibs = append(n.Sibs, SibTerm{Rect: Rect{X0: uint64(rng.Intn(50)), Y0: uint64(rng.Intn(50)), X1: 60, Y1: 60}, Pid: storage.PageID(500 + i)})
	}
	d := n.Direct
	within := func(lo, hi uint64) uint64 { return lo + uint64(rng.Int63n(int64(hi-lo))) }
	for i, cnt := 0, 4+rng.Intn(20); i < cnt; i++ {
		if level == 0 {
			e := Entry{P: Point{X: within(d.X0, d.X1), Y: within(d.Y0, d.Y1)}, Value: make([]byte, 1+rng.Intn(30))}
			rng.Read(e.Value)
			n.insertPoint(e)
			continue
		}
		a, b := within(d.X0, d.X1), within(d.Y0, d.Y1)
		e := Entry{Rect: Rect{X0: a, Y0: b, X1: a + 1 + uint64(rng.Intn(300)), Y1: b + 1 + uint64(rng.Intn(300))}, Child: storage.PageID(1000 + i), Clipped: rng.Intn(4) == 0}
		appendEntries(n, e)
	}
	return n
}

func TestSlimUndoRestoresNode(t *testing.T) {
	reg := storage.NewRegistry()
	Register(reg)
	rng := rand.New(rand.NewSource(23))
	axes, clippedNow := map[bool]int{}, 0
	for i := 0; i < 400; i++ {
		n := randomNode(rng, rng.Intn(2))
		want := encNodeImage(n)

		// Split along the plane the tree would choose, or the other axis'.
		alongX, coord, ok := choosePlane(n)
		if !ok {
			t.Fatalf("node %d cannot be cut", i)
		}
		if rng.Intn(2) == 0 {
			alongX = !alongX
			coord = n.Direct.Y0 + (n.Direct.Y1-n.Direct.Y0)/2
			if alongX {
				coord = n.Direct.X0 + (n.Direct.X1-n.Direct.X0)/2
			}
		}
		kept, off := n.Direct.Split(alongX, coord)
		entries, clipped := splitPick(n, kept, off, true)
		axes[alongX]++
		clippedNow += clipped
		sib := &Node{Level: n.Level, Direct: off, recs: entries}
		got := undoRoundTrip(t, reg, n, 901, sib, KindSplitOff, encSplitOff(alongX, coord, 901, splitFates(n, alongX, coord)))
		if !bytes.Equal(got, want) {
			t.Fatalf("node %d (level %d): undo of the split along x=%v at %d gives\n%x, want\n%x", i, n.Level, alongX, coord, got, want)
		}

		// Root growth at that plane, logged as the parent commit logged it.
		grow := oracleEncRootGrow(Entry{Rect: kept, Child: 903}, Entry{Rect: off, Child: 904}, n)
		if got := undoRoundTrip(t, reg, n, 0, nil, KindRootGrow, grow); !bytes.Equal(got, want) {
			t.Fatalf("node %d: undo of the growth gives\n%x, want\n%x", i, got, want)
		}

		// Absorb of the newest sibling, where the node has one that is a
		// half of its region (the absorber's only kind of victim).
		if n.Level != 0 {
			continue
		}
		d := n.Direct
		half := SibTerm{Rect: Rect{X0: d.X1, Y0: d.Y0, X1: d.X1 + 70, Y1: d.Y1}, Pid: 902}
		ax, c := true, d.X1
		if rng.Intn(2) == 0 {
			half.Rect, ax, c = Rect{X0: d.X0, Y0: d.Y1, X1: d.X1, Y1: d.Y1 + 70}, false, d.Y1
		}
		n.Sibs = append(n.Sibs, half)
		want = encNodeImage(n)
		if got := undoRoundTrip(t, reg, n, 0, nil, KindAbsorbSib, encAbsorbSib(ax, c, 902, returning{})); !bytes.Equal(got, want) {
			t.Fatalf("node %d: undo of the absorb gives\n%x, want\n%x", i, got, want)
		}
	}
	if axes[true] == 0 || axes[false] == 0 || clippedNow == 0 {
		t.Fatalf("splits along x: %d, along y: %d, terms clipped: %d", axes[true], axes[false], clippedNow)
	}
}

// slimOpts are small nodes, synchronous completion.
func slimOpts() Options {
	o := smallOpts()
	o.DataCapacity, o.IndexCapacity = 4, 4
	return o
}

// contents reads every point of the tree.
func (fx *fixture) contents(t *testing.T) map[Point]string {
	t.Helper()
	got := map[Point]string{}
	if err := fx.tree.RegionQuery(FullSpace(), func(p Point, v []byte) bool {
		got[p] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func sameContents(t *testing.T, label string, got, want map[Point]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	for p, v := range want {
		if got[p] != v {
			t.Fatalf("%s: point %v = %q, want %q", label, p, got[p], v)
		}
	}
}

var errFailedByHand = errors.New("the test fails this action")

// slimCase drives one structure change of a kind. run builds a tree and
// performs the change as its last logged action — with fail set: as an
// action that fails after logging it, and is rolled back at run time — and
// returns the tree with the contents from just before the action.
type slimCase struct {
	name string
	kind wal.Kind
	run  func(t *testing.T, fail bool) (*fixture, map[Point]string)
}

// pointNo is the i-th point of a fixed scatter.
func pointNo(i int) Point {
	return Point{X: uint64(i) * 2654435761 % MaxCoord, Y: uint64(i) * 40503 * 65537 % MaxCoord}
}

func insertNo(t *testing.T, fx *fixture, i int) {
	t.Helper()
	if err := fx.tree.Insert(nil, pointNo(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
		t.Fatal(err)
	}
	fx.tree.DrainCompletions()
}

var slimCases = []slimCase{
	{
		// A data split is its own action and nothing in it can fail behind
		// the split record: the run-time abort is of the same action made
		// to fail by hand.
		name: "data split", kind: KindSplitOff,
		run: func(t *testing.T, fail bool) (*fixture, map[Point]string) {
			fx := newFixture(t, slimOpts())
			for i := 0; i < 4; i++ {
				insertNo(t, fx, i)
			}
			want := fx.contents(t)
			if !fail {
				insertNo(t, fx, 4) // splits the full root child first
				if fx.tree.Stats.DataSplits.Load() != 1 {
					t.Fatalf("%d data splits, want one", fx.tree.Stats.DataSplits.Load())
				}
				return fx, want
			}
			tr := fx.tree
			o := tr.kern.NewOp(nil)
			defer o.Done()
			leaf, err := tr.descend(o, pointNo(0), 0, latch.U, false)
			if err != nil {
				t.Fatal(err)
			}
			alongX, coord, ok := choosePlane(leaf.N)
			if !ok {
				t.Fatal("the full node cannot be cut")
			}
			o.Promote(&leaf)
			err = o.Atomic(func(aa *txn.Txn) error {
				o.Hold(&leaf)
				if err := tr.kern.Split(o, aa, &leaf, &planeCut{t: tr, alongX: alongX, coord: coord}); err != nil {
					return err
				}
				return errFailedByHand
			})
			if err != errFailedByHand {
				t.Fatal(err)
			}
			return fx, want
		},
	},
	{
		name: "index split", kind: KindSplitOff,
		run: func(t *testing.T, fail bool) (*fixture, map[Point]string) {
			return postingCase(t, fail, func(s *Stats) int64 { return s.IndexSplits.Load() }, func(*fixture) {})
		},
	},
	{
		name: "root growth", kind: KindRootGrow,
		run: func(t *testing.T, fail bool) (*fixture, map[Point]string) {
			return postingCase(t, fail, func(s *Stats) int64 { return s.RootGrowths.Load() }, func(*fixture) {})
		},
	},
	{
		name: "absorb", kind: KindAbsorbSib,
		run: func(t *testing.T, fail bool) (*fixture, map[Point]string) {
			opts := slimOpts()
			opts.Reclaim = true
			inj := fault.New(1)
			fx := newFixture(t, opts)
			fx.tree.store.Pool.SetInjector(inj)
			for i := 0; i < 40; i++ {
				insertNo(t, fx, i)
			}
			for i := 4; i < 40; i++ {
				if err := fx.tree.Delete(nil, pointNo(i)); err != nil {
					t.Fatal(err)
				}
			}
			fx.tree.DrainCompletions()
			want := fx.contents(t)
			if fail {
				inj.Arm(storage.FPConsolidate, fault.Spec{Kind: fault.Transient})
			}
			freed, err := fx.tree.RunConsolidation()
			if fail != (err != nil) || (!fail && freed == 0) {
				t.Fatalf("consolidation freed %d pages, err=%v", freed, err)
			}
			return fx, want
		},
	},
}

// postingCase makes fixed inserts up to the one whose posting first moves
// the counter moved finds: a dry run finds it. With fail set, that posting
// fails after the change, at pitree.FPPost. atTrigger runs just before
// that insert. The contents are taken after it: the insert itself is
// committed before its posting runs.
func postingCase(t *testing.T, fail bool, moved func(*Stats) int64, atTrigger func(*fixture)) (*fixture, map[Point]string) {
	t.Helper()
	dry, trigger := newFixture(t, slimOpts()), 0
	for ; moved(&dry.tree.Stats) == 0; trigger++ {
		insertNo(t, dry, trigger)
	}
	trigger--
	inj := fault.New(1)
	fx := newFixture(t, slimOpts())
	fx.tree.store.Pool.SetInjector(inj)
	for i := 0; i < trigger; i++ {
		insertNo(t, fx, i)
	}
	if fail {
		inj.Arm(pitree.FPPost, fault.Spec{Kind: fault.Transient})
	}
	atTrigger(fx)
	insertNo(t, fx, trigger)
	if fail && fx.tree.Stats.PostsFailed.Load() != 1 {
		t.Fatalf("%d postings failed, want the one that made the change", fx.tree.Stats.PostsFailed.Load())
	}
	if moved(&fx.tree.Stats) != 1 {
		t.Fatalf("the change was made %d times, want once", moved(&fx.tree.Stats))
	}
	return fx, fx.contents(t)
}

// TestGrowLogIdentity: the growth of the root in a posting that then fails
// logs the parent commit's bytes for that root — its growth record
// (oracleEncRootGrow) and the restore its undo made (oracleRestore) — and
// leaves the root as it was.
func TestGrowLogIdentity(t *testing.T) {
	var pre *Node
	var from wal.LSN
	fx, _ := postingCase(t, true, func(s *Stats) int64 { return s.RootGrowths.Load() }, func(fx *fixture) {
		pre, from = fx.rootNode(t), fx.e.Log.EndLSN()
	})
	pitreetest.GrowIdentity(t, fx.e.Log, from, KindFormat, KindRootGrow, KindRestore,
		func(pidA, pidB storage.PageID, imageA, imageB []byte) []byte {
			a, err := decNodeImage(imageA)
			if err != nil {
				t.Fatal(err)
			}
			b, err := decNodeImage(imageB)
			if err != nil {
				t.Fatal(err)
			}
			return oracleEncRootGrow(Entry{Rect: a.Direct, Child: pidA}, Entry{Rect: b.Direct, Child: pidB}, pre)
		}, oracleRestore)
	if got := encNodeImage(fx.rootNode(t)); !bytes.Equal(got, encNodeImage(pre)) {
		t.Fatalf("root after the rollback is\n%x, want\n%x", got, encNodeImage(pre))
	}
}

// TestSplitLogIdentity: a split rolled back at run time logs the parent
// commit's bytes — the sibling's format, the split record with its terms'
// fates and the absorb that undid it (oracleSplitOff, oracleUnsplit), or at
// the root both halves' formats, the growth and its restore
// (oracleRootSplit) — for a data split failed at pitree.FPSplit, and an
// index split that clips terms and a root split, both in a posting that
// fails at pitree.FPPost.
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
		pitreetest.SplitIdentity(t, fx.e.Log, from, KindFormat, KindAbsorbSib, []wal.Kind{KindSplitOff},
			func(page, sib storage.PageID) ([]byte, []byte) { return oracleSplitOff(pre(t, page), sib) }, oracleUnsplit)
	}
	t.Run("data split", func(t *testing.T) {
		fx := newFixture(t, slimOpts())
		for i := 0; i < 4; i++ {
			insertNo(t, fx, i)
		}
		inj := fault.New(1)
		fx.tree.store.Pool.SetInjector(inj)
		inj.Arm(pitree.FPSplit, fault.Spec{Kind: fault.Transient})
		take(fx)
		if err := fx.tree.Insert(nil, pointNo(4), []byte("v4")); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("insert into the full node: %v", err)
		}
		identity(t, fx)
	})
	t.Run("index split", func(t *testing.T) {
		fx, _ := postingCase(t, true, func(s *Stats) int64 { return s.IndexSplits.Load() }, take)
		if fx.tree.Stats.ClippedTerms.Load() == 0 {
			t.Fatal("the index split clipped no term")
		}
		identity(t, fx)
	})
	t.Run("root split", func(t *testing.T) {
		fx, _ := postingCase(t, true, func(s *Stats) int64 { return s.RootGrowths.Load() }, take)
		root := pre(t, fx.tree.root)
		pitreetest.GrowIdentity(t, fx.e.Log, from, KindFormat, KindRootGrow, KindRestore,
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
			fx2 := fx.restartFrom(t, fx.e.Crash(&cut))
			fx2.mustVerify(t)
			sameContents(t, "after restart", fx2.contents(t), want)
		})
	}
}

// TestStructureRecordsStaySmall: with 64-entry nodes of 100-byte values no
// structure-change record but a node image — a format, the root's
// pre-image — reaches 512 bytes. A node pre-image would be some 10 KiB.
func TestStructureRecordsStaySmall(t *testing.T) {
	opts := smallOpts()
	opts.DataCapacity, opts.IndexCapacity = 64, 64
	fx := newFixture(t, opts)
	value := bytes.Repeat([]byte{'v'}, 100)
	for i := 0; i < 64*120; i++ {
		if err := fx.tree.Insert(nil, pointNo(i), value); err != nil {
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
	if seen[KindSplitOff] < 64 || seen[KindPostTerm] == 0 || fx.tree.Stats.IndexSplits.Load() == 0 {
		t.Errorf("%d splits (%d of index nodes), %d terms posted: the workload is too small", seen[KindSplitOff], fx.tree.Stats.IndexSplits.Load(), seen[KindPostTerm])
	}
}

// FuzzSlimPayloads: the decoders of the slimmed payloads, and the node
// decoder under them, fail on arbitrary bytes; they do not panic or size an
// allocation by a count they have not checked against the input.
func FuzzSlimPayloads(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	n, in := randomNode(rng, 0), randomNode(rng, 1)
	f.Add(encSplitOff(true, 500, 4, nil))
	f.Add(encSplitOff(false, 500, 4, splitFates(in, false, in.Direct.Y0+50)))
	f.Add(encAbsorbSib(true, 500, 4, returning{}))
	f.Add(encAbsorbSib(true, 500, 4, returning{entries: in.recs.Slice(0, 3), pos: []uint16{0, 2, 5}, unclip: []uint16{1}}))
	f.Add(encNodeImage(n))
	// Field prefixes: a nil value beside an empty one, a prefix cut short,
	// one past 64 bits, and a length past the input.
	f.Add(append(appendPoint(nil, Entry{P: Point{X: 1, Y: 2}}), appendPoint(nil, Entry{Value: []byte{}})...))
	f.Add([]byte{0x89, 0x80})
	f.Add(append(bytes.Repeat([]byte{0xff}, 10), 1, 9))
	f.Add(append(bytes.Repeat([]byte{7}, 16), 0xff, 0xff, 0x7f, 'v'))
	f.Fuzz(func(t *testing.T, b []byte) {
		if _, _, _, fates, err := decSplitOff(b); err == nil {
			_, _ = unsplitOff(fates, in)
		}
		for _, target := range []*Node{n.clone(), in.clone(), {}} {
			if ret, err := decAbsorbSib(b, target.Level); err == nil {
				if ret.entries.Len() > len(b) || len(ret.pos) > len(b) || len(ret.unclip) > len(b) {
					t.Fatalf("%d entries, %d positions, %d marks out of %d bytes", ret.entries.Len(), len(ret.pos), len(ret.unclip), len(b))
				}
				target.Sibs = append(target.Sibs, SibTerm{Rect: Rect{X1: 5, Y1: 5}, Pid: 9})
				_ = applyAbsorbSib(target, ret)
			}
		}
		_, _ = decodeNode(enc.NewReader(b))
	})
}
