package spatial

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/pitree/pitreetest"
	"repro/internal/storage"
)

const testStoreID = 11

type fixture struct {
	e    *engine.Engine
	b    *Binding
	tree *Tree
}

func smallOpts() Options {
	return Options{
		DataCapacity:   8,
		IndexCapacity:  8,
		SyncCompletion: true,
	}
}

func newFixture(t testing.TB, opts Options) *fixture {
	t.Helper()
	return newEngineFixture(t, engine.Options{}, opts)
}

// newEngineFixture is newFixture over an engine with eopts.
func newEngineFixture(t testing.TB, eopts engine.Options, opts Options) *fixture {
	t.Helper()
	e := engine.New(eopts)
	b := Register(e.Reg)
	st := e.AddStore(testStoreID, Codec{})
	tree, err := Create(st, e.TM, e.Locks, b, "points", opts)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	t.Cleanup(tree.Close)
	return &fixture{e: e, b: b, tree: tree}
}

func (fx *fixture) crashRestart(t testing.TB) *fixture {
	t.Helper()
	return fx.restartFrom(t, fx.e.Crash(nil))
}

// restartFrom restarts over a crash image of fx's engine.
func (fx *fixture) restartFrom(t testing.TB, img *engine.CrashImage) *fixture {
	t.Helper()
	fx.tree.Close()
	e2 := engine.Restarted(img, fx.e.Opts)
	b2 := Register(e2.Reg)
	st2 := e2.AddStore(testStoreID, Codec{})
	p, err := e2.AnalyzeAndRedo()
	if err != nil {
		t.Fatalf("analyze+redo: %v", err)
	}
	tree2, err := Open(st2, e2.TM, e2.Locks, b2, "points", fx.tree.opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	pitreetest.FinishAudited(t, e2, func() error { return e2.FinishRecovery(p) })
	t.Cleanup(tree2.Close)
	return &fixture{e: e2, b: b2, tree: tree2}
}

func (fx *fixture) mustVerify(t testing.TB) Shape {
	t.Helper()
	fx.tree.DrainCompletions()
	shape, err := fx.tree.Verify()
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	return shape
}

func pt(x, y uint64) Point { return Point{X: x, Y: y} }

func randPoint(rng *rand.Rand) Point {
	return Point{X: rng.Uint64() % MaxCoord, Y: rng.Uint64() % MaxCoord}
}

func TestInsertSearchBasics(t *testing.T) {
	fx := newFixture(t, smallOpts())
	rng := rand.New(rand.NewSource(5))
	pts := make(map[Point]string)
	for i := 0; i < 300; i++ {
		p := randPoint(rng)
		if _, dup := pts[p]; dup {
			continue
		}
		v := fmt.Sprintf("v%d", i)
		if err := fx.tree.Insert(nil, p, []byte(v)); err != nil {
			t.Fatalf("insert %v: %v", p, err)
		}
		pts[p] = v
	}
	for p, want := range pts {
		v, ok, err := fx.tree.Search(nil, p)
		if err != nil || !ok || string(v) != want {
			t.Fatalf("search %v: %q %v %v", p, v, ok, err)
		}
	}
	if _, ok, _ := fx.tree.Search(nil, pt(1, 1)); ok {
		if _, present := pts[pt(1, 1)]; !present {
			t.Fatal("phantom point")
		}
	}
	shape := fx.mustVerify(t)
	if shape.Points != len(pts) {
		t.Fatalf("points = %d, want %d", shape.Points, len(pts))
	}
	if shape.DataNodes < 2 {
		t.Fatal("no splits happened")
	}
	if err := fx.tree.Insert(nil, firstKey(pts), []byte("dup")); err != ErrPointExists {
		t.Fatalf("duplicate insert: %v", err)
	}
}

func firstKey(m map[Point]string) Point {
	for p := range m {
		return p
	}
	return Point{}
}

func TestDelete(t *testing.T) {
	fx := newFixture(t, smallOpts())
	rng := rand.New(rand.NewSource(6))
	var pts []Point
	for i := 0; i < 200; i++ {
		p := randPoint(rng)
		if err := fx.tree.Insert(nil, p, []byte("x")); err == nil {
			pts = append(pts, p)
		}
	}
	for i, p := range pts {
		if i%2 == 0 {
			if err := fx.tree.Delete(nil, p); err != nil {
				t.Fatalf("delete %v: %v", p, err)
			}
		}
	}
	if err := fx.tree.Delete(nil, pts[0]); err != ErrPointNotFound {
		t.Fatalf("double delete: %v", err)
	}
	for i, p := range pts {
		_, ok, err := fx.tree.Search(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		if (i%2 == 0) == ok {
			t.Fatalf("point %d presence = %v", i, ok)
		}
	}
	fx.mustVerify(t)
}

func TestRegionQuery(t *testing.T) {
	fx := newFixture(t, smallOpts())
	// A grid of points at multiples of 2^24.
	const step = 1 << 24
	const side = 24
	for x := uint64(0); x < side; x++ {
		for y := uint64(0); y < side; y++ {
			if err := fx.tree.Insert(nil, pt(x*step, y*step), []byte{byte(x), byte(y)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	fx.mustVerify(t)
	q := Rect{X0: 3 * step, Y0: 5 * step, X1: 11 * step, Y1: 9 * step}
	got := make(map[Point]bool)
	err := fx.tree.RegionQuery(q, func(p Point, v []byte) bool {
		got[p] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for x := uint64(0); x < side; x++ {
		for y := uint64(0); y < side; y++ {
			p := pt(x*step, y*step)
			if q.Contains(p) {
				want++
				if !got[p] {
					t.Fatalf("region query missed %v", p)
				}
			} else if got[p] {
				t.Fatalf("region query returned %v outside %v", p, q)
			}
		}
	}
	if len(got) != want {
		t.Fatalf("region query: %d hits, want %d", len(got), want)
	}
}

func TestClippingProducesMultiParents(t *testing.T) {
	opts := smallOpts()
	opts.IndexCapacity = 4
	opts.Reclaim = true
	fx := newFixture(t, opts)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 800; i++ {
		p := randPoint(rng)
		if err := fx.tree.Insert(nil, p, []byte("v")); err != nil && err != ErrPointExists {
			t.Fatal(err)
		}
	}
	shape := fx.mustVerify(t)
	if shape.Height < 3 {
		t.Fatalf("height %d: want a multi-level index", shape.Height)
	}
	if fx.tree.Stats.ClippedTerms.Load() == 0 {
		t.Fatal("workload produced no clipping; the multi-attribute machinery is untested")
	}
	if shape.Clipped == 0 {
		t.Fatal("verifier saw no clipped terms")
	}
	// §3.3: a clipped (multi-parent) child must not be consolidated. Find
	// a data node behind a clipped term that the absorber would otherwise
	// take — its delegator's newest delegation, with none of its own —
	// and empty it.
	clipped := map[storage.PageID]bool{}
	newest := map[storage.PageID]bool{}
	points := map[storage.PageID][]Point{}
	err := fx.tree.kern.Walk(0, func(r nref) error {
		if !r.N.IsData() {
			for _, e := range entriesOf(r.N) {
				clipped[e.Child] = clipped[e.Child] || e.Clipped
			}
			return nil
		}
		if ns := len(r.N.Sibs); ns > 0 {
			newest[r.N.Sibs[ns-1].Pid] = true
		}
		if len(r.N.Sibs) == 0 {
			for i := 0; i < r.N.Len(); i++ {
				points[r.Pid()] = append(points[r.Pid()], r.N.pointAt(i))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	victim := storage.NilPage
	for pid := range points {
		if clipped[pid] && newest[pid] && (victim == storage.NilPage || pid < victim) {
			victim = pid
		}
	}
	if victim == storage.NilPage {
		t.Fatal("no clipped data node is its delegator's newest delegation")
	}
	for _, p := range points[victim] {
		if err := fx.tree.Delete(nil, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fx.tree.RunConsolidation(); err != nil {
		t.Fatal(err)
	}
	if fx.tree.Stats.AbsorbMultiParent.Load() == 0 {
		t.Fatal("the absorber never refused a clipped child")
	}
	if ok, err := fx.tree.store.IsAllocated(victim); err != nil || !ok {
		t.Fatalf("clipped child %d freed (allocated %v, err %v)", victim, ok, err)
	}
	fx.mustVerify(t)
}

func TestCrashRecoveryPoints(t *testing.T) {
	fx := newFixture(t, smallOpts())
	rng := rand.New(rand.NewSource(8))
	pts := make(map[Point]bool)
	for i := 0; i < 250; i++ {
		p := randPoint(rng)
		if err := fx.tree.Insert(nil, p, []byte("v")); err == nil {
			pts[p] = true
		}
	}
	fx.tree.DrainCompletions()
	fx.e.Log.ForceAll()
	fx2 := fx.crashRestart(t)
	shape := fx2.mustVerify(t)
	if shape.Points != len(pts) {
		t.Fatalf("points after restart = %d, want %d", shape.Points, len(pts))
	}
	for p := range pts {
		if _, ok, err := fx2.tree.Search(nil, p); err != nil || !ok {
			t.Fatalf("point %v lost: %v", p, err)
		}
	}
}

func TestAbortUndoesPoints(t *testing.T) {
	fx := newFixture(t, smallOpts())
	if err := fx.tree.Insert(nil, pt(10, 10), []byte("keep")); err != nil {
		t.Fatal(err)
	}
	tx := fx.e.TM.Begin()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		if err := fx.tree.Insert(tx, randPoint(rng), []byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}
	if err := fx.tree.Delete(tx, pt(10, 10)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	fx.tree.DrainCompletions()
	shape, err := fx.tree.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if shape.Points != 1 {
		t.Fatalf("points = %d, want only the survivor", shape.Points)
	}
	if v, ok, _ := fx.tree.Search(nil, pt(10, 10)); !ok || string(v) != "keep" {
		t.Fatalf("survivor: %q %v", v, ok)
	}
}

func TestConcurrentInserts(t *testing.T) {
	opts := smallOpts()
	opts.SyncCompletion = false
	fx := newFixture(t, opts)
	const workers = 6
	const perWorker = 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < perWorker; i++ {
				p := Point{X: rng.Uint64() % MaxCoord, Y: (uint64(w)<<28 + rng.Uint64()%(1<<28)) % MaxCoord}
				if err := fx.tree.Insert(nil, p, []byte{byte(w)}); err != nil && err != ErrPointExists {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	fx.mustVerify(t)
}
