package spatial

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSpatialOptimisticHitRatio checks that a warm read-only workload
// serves interior navigation almost entirely from validated snapshots.
func TestSpatialOptimisticHitRatio(t *testing.T) {
	opts := Options{DataCapacity: 16, IndexCapacity: 16}
	fx := newFixture(t, opts)
	rng := rand.New(rand.NewSource(42))
	var pts []Point
	for len(pts) < 1200 {
		p := randPoint(rng)
		if err := fx.tree.Insert(nil, p, []byte(fmt.Sprintf("v%d", len(pts)))); err != nil {
			if err == ErrPointExists {
				continue
			}
			t.Fatalf("insert: %v", err)
		}
		pts = append(pts, p)
	}
	fx.tree.DrainCompletions()
	fx.tree.Stats.OptimisticHits.Store(0)
	fx.tree.Stats.OptimisticRetries.Store(0)
	fx.tree.Stats.OptimisticFallbacks.Store(0)
	for _, p := range pts {
		if _, ok, err := fx.tree.Search(nil, p); err != nil || !ok {
			t.Fatalf("search %v: found=%v err=%v", p, ok, err)
		}
	}
	hits := fx.tree.Stats.OptimisticHits.Load()
	retries := fx.tree.Stats.OptimisticRetries.Load()
	if hits == 0 {
		t.Fatal("no optimistic hits on a read-only workload")
	}
	if ratio := float64(hits) / float64(hits+retries); ratio < 0.90 {
		t.Fatalf("optimistic hit ratio %.3f (hits=%d retries=%d), want >= 0.90", ratio, hits, retries)
	}
	if fb := fx.tree.Stats.OptimisticFallbacks.Load(); fb != 0 {
		t.Fatalf("%d pessimistic fallbacks on a read-only workload", fb)
	}
}

// TestSpatialOptimisticSMOStorm runs optimistic readers against
// continuous data and index splits (with clipping producing multi-parent
// nodes). Every stable point must stay reachable at every moment.
func TestSpatialOptimisticSMOStorm(t *testing.T) {
	opts := Options{DataCapacity: 8, IndexCapacity: 8}
	fx := newFixture(t, opts)

	// Stable points on a sparse grid; churn happens everywhere around
	// them.
	rng := rand.New(rand.NewSource(7))
	stable := make(map[Point]string)
	var stablePts []Point
	for len(stablePts) < 250 {
		p := randPoint(rng)
		if _, dup := stable[p]; dup {
			continue
		}
		v := fmt.Sprintf("s%d", len(stablePts))
		if err := fx.tree.Insert(nil, p, []byte(v)); err != nil {
			if err == ErrPointExists {
				continue
			}
			t.Fatalf("insert stable: %v", err)
		}
		stable[p] = v
		stablePts = append(stablePts, p)
	}

	const writers = 4
	const searchers = 4
	const opsPerWriter = 1500
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, writers+searchers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer stop.Store(true)
			rng := rand.New(rand.NewSource(int64(100 + w)))
			var mine []Point
			for i := 0; i < opsPerWriter; i++ {
				if len(mine) > 0 && rng.Intn(3) == 0 {
					j := rng.Intn(len(mine))
					if err := fx.tree.Delete(nil, mine[j]); err != nil && err != ErrPointNotFound {
						errs <- fmt.Errorf("writer %d delete: %v", w, err)
						return
					}
					mine = append(mine[:j], mine[j+1:]...)
					continue
				}
				p := randPoint(rng)
				if _, isStable := stable[p]; isStable {
					continue
				}
				err := fx.tree.Insert(nil, p, []byte("c"))
				if err == ErrPointExists {
					continue
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d insert: %v", w, err)
					return
				}
				mine = append(mine, p)
			}
		}(w)
	}
	for s := 0; s < searchers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for !stop.Load() {
				p := stablePts[rng.Intn(len(stablePts))]
				v, ok, err := fx.tree.Search(nil, p)
				if err != nil {
					errs <- fmt.Errorf("searcher %d: %v", s, err)
					return
				}
				if !ok {
					errs <- fmt.Errorf("ghost miss: stable point %v not found", p)
					return
				}
				if string(v) != stable[p] {
					errs <- fmt.Errorf("stable point %v: value %q, want %q", p, v, stable[p])
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if fx.tree.Stats.OptimisticHits.Load() == 0 {
		t.Fatal("storm exercised no optimistic visits")
	}
	fx.mustVerify(t)
	for p, want := range stable {
		if v, ok, err := fx.tree.Search(nil, p); err != nil || !ok || string(v) != want {
			t.Fatalf("post-storm search %v: %q %v %v", p, v, ok, err)
		}
	}
}
