package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/keys"
)

// optimisticOpts is a production-shaped configuration: background
// completion, no latch-order tracking overhead, optimistic descent on.
func optimisticOpts() Options {
	return Options{
		LeafCapacity:  16,
		IndexCapacity: 16,
		Consolidation: true,
	}
}

// TestOptimisticHitRatio checks the acceptance bar for the optimistic
// descent on a read-only workload: at least 90% of interior-node visits
// must be served from validated snapshots, with no descent falling back
// to the latched path once the snapshots are warm.
func TestOptimisticHitRatio(t *testing.T) {
	fx := newFixture(t, engine.Options{}, optimisticOpts())
	const n = 2000
	for i := 0; i < n; i++ {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	fx.tree.DrainCompletions()
	fx.tree.Stats.OptimisticHits.Store(0)
	fx.tree.Stats.OptimisticRetries.Store(0)
	fx.tree.Stats.OptimisticFallbacks.Store(0)

	for i := 0; i < n; i++ {
		if _, ok, err := fx.tree.Search(nil, keys.Uint64(uint64(i))); err != nil || !ok {
			t.Fatalf("search %d: found=%v err=%v", i, ok, err)
		}
	}
	hits := fx.tree.Stats.OptimisticHits.Load()
	retries := fx.tree.Stats.OptimisticRetries.Load()
	fallbacks := fx.tree.Stats.OptimisticFallbacks.Load()
	if hits == 0 {
		t.Fatal("no optimistic hits on a read-only workload")
	}
	if ratio := float64(hits) / float64(hits+retries); ratio < 0.90 {
		t.Fatalf("optimistic hit ratio %.3f (hits=%d retries=%d), want >= 0.90", ratio, hits, retries)
	}
	if fallbacks != 0 {
		t.Fatalf("%d pessimistic fallbacks on a read-only workload", fallbacks)
	}
}

// TestOptimisticSMOStorm is the key-space responsibility property test:
// optimistic searchers run against continuous splits (inserts) and
// consolidations (deletes). A key that is always present must be found
// by every search — an unlatched traversal that lands on a stale or
// de-allocated node and misses would be a ghost miss.
func TestOptimisticSMOStorm(t *testing.T) {
	fx := newFixture(t, engine.Options{}, optimisticOpts())

	// Stable keys: inserted once, never touched again. Interleaved with
	// the churn ranges so SMOs happen all around them.
	const stable = 400
	for i := 0; i < stable; i++ {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i*1000)), val(i)); err != nil {
			t.Fatalf("insert stable %d: %v", i, err)
		}
	}

	const writers = 4
	const searchers = 4
	const churnRounds = 60
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, writers+searchers)

	// Writers: fill and drain disjoint churn ranges, forcing splits on
	// the way up and consolidations on the way down, at every level.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer stop.Store(true)
			base := uint64(w*1000 + 1)
			for r := 0; r < churnRounds; r++ {
				for i := uint64(0); i < 120; i++ {
					k := keys.Uint64(base + uint64(w)*1_000_000 + i*7%997)
					_ = fx.tree.Insert(nil, k, val(int(i)))
				}
				for i := uint64(0); i < 120; i++ {
					k := keys.Uint64(base + uint64(w)*1_000_000 + i*7%997)
					_ = fx.tree.Delete(nil, k)
				}
			}
		}(w)
	}
	for s := 0; s < searchers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			var buf []byte
			for !stop.Load() {
				i := rng.Intn(stable)
				v, ok, err := fx.tree.SearchInto(nil, keys.Uint64(uint64(i*1000)), buf)
				if err != nil {
					errs <- fmt.Errorf("searcher %d: %v", s, err)
					return
				}
				if !ok {
					errs <- fmt.Errorf("ghost miss: stable key %d not found", i*1000)
					return
				}
				if string(v) != string(val(i)) {
					errs <- fmt.Errorf("stable key %d: value %q, want %q", i*1000, v, val(i))
					return
				}
				buf = v[:0]
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
	shape := fx.mustVerify(t)
	if shape.Records < stable {
		t.Fatalf("records = %d, want >= %d", shape.Records, stable)
	}
	for i := 0; i < stable; i++ {
		if _, ok, err := fx.tree.Search(nil, keys.Uint64(uint64(i*1000))); err != nil || !ok {
			t.Fatalf("post-storm search %d: found=%v err=%v", i*1000, ok, err)
		}
	}
}

// TestSearchIntoAllocs pins the per-lookup allocation budget of the
// pooled-opCtx SearchInto path, both optimistic and fully latched: zero —
// SearchInto hand-rolls its retry loop precisely so no closure escapes.
func TestSearchIntoAllocs(t *testing.T) {
	for _, tc := range []struct {
		name        string
		pessimistic bool
		budget      float64
	}{
		{"optimistic", false, 0},
		{"latched", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := optimisticOpts()
			opts.PessimisticDescent = tc.pessimistic
			fx := newFixture(t, engine.Options{}, opts)
			const n = 1000
			for i := 0; i < n; i++ {
				if err := fx.tree.Insert(nil, keys.Uint64(uint64(i)), val(i)); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			fx.tree.DrainCompletions()
			k := keys.Uint64(uint64(n / 2))
			buf := make([]byte, 0, 64)
			// Warm the opCtx pool and (optimistic path) the nav snapshots.
			for i := 0; i < 100; i++ {
				if _, ok, err := fx.tree.SearchInto(nil, k, buf); err != nil || !ok {
					t.Fatalf("warmup search: found=%v err=%v", ok, err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, ok, _ := fx.tree.SearchInto(nil, k, buf); !ok {
					t.Error("key vanished")
				}
			})
			if allocs > tc.budget {
				t.Fatalf("SearchInto allocates %.1f objects/op, budget %.0f", allocs, tc.budget)
			}
		})
	}
}
