package tsb

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/keys"
)

// TestTSBOptimisticHitRatio checks that a warm read-only workload serves
// interior navigation almost entirely from validated snapshots.
func TestTSBOptimisticHitRatio(t *testing.T) {
	opts := Options{DataCapacity: 16, IndexCapacity: 16}
	fx := newFixture(t, opts)
	const n = 1500
	for i := 0; i < n; i++ {
		if err := fx.tree.Put(nil, keys.Uint64(uint64(i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	fx.tree.DrainCompletions()
	fx.tree.Stats.OptimisticHits.Store(0)
	fx.tree.Stats.OptimisticRetries.Store(0)
	fx.tree.Stats.OptimisticFallbacks.Store(0)
	for i := 0; i < n; i++ {
		if _, ok, err := fx.tree.Get(nil, keys.Uint64(uint64(i))); err != nil || !ok {
			t.Fatalf("get %d: found=%v err=%v", i, ok, err)
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

// TestTSBOptimisticSMOStorm runs optimistic readers against continuous
// time splits and key splits. Every stable key must stay reachable at
// every moment — a ghost miss means an unlatched traversal escaped the
// tree's key-space responsibility chain.
func TestTSBOptimisticSMOStorm(t *testing.T) {
	opts := Options{DataCapacity: 8, IndexCapacity: 8}
	fx := newFixture(t, opts)

	const stable = 300
	for i := 0; i < stable; i++ {
		if err := fx.tree.Put(nil, keys.Uint64(uint64(i*1000)), []byte(fmt.Sprintf("s%d", i))); err != nil {
			t.Fatalf("put stable %d: %v", i, err)
		}
	}

	const writers = 4
	const searchers = 4
	const putsPerWriter = 2500
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, writers+searchers)

	// Writers: repeated puts over a small churn key range force time
	// splits (version pileup) and key splits, all around the stable keys.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer stop.Store(true)
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < putsPerWriter; i++ {
				k := keys.Uint64(uint64(w*1000+1) + uint64(rng.Intn(500)))
				if err := fx.tree.Put(nil, k, []byte(fmt.Sprintf("c%d", i))); err != nil {
					errs <- fmt.Errorf("writer %d put: %v", w, err)
					return
				}
			}
		}(w)
	}
	for s := 0; s < searchers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for !stop.Load() {
				i := rng.Intn(stable)
				v, ok, err := fx.tree.Get(nil, keys.Uint64(uint64(i*1000)))
				if err != nil {
					errs <- fmt.Errorf("searcher %d: %v", s, err)
					return
				}
				if !ok {
					errs <- fmt.Errorf("ghost miss: stable key %d not found", i*1000)
					return
				}
				if string(v) != fmt.Sprintf("s%d", i) {
					errs <- fmt.Errorf("stable key %d: value %q", i*1000, v)
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
	for i := 0; i < stable; i++ {
		if _, ok, err := fx.tree.Get(nil, keys.Uint64(uint64(i*1000))); err != nil || !ok {
			t.Fatalf("post-storm get %d: found=%v err=%v", i*1000, ok, err)
		}
	}
}
