// Package bench is the experiment harness: workload generators, a
// concurrency driver, and one runner per experiment in DESIGN.md's index
// (T1..T12, F1..F2). Each runner prints the table or figure series the
// experiment defines; EXPERIMENTS.md records representative results next
// to the paper's claims.
package bench

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/storage"
)

// KV is the method-agnostic surface the driver runs against (identical
// to baseline.KV; the Π-tree joins through an adapter so it pays its full
// logging and locking costs while the baselines run bare).
type KV = baseline.KV

// PiTree adapts core.Tree to the driver.
type PiTree struct {
	T *core.Tree
	E *engine.Engine
}

// NewPiTree builds a fresh engine + Π-tree for one benchmark run.
func NewPiTree(eopts engine.Options, topts core.Options) *PiTree {
	e := engine.New(eopts)
	b := core.Register(e.Reg, eopts.PageOriented)
	st := e.AddStore(1, core.Codec{})
	t, err := core.Create(st, e.TM, e.Locks, b, "bench", topts)
	if err != nil {
		panic(err)
	}
	return &PiTree{T: t, E: e}
}

// Insert implements KV (non-transactional single-op atomic actions).
func (p *PiTree) Insert(k keys.Key, v []byte) {
	if err := p.T.Insert(nil, k, v); err != nil && err != core.ErrKeyExists {
		panic(err)
	}
}

// Search implements KV.
func (p *PiTree) Search(k keys.Key) ([]byte, bool) {
	v, ok, err := p.T.Search(nil, k)
	if err != nil {
		panic(err)
	}
	return v, ok
}

// SearchInto implements searchIntoKV, exposing the tree's allocation-free
// lookup to the driver.
func (p *PiTree) SearchInto(k keys.Key, buf []byte) ([]byte, bool) {
	v, ok, err := p.T.SearchInto(nil, k, buf)
	if err != nil {
		panic(err)
	}
	return v, ok
}

// Scan implements KV.
func (p *PiTree) Scan(lo, hi keys.Key, fn func(k keys.Key, v []byte) bool) {
	if err := p.T.RangeScan(nil, lo, hi, fn); err != nil {
		panic(err)
	}
}

// Label implements KV.
func (p *PiTree) Label() string { return "pi-tree" }

// Close stops background workers.
func (p *PiTree) Close() { p.T.Close() }

// PoolStats sums buffer-pool counters across the engine's stores.
func (p *PiTree) PoolStats() storage.PoolStats {
	var s storage.PoolStats
	for _, pool := range p.E.Pools() {
		ps := pool.Stats()
		s.Flushes += ps.Flushes
		s.Misses += ps.Misses
		s.Hits += ps.Hits
		s.Evictions += ps.Evictions
		s.PrefetchIssued += ps.PrefetchIssued
		s.PrefetchHit += ps.PrefetchHit
		s.PrefetchWasted += ps.PrefetchWasted
	}
	return s
}

// searchIntoKV is an optional KV extension: a lookup that appends the
// value to a caller-owned buffer instead of allocating a copy per hit.
// The driver uses it when present so a method with an allocation-free
// read path is measured through it; the returned slice is only read
// before the worker's next operation. The baselines hand out uncopied
// references from Search already, so this levels the field rather than
// tilting it.
type searchIntoKV interface {
	SearchInto(k keys.Key, buf []byte) ([]byte, bool)
}

// Mix is an operation mix in percent; the remainder after Search and
// Insert is range scans of ~100 keys.
type Mix struct {
	SearchPct int
	InsertPct int
}

// Result is one measured cell.
type Result struct {
	Method  string
	Threads int
	Ops     int
	Elapsed time.Duration
}

// OpsPerSec returns the cell's throughput.
func (r Result) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// Preload inserts n sequential even keys (leaving odd gaps for later
// inserts) single-threaded.
func Preload(kv KV, n int) {
	for i := 0; i < n; i++ {
		kv.Insert(keys.Uint64(uint64(i*2)), []byte("preload"))
	}
}

// Run drives opsPerThread operations on each of `threads` goroutines
// against kv and reports aggregate throughput. Searches hit preloaded
// even keys; inserts produce globally unique odd keys.
func Run(kv KV, threads, opsPerThread, preloaded int, mix Mix) Result {
	var insertSeq atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 17))
			si, hasSI := kv.(searchIntoKV)
			buf := make([]byte, 0, 64)
			for i := 0; i < opsPerThread; i++ {
				roll := rng.Intn(100)
				switch {
				case roll < mix.SearchPct:
					k := uint64(rng.Intn(preloaded)) * 2
					if hasSI {
						if v, _ := si.SearchInto(keys.Uint64(k), buf); v != nil {
							buf = v[:0]
						}
					} else {
						kv.Search(keys.Uint64(k))
					}
				case roll < mix.SearchPct+mix.InsertPct:
					// Odd keys interleaved within the preloaded range:
					// uniform pressure across all leaves (a monotone or
					// out-of-range stream would turn the rightmost path
					// into a hot spot no real workload has). Re-inserting
					// an existing odd key degenerates to an upsert probe.
					seq := insertSeq.Add(1)
					k := (seq*0x9E3779B97F4A7C15%uint64(preloaded))*2 + 1
					kv.Insert(keys.Uint64(k), []byte("w"))
				default:
					lo := uint64(rng.Intn(preloaded)) * 2
					cnt := 0
					kv.Scan(keys.Uint64(lo), nil, func(keys.Key, []byte) bool {
						cnt++
						return cnt < 100
					})
				}
			}
		}(w)
	}
	wg.Wait()
	return Result{Method: kv.Label(), Threads: threads, Ops: threads * opsPerThread, Elapsed: time.Since(start)}
}

// Method is a comparison-set entry: a named constructor producing a
// fresh instance (and a cleanup) per benchmark cell.
type Method struct {
	Name string
	New  func(capacity int) (KV, func())
}

// AllMethods returns the full comparison set. The Π-tree runs with its
// complete substrate (WAL, buffer pool, locks, completion workers); the
// baselines run bare and in memory.
func AllMethods() []Method {
	return []Method{
		{Name: "pi-tree", New: func(capacity int) (KV, func()) {
			pi := NewPiTree(engine.Options{}, core.Options{
				LeafCapacity:  capacity,
				IndexCapacity: capacity,
				Consolidation: true,
			})
			return pi, pi.Close
		}},
		{Name: "subtree-latch", New: func(capacity int) (KV, func()) {
			return baseline.NewSubtreeLatch(capacity), func() {}
		}},
		{Name: "serial-smo", New: func(capacity int) (KV, func()) {
			return baseline.NewSerialSMO(capacity), func() {}
		}},
		{Name: "global-lock", New: func(capacity int) (KV, func()) {
			return baseline.NewGlobalLock(capacity), func() {}
		}},
	}
}
