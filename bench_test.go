// Package repro's root test file holds the testing.B benchmarks, one per
// experiment table/figure (see DESIGN.md §3 and EXPERIMENTS.md). The
// cmd/pitree-bench binary prints the full parameter sweeps; these
// benchmarks expose the same code paths to `go test -bench`.
package repro

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/fsys"
	"repro/internal/keys"
	"repro/internal/spatial"
	"repro/internal/storage"
	"repro/internal/tsb"
	"repro/internal/wal"
)

const benchPreload = 20000

func methods(capacity int) []bench.Method { return bench.AllMethods() }

// BenchmarkT1SearchScaling: table T1 / figure F1 — parallel search
// throughput per method (parallelism = GOMAXPROCS).
func BenchmarkT1SearchScaling(b *testing.B) {
	for _, m := range bench.AllMethods() {
		b.Run(m.Name, func(b *testing.B) {
			kv, closer := m.New(64)
			defer closer()
			bench.Preload(kv, benchPreload)
			var seq atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					k := (seq.Add(1) * 2654435761) % benchPreload
					kv.Search(keys.Uint64(k * 2))
				}
			})
		})
	}
}

// BenchmarkT2MixedScaling: table T2 — 50/50 search/insert.
func BenchmarkT2MixedScaling(b *testing.B) {
	for _, m := range bench.AllMethods() {
		b.Run(m.Name, func(b *testing.B) {
			kv, closer := m.New(64)
			defer closer()
			bench.Preload(kv, benchPreload)
			var seq atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := seq.Add(1)
					if n%2 == 0 {
						kv.Search(keys.Uint64((n * 2654435761 % benchPreload) * 2))
					} else {
						kv.Insert(keys.Uint64(uint64(benchPreload)*2+n*2+1), []byte("w"))
					}
				}
			})
		})
	}
}

// BenchmarkT3SMORate: table T3 / figure F2 — insert-only throughput as
// capacity shrinks (split rate rises).
func BenchmarkT3SMORate(b *testing.B) {
	for _, capacity := range []int{128, 32, 8} {
		for _, m := range bench.AllMethods() {
			b.Run(fmt.Sprintf("%s/cap%d", m.Name, capacity), func(b *testing.B) {
				kv, closer := m.New(capacity)
				defer closer()
				var seq atomic.Uint64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						kv.Insert(keys.Uint64(seq.Add(1)), []byte("w"))
					}
				})
			})
		}
	}
}

// BenchmarkT6LatchHold: table T6 — cost of an insert including its share
// of short index-level atomic actions.
func BenchmarkT6LatchHold(b *testing.B) {
	pi := bench.NewPiTree(engine.Options{}, core.Options{LeafCapacity: 32, IndexCapacity: 32, Consolidation: true})
	defer pi.Close()
	var seq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			pi.Insert(keys.Uint64(seq.Add(1)), []byte("v"))
		}
	})
}

// BenchmarkT7MoveLocks: table T7 — transactional inserts under both undo
// regimes.
func BenchmarkT7MoveLocks(b *testing.B) {
	for _, rg := range []struct {
		name string
		e    engine.Options
	}{{"logical", engine.Options{}}, {"page-oriented", engine.Options{PageOriented: true}}} {
		b.Run(rg.name, func(b *testing.B) {
			pi := bench.NewPiTree(rg.e, core.Options{LeafCapacity: 16, IndexCapacity: 16, Consolidation: true})
			defer pi.Close()
			var seq atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					tx := pi.E.TM.Begin()
					k := seq.Add(1)
					if err := pi.T.Insert(tx, keys.Uint64(k), []byte("v")); err != nil {
						_ = tx.Abort()
						continue
					}
					_ = tx.Commit()
				}
			})
		})
	}
}

// BenchmarkT8Invariants: table T8 — mixed workload under each invariant
// regime.
func BenchmarkT8Invariants(b *testing.B) {
	for _, rg := range []struct {
		name string
		opts core.Options
	}{
		{"CNS", core.Options{Consolidation: false}},
		{"CP-dealloc-a", core.Options{Consolidation: true}},
		{"CP-dealloc-b", core.Options{Consolidation: true, DeallocIsUpdate: true}},
	} {
		b.Run(rg.name, func(b *testing.B) {
			opts := rg.opts
			opts.LeafCapacity = 32
			opts.IndexCapacity = 32
			pi := bench.NewPiTree(engine.Options{}, opts)
			defer pi.Close()
			bench.Preload(pi, benchPreload/2)
			var seq atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := seq.Add(1)
					k := keys.Uint64((n % uint64(benchPreload/2)) * 2)
					switch n % 4 {
					case 0:
						_ = pi.T.Delete(nil, k)
					case 1:
						_ = pi.T.Insert(nil, k, []byte("re"))
					default:
						_, _, _ = pi.T.Search(nil, k)
					}
				}
			})
		})
	}
}

// BenchmarkT9SavedPath: table T9 — posting cost with saved paths, via
// insert streams that constantly split.
func BenchmarkT9SavedPath(b *testing.B) {
	for _, rg := range []struct {
		name string
		opts core.Options
	}{
		{"CNS-trusted-path", core.Options{Consolidation: false}},
		{"CP-root-retraversal", core.Options{Consolidation: true}},
		{"CP-stateid-verified", core.Options{Consolidation: true, DeallocIsUpdate: true}},
	} {
		b.Run(rg.name, func(b *testing.B) {
			opts := rg.opts
			opts.LeafCapacity = 16
			opts.IndexCapacity = 16
			pi := bench.NewPiTree(engine.Options{}, opts)
			defer pi.Close()
			var seq atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					pi.Insert(keys.Uint64(seq.Add(1)), []byte("v"))
				}
			})
		})
	}
}

// BenchmarkT10TSB: table T10 — current vs as-of reads on a versioned
// history.
func BenchmarkT10TSB(b *testing.B) {
	e := engine.New(engine.Options{})
	bd := tsb.Register(e.Reg)
	st := e.AddStore(1, tsb.Codec{})
	tree, err := tsb.Create(st, e.TM, e.Locks, bd, "b10", tsb.Options{DataCapacity: 32, IndexCapacity: 32, SyncCompletion: true})
	if err != nil {
		b.Fatal(err)
	}
	defer tree.Close()
	const nKeys = 1000
	var mid uint64
	for v := 0; v < 8; v++ {
		for k := 0; k < nKeys; k++ {
			if err := tree.Put(nil, keys.Uint64(uint64(k)), []byte("v")); err != nil {
				b.Fatal(err)
			}
		}
		if v == 4 {
			mid = tree.Now()
		}
		tree.DrainCompletions()
	}
	b.Run("current", func(b *testing.B) {
		now := tree.Now()
		for i := 0; i < b.N; i++ {
			_, _, _ = tree.GetAsOf(nil, keys.Uint64(uint64(i%nKeys)), now)
		}
	})
	b.Run("as-of-mid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _, _ = tree.GetAsOf(nil, keys.Uint64(uint64(i%nKeys)), mid)
		}
	})
}

// BenchmarkT11Spatial: table T11 — point inserts and region queries on
// the multi-attribute tree.
func BenchmarkT11Spatial(b *testing.B) {
	e := engine.New(engine.Options{})
	bd := spatial.Register(e.Reg)
	st := e.AddStore(1, spatial.Codec{})
	tree, err := spatial.Create(st, e.TM, e.Locks, bd, "b11", spatial.Options{DataCapacity: 32, IndexCapacity: 16, SyncCompletion: true})
	if err != nil {
		b.Fatal(err)
	}
	defer tree.Close()
	rng := uint64(88172645463325252)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	b.Run("insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := spatial.Point{X: next() % spatial.MaxCoord, Y: next() % spatial.MaxCoord}
			_ = tree.Insert(nil, p, []byte("v"))
		}
	})
	tree.DrainCompletions()
	b.Run("region-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x := next() % (spatial.MaxCoord / 2)
			y := next() % (spatial.MaxCoord / 2)
			q := spatial.Rect{X0: x, Y0: y, X1: x + spatial.MaxCoord/32, Y1: y + spatial.MaxCoord/32}
			_ = tree.RegionQuery(q, func(spatial.Point, []byte) bool { return true })
		}
	})
}

// BenchmarkT12Recovery: table T12 — restart cost for a 10k-insert log.
func BenchmarkT12Recovery(b *testing.B) {
	build := func() *engine.CrashImage {
		e := engine.New(engine.Options{})
		bd := core.Register(e.Reg, false)
		st := e.AddStore(1, core.Codec{})
		tree, err := core.Create(st, e.TM, e.Locks, bd, "b12", core.Options{LeafCapacity: 32, IndexCapacity: 32, Consolidation: true, SyncCompletion: true})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 10000; i++ {
			_ = tree.Insert(nil, keys.Uint64(uint64(i)), []byte("v"))
		}
		tree.DrainCompletions()
		e.Log.ForceAll()
		tree.Close()
		return e.Crash(nil)
	}
	img := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e2 := engine.Restarted(img, engine.Options{})
		core.Register(e2.Reg, false)
		e2.AddStore(1, core.Codec{})
		if _, err := e2.Recover(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCodec stores raw byte slices as pages (storage-substrate
// microbenchmarks only).
type benchCodec struct{}

func (benchCodec) AppendPage(dst []byte, v any) ([]byte, error) {
	return append(dst, v.([]byte)...), nil
}
func (benchCodec) DecodePage(b []byte) (any, error) { return append([]byte(nil), b...), nil }

// BenchmarkWALAppendParallel measures raw log-append throughput with all
// workers appending small update records concurrently, plus a variant
// where every 64th append forces the log (group commit). The *-disarmed
// variants attach a fault injector with no armed failpoints: their delta
// against the plain variants is the cost of the always-compiled-in
// fault probes on the log's hot path (expected to be noise).
func BenchmarkWALAppendParallel(b *testing.B) {
	payload := make([]byte, 64)
	for _, v := range []struct {
		name string
		inj  *fault.Injector
	}{{"append", nil}, {"append-disarmed", fault.New(1)}} {
		b.Run(v.name, func(b *testing.B) {
			l := wal.New()
			l.SetInjector(v.inj)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					l.Append(&wal.Record{Type: wal.RecUpdate, TxnID: 1, StoreID: 1, PageID: 2, Payload: payload})
				}
			})
		})
	}
	for _, v := range []struct {
		name string
		inj  *fault.Injector
	}{{"append-force64", nil}, {"append-force64-disarmed", fault.New(1)}} {
		b.Run(v.name, func(b *testing.B) {
			l := wal.New()
			l.SetInjector(v.inj)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				n := 0
				for pb.Next() {
					lsn := l.Append(&wal.Record{Type: wal.RecUpdate, TxnID: 1, StoreID: 1, PageID: 2, Payload: payload})
					if n++; n%64 == 0 {
						if err := l.Force(lsn); err != nil {
							b.Error(err)
							return
						}
					}
				}
			})
		})
	}
	// Every append is a "commit" demanding durability before returning:
	// the worst case for a force-per-commit scheme and the best case for
	// group commit. forces/op shows the coalescing factor.
	b.Run("append-groupcommit", func(b *testing.B) {
		l := wal.New()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				lsn := l.Append(&wal.Record{Type: wal.RecCommit, TxnID: 1, Payload: payload})
				l.ForceGroup(lsn)
			}
		})
		_, flushes := l.Stats()
		b.ReportMetric(float64(flushes)/float64(b.N), "forces/op")
	})
}

// BenchmarkPoolFetchParallel measures Fetch/Unpin throughput against a
// preloaded store: unbounded (pure hit path), bounded with the working
// set resident (hit path + replacement bookkeeping), and bounded with a
// working set 4x capacity (eviction + reload churn).
func BenchmarkPoolFetchParallel(b *testing.B) {
	const nPages = 1024
	build := func() *storage.FileDisk {
		log := wal.New()
		d, err := storage.OpenFileDisk(fsys.NewMem(), "pages", 0)
		if err != nil {
			b.Fatal(err)
		}
		p := storage.NewPool(1, d, log, benchCodec{}, 0)
		for i := 0; i < nPages; i++ {
			pid := storage.PageID(2 + i)
			f, err := p.Create(pid)
			if err != nil {
				b.Fatal(err)
			}
			f.Latch.AcquireX()
			f.Data = []byte{byte(i)}
			lsn := log.Append(&wal.Record{Type: wal.RecUpdate, StoreID: 1, PageID: uint64(pid)})
			f.MarkDirty(lsn)
			f.Latch.ReleaseX()
			p.Unpin(f)
		}
		if _, err := p.FlushAll(); err != nil {
			b.Fatal(err)
		}
		return p.Disk()
	}
	disk := build()
	// The *-disarmed variants give the page file an injector with nothing
	// armed, and attach the same injector to the pool's eviction
	// failpoint: the delta against the plain variants is the full
	// disarmed probe cost on the fetch/evict hot path.
	for _, cfg := range []struct {
		name string
		cap  int
		inj  *fault.Injector
	}{
		{"unbounded", 0, nil},
		{"bounded-resident", nPages * 2, nil},
		{"bounded-thrash", nPages / 4, nil},
		{"bounded-thrash-disarmed", nPages / 4, fault.New(1)},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			disk.SetInjector(cfg.inj)
			p := storage.NewPool(1, disk, wal.New(), benchCodec{}, cfg.cap)
			p.SetInjector(cfg.inj)
			var seq atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					pid := storage.PageID(2 + (seq.Add(1)*2654435761)%nPages)
					f, err := p.Fetch(pid)
					if err != nil {
						b.Error(err)
						return
					}
					p.Unpin(f)
				}
			})
		})
	}
}

// BenchmarkBaselineSanity pins the baseline trees' single-thread insert
// cost so regressions in the comparators are visible too.
func BenchmarkBaselineSanity(b *testing.B) {
	for _, kv := range []baseline.KV{
		baseline.NewSubtreeLatch(64),
		baseline.NewSerialSMO(64),
		baseline.NewGlobalLock(64),
	} {
		b.Run(kv.Label(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kv.Insert(keys.Uint64(uint64(i)), []byte("v"))
			}
		})
	}
}
