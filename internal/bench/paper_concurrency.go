package bench

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/latch"
)

// The paper's concurrency claims: T1 / T2 / F1 (scaling against the
// baselines), T3 / F2 (decomposed against serial structure changes), T6
// (index latch holds), T8 (CNS against CP), T9 (saved-path verification).

// Params tune experiment sizes; Quick() keeps everything laptop-fast.
type Params struct {
	Threads      []int
	Preload      int
	OpsPerThread int
	Capacity     int
}

// Quick returns the default parameter set.
func Quick() Params {
	return Params{
		Threads:      []int{1, 2, 4, 8, 16},
		Preload:      50_000,
		OpsPerThread: 20_000,
		Capacity:     64,
	}
}

// T1SearchScaling is experiment T1: 100% search throughput vs thread
// count, Π-tree against all baselines. Reproduces the [18]-style finding
// that the B-link family scales where subtree latching and coarse locks
// do not.
func T1SearchScaling(w io.Writer, p Params) {
	runScaling(w, p, Mix{SearchPct: 100}, "T1: search-only throughput (kops/s) vs threads")
}

// T2MixedScaling is experiment T2: 50% search / 50% insert.
func T2MixedScaling(w io.Writer, p Params) {
	runScaling(w, p, Mix{SearchPct: 50, InsertPct: 50}, "T2: 50/50 search/insert throughput (kops/s) vs threads")
}

// F1Figure prints the same data as CSV series for plotting (the paper's
// claims as a figure: throughput curves per method).
func F1Figure(w io.Writer, p Params) {
	fmt.Fprintln(w, "\nF1: throughput curves (CSV: mix,method,threads,ops_per_sec)")
	for _, mix := range []struct {
		name string
		m    Mix
	}{{"search", Mix{SearchPct: 100}}, {"mixed", Mix{SearchPct: 50, InsertPct: 50}}} {
		for _, method := range AllMethods() {
			for _, tc := range p.Threads {
				kv, closer := method.New(p.Capacity)
				Preload(kv, p.Preload)
				r := Run(kv, tc, p.OpsPerThread, p.Preload, mix.m)
				closer()
				fmt.Fprintf(w, "%s,%s,%d,%.0f\n", mix.name, method.Name, tc, r.OpsPerSec())
			}
		}
	}
}

func runScaling(w io.Writer, p Params, mix Mix, title string) {
	rows := make(map[string][]Result)
	order := []string{}
	var poolLines []string
	for _, method := range AllMethods() {
		order = append(order, method.Name)
		for _, tc := range p.Threads {
			kv, closer := method.New(p.Capacity)
			Preload(kv, p.Preload)
			r := Run(kv, tc, p.OpsPerThread, p.Preload, mix)
			if pt, ok := kv.(*PiTree); ok {
				s := pt.PoolStats()
				ts := pt.T.Stats.Snapshot()
				optRatio := 0.0
				if ts.OptimisticHits+ts.OptimisticRetries > 0 {
					optRatio = float64(ts.OptimisticHits) / float64(ts.OptimisticHits+ts.OptimisticRetries)
				}
				poolLines = append(poolLines, fmt.Sprintf(
					"  threads=%-2d hits=%d misses=%d evictions=%d hit-ratio=%.2f%% opt-hits=%d opt-retries=%d opt-fallbacks=%d opt-hit-ratio=%.2f%%",
					tc, s.Hits, s.Misses, s.Evictions, 100*s.HitRatio(),
					ts.OptimisticHits, ts.OptimisticRetries, ts.OptimisticFallbacks, 100*optRatio))
			}
			closer()
			rows[method.Name] = append(rows[method.Name], r)
		}
	}
	printOrdered(w, title, p.Threads, order, rows)
	if len(poolLines) > 0 {
		fmt.Fprintln(w, "pi-tree buffer pool:")
		for _, ln := range poolLines {
			fmt.Fprintln(w, ln)
		}
	}
}

func printOrdered(w io.Writer, title string, threads []int, order []string, rows map[string][]Result) {
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "%-16s", "method")
	for _, tc := range threads {
		fmt.Fprintf(w, "%12s", fmt.Sprintf("%d thr", tc))
	}
	fmt.Fprintf(w, "%12s\n", "scale")
	for _, name := range order {
		results := rows[name]
		fmt.Fprintf(w, "%-16s", name)
		var first, last float64
		for i, r := range results {
			ops := r.OpsPerSec()
			if i == 0 {
				first = ops
			}
			last = ops
			fmt.Fprintf(w, "%12.1f", ops/1000)
		}
		scale := 0.0
		if first > 0 {
			scale = last / first
		}
		fmt.Fprintf(w, "%11.2fx\n", scale)
	}
}

// T3SMORate is experiment T3 (and F2 as a crossover series): insert-only
// throughput as node capacity shrinks — smaller nodes mean more frequent
// splits, so the penalty of SERIAL structure changes grows while the
// decomposed atomic actions of the Π-tree keep SMOs off the critical
// path (innovation 2 vs the ARIES/IM discipline).
func T3SMORate(w io.Writer, p Params) {
	caps := []int{128, 32, 8}
	threads := 8
	fmt.Fprintf(w, "\nT3: insert-only throughput (kops/s) at %d threads vs node capacity (split rate rises rightward)\n", threads)
	fmt.Fprintf(w, "%-16s", "method")
	for _, c := range caps {
		fmt.Fprintf(w, "%12s", fmt.Sprintf("cap %d", c))
	}
	fmt.Fprintf(w, "\n")
	for _, method := range AllMethods() {
		fmt.Fprintf(w, "%-16s", method.Name)
		for _, c := range caps {
			kv, closer := method.New(c)
			Preload(kv, p.Preload/5)
			r := Run(kv, threads, p.OpsPerThread/2, p.Preload/5, Mix{InsertPct: 100})
			closer()
			fmt.Fprintf(w, "%12.1f", r.OpsPerSec()/1000)
		}
		fmt.Fprintf(w, "\n")
	}
	fmt.Fprintln(w, "F2 series (CSV: method,capacity,ops_per_sec) printed by -exp F2")

	// Part two: SEARCH LATENCY while splits rage. This is the paper's
	// claim in a form measurable even on one CPU: under serial SMOs a
	// search can be blocked for the duration of an entire multi-level
	// structure change, while decomposed atomic actions never make a
	// search wait for more than one short page-level action.
	fmt.Fprintf(w, "\nT3b: search latency under an SMO storm (capacity 8, 4 insert goroutines + 1 probing searcher)\n")
	fmt.Fprintf(w, "%-16s%12s%12s%12s%14s\n", "method", "p50", "p99", "p99.9", "max")
	for _, method := range AllMethods() {
		kv, closer := method.New(8)
		Preload(kv, p.Preload/10)
		lat := measureSearchLatency(kv, p.Preload/10, p.OpsPerThread/4)
		closer()
		fmt.Fprintf(w, "%-16s%12v%12v%12v%14v\n", method.Name,
			percentileDur(lat, 50), percentileDur(lat, 99), percentileDur(lat, 99.9), percentileDur(lat, 100))
	}

	// Part three: TREE-WIDE EXCLUSION, the scheduler-independent form of
	// the claim. A structure change in the Π-tree never holds a resource
	// that stalls the whole tree — every action is page-local. The
	// baselines each hold one: serial-SMO's tree latch for whole
	// structure changes, the subtree tree's root anchor while the root is
	// unsafe, and the global lock for every single write.
	fmt.Fprintf(w, "\nT3c: tree-wide exclusive holds during 20k inserts (capacity 8, single-threaded for determinism)\n")
	fmt.Fprintf(w, "%-16s%14s%16s%18s\n", "method", "holds", "total excl.", "excl. per insert")
	for _, method := range AllMethods() {
		kv, closer := method.New(8)
		const n = 20000
		for i := 0; i < n; i++ {
			kv.Insert(keys.Uint64(uint64(i)*0x9E3779B97F4A7C15>>16), []byte("w"))
		}
		count, total := int64(0), time.Duration(0)
		if ex, ok := kv.(interface {
			ExclusionStats() (int64, time.Duration)
		}); ok {
			count, total = ex.ExclusionStats()
		}
		closer()
		fmt.Fprintf(w, "%-16s%14d%16v%18v\n", method.Name, count, total.Round(time.Microsecond), (total / n).Round(time.Nanosecond))
	}
	fmt.Fprintln(w, "(pi-tree holds NO tree-wide exclusive resource: its structure changes are page-local atomic actions)")
}

// measureSearchLatency runs insert goroutines that split constantly and
// one searcher that records per-operation latency.
func measureSearchLatency(kv KV, preloaded, inserts int) []time.Duration {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var seq atomic.Uint64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < inserts; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := seq.Add(1)
				k := (s * 0x9E3779B97F4A7C15 % uint64(preloaded*4)) * 2
				kv.Insert(keys.Uint64(k+1), []byte("w"))
			}
		}()
	}
	var lat []time.Duration
	si, hasSI := kv.(searchIntoKV)
	buf := make([]byte, 0, 64)
	for i := 0; i < 20000; i++ {
		k := uint64(i%preloaded) * 2
		t0 := time.Now()
		if hasSI {
			if v, _ := si.SearchInto(keys.Uint64(k), buf); v != nil {
				buf = v[:0]
			}
		} else {
			kv.Search(keys.Uint64(k))
		}
		lat = append(lat, time.Since(t0))
	}
	close(stop)
	wg.Wait()
	return lat
}

func percentileDur(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p / 100 * float64(len(s)-1))
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// F2Crossover prints the T3 data as CSV.
func F2Crossover(w io.Writer, p Params) {
	fmt.Fprintln(w, "\nF2: SMO-rate crossover (CSV: method,capacity,ops_per_sec)")
	for _, method := range AllMethods() {
		for _, c := range []int{256, 128, 64, 32, 16, 8} {
			kv, closer := method.New(c)
			Preload(kv, p.Preload/5)
			r := Run(kv, 8, p.OpsPerThread/2, p.Preload/5, Mix{InsertPct: 100})
			closer()
			fmt.Fprintf(w, "%s,%d,%.0f\n", method.Name, c, r.OpsPerSec())
		}
	}
}

// T6LatchHold is experiment T6: the distribution of U/X latch hold times
// on index nodes (levels >= 1) under a mixed workload — the paper's
// claim that all actions above the data level are short independent
// atomic actions that do not impede normal activity.
func T6LatchHold(w io.Writer, p Params) {
	timer := &latch.HoldTimer{}
	pi := NewPiTree(engine.Options{}, core.Options{
		LeafCapacity:  p.Capacity,
		IndexCapacity: p.Capacity,
		Consolidation: true,
		IndexHold:     timer,
	})
	defer pi.Close()
	Preload(pi, p.Preload/2)
	Run(pi, 8, p.OpsPerThread/2, p.Preload/2, Mix{SearchPct: 40, InsertPct: 60})
	pi.T.DrainCompletions()
	fmt.Fprintf(w, "\nT6: U/X latch hold times on index nodes (mixed workload, 8 threads)\n")
	fmt.Fprintf(w, "holds=%d p50=%v p95=%v p99=%v max=%v\n",
		timer.Count(), timer.Percentile(50), timer.Percentile(95), timer.Percentile(99), timer.Percentile(100))
	st := pi.T.Stats.Snapshot()
	fmt.Fprintf(w, "splits: leaf=%d index=%d rootGrowths=%d postsPerformed=%d sideTraversals=%d\n",
		st.LeafSplits, st.IndexSplits, st.RootGrowths, st.PostsPerformed, st.SideTraversals)
}

// T9SavedPath is experiment T9: how often index-term posting can reuse
// the remembered path (state identifiers unchanged) instead of a full
// re-traversal, across the three §5.2 regimes.
func T9SavedPath(w io.Writer, p Params) {
	fmt.Fprintf(w, "\nT9: saved-path verification during postings (insert-heavy, capacity 16)\n")
	fmt.Fprintf(w, "%-28s%12s%12s%12s\n", "regime", "hits", "misses", "hit rate")
	regimes := []struct {
		name string
		opts core.Options
	}{
		{"CNS (immortal nodes)", core.Options{Consolidation: false}},
		{"CP, dealloc not update", core.Options{Consolidation: true}},
		{"CP, dealloc is update", core.Options{Consolidation: true, DeallocIsUpdate: true}},
	}
	for _, rg := range regimes {
		opts := rg.opts
		opts.LeafCapacity = 16
		opts.IndexCapacity = 16
		pi := NewPiTree(engine.Options{}, opts)
		Run(pi, 8, p.OpsPerThread/2, 1, Mix{InsertPct: 100})
		pi.T.DrainCompletions()
		st := pi.T.Stats.Snapshot()
		total := st.PathVerifyHits + st.PathVerifyMisses
		rate := 0.0
		if total > 0 {
			rate = float64(st.PathVerifyHits) / float64(total)
		}
		fmt.Fprintf(w, "%-28s%12d%12d%11.1f%%\n", rg.name, st.PathVerifyHits, st.PathVerifyMisses, rate*100)
		pi.Close()
	}
	fmt.Fprintln(w, "(CP with 'dealloc not update' must re-traverse from the root: hits are structural zero)")
}

// T8Invariants is experiment T8: CNS single-latch descent vs CP latch
// coupling, and both de-allocation strategies, under a delete-heavy
// workload that exercises consolidation.
func T8Invariants(w io.Writer, p Params) {
	fmt.Fprintf(w, "\nT8: invariant regimes under mixed insert/delete/search (8 threads, kops/s)\n")
	fmt.Fprintf(w, "%-28s%12s%14s%14s\n", "regime", "kops/s", "consolidations", "restarts")
	regimes := []struct {
		name string
		opts core.Options
	}{
		{"CNS (no consolidation)", core.Options{Consolidation: false}},
		{"CP, dealloc not update", core.Options{Consolidation: true}},
		{"CP, dealloc is update", core.Options{Consolidation: true, DeallocIsUpdate: true}},
	}
	for _, rg := range regimes {
		opts := rg.opts
		opts.LeafCapacity = 32
		opts.IndexCapacity = 32
		pi := NewPiTree(engine.Options{}, opts)
		Preload(pi, p.Preload/5)
		start := time.Now()
		res := runWithDeletes(pi, 8, p.OpsPerThread/2, p.Preload/5)
		elapsed := time.Since(start)
		pi.T.DrainCompletions()
		st := pi.T.Stats.Snapshot()
		fmt.Fprintf(w, "%-28s%12.1f%14d%14d\n", rg.name, float64(res)/elapsed.Seconds()/1000, st.Consolidations, st.Restarts)
		pi.Close()
	}
}

func runWithDeletes(pi *PiTree, threads, opsPerThread, preloaded int) int {
	done := make(chan int, threads)
	stripe := preloaded / threads
	for w := 0; w < threads; w++ {
		go func(w int) {
			n := 0
			// Each thread owns a contiguous stripe and deletes it front to
			// back (emptying whole leaves, which is what actually drives
			// consolidation), reinserting behind itself and searching the
			// not-yet-deleted tail.
			base := w * stripe
			delCursor, reinsCursor := 0, 0
			for i := 0; i < opsPerThread; i++ {
				switch i % 4 {
				case 0, 1:
					k := uint64(base+delCursor%stripe) * 2
					delCursor++
					_ = pi.T.Delete(nil, keys.Uint64(k))
				case 2:
					k := uint64(base+reinsCursor%stripe) * 2
					reinsCursor++
					_ = pi.T.Insert(nil, keys.Uint64(k), []byte("re"))
				default:
					k := uint64(base+(delCursor+7)%stripe) * 2
					_, _, _ = pi.T.Search(nil, keys.Uint64(k))
				}
				n++
			}
			done <- n
		}(w)
	}
	total := 0
	for w := 0; w < threads; w++ {
		total += <-done
	}
	return total
}
