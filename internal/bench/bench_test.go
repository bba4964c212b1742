package bench

import (
	"bytes"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/keys"
)

// TestRunSmoke drives the workload runner at tiny sizes over every
// method, which keeps the harness itself exercised by `go test`.
func TestRunSmoke(t *testing.T) {
	for _, m := range AllMethods() {
		t.Run(m.Name, func(t *testing.T) {
			kv, closer := m.New(16)
			defer closer()
			Preload(kv, 500)
			r := Run(kv, 2, 300, 500, Mix{SearchPct: 50, InsertPct: 40})
			if r.Ops != 600 || r.OpsPerSec() <= 0 {
				t.Fatalf("result: %+v", r)
			}
			// Preloaded keys must still be there.
			if _, ok := kv.Search(keys.Uint64(0)); !ok {
				t.Fatal("preloaded key lost")
			}
		})
	}
}

// TestExperimentsSmoke runs every experiment printer at reduced sizes and
// checks that each prints its header and at least one data row.
func TestExperimentsSmoke(t *testing.T) {
	p := Params{Threads: []int{1, 2}, Preload: 2000, OpsPerThread: 500, Capacity: 16}
	for _, e := range []struct {
		id  string // the header line starts with it and a colon
		run func(io.Writer, Params)
		row string // starts a data row
	}{
		{"T1", T1SearchScaling, "pi-tree"},
		{"T2", T2MixedScaling, "pi-tree"},
		{"F1", F1Figure, "search,pi-tree,1,"},
		{"T3", T3SMORate, "pi-tree"},
		{"F2", F2Crossover, "pi-tree,64,"},
		{"T4", T4CrashMatrix, "logical-undo/CP"},
		{"T5", T5LazyCompletion, "residual side traversals"},
		{"T6", T6LatchHold, "holds="},
		{"T7", T7MoveLocks, "page-oriented"},
		{"T8", T8Invariants, "CP"},
		{"T9", T9SavedPath, "CP, dealloc is update"},
		{"T10", T10TSB, "time splits"},
		{"T11", T11Spatial, "data nodes="},
		{"T12", T12Recovery, "log forces"},
	} {
		t.Run(e.id, func(t *testing.T) {
			var buf bytes.Buffer
			e.run(&buf, p)
			out := buf.String()
			if !strings.Contains(out, "\n"+e.id+":") {
				t.Fatalf("no header:\n%s", out)
			}
			if !strings.Contains(out, "\n"+e.row) {
				t.Fatalf("no data row starting %q:\n%s", e.row, out)
			}
		})
	}
}

// Traversal micro-benchmarks: the interior-descent cost of a point
// lookup, optimistic vs fully latched. Run with `-cpu 1,4` (the Makefile
// bench target does): the optimistic path's advantage is contended latch
// traffic it avoids, so 1-CPU numbers understate it badly — with a
// single P there is no latch contention to remove, and the two variants
// should be read as a sanity floor, not a speedup claim. The multi-CPU
// variant is the measurement.
func benchmarkSearchDescent(b *testing.B, pessimistic bool) {
	const preload = 50_000
	pi := NewPiTree(engine.Options{}, core.Options{
		LeafCapacity:       64,
		IndexCapacity:      64,
		Consolidation:      true,
		PessimisticDescent: pessimistic,
	})
	defer pi.Close()
	Preload(pi, preload)
	pi.T.DrainCompletions()
	var seq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]byte, 0, 64)
		base := seq.Add(0x9E3779B97F4A7C15)
		i := uint64(0)
		for pb.Next() {
			k := ((base + i) % preload) * 2
			i++
			v, ok, err := pi.T.SearchInto(nil, keys.Uint64(k), buf)
			if err != nil || !ok {
				b.Fatalf("search %d: found=%v err=%v", k, ok, err)
			}
			buf = v[:0]
		}
	})
}

func BenchmarkSearchDescentOptimistic(b *testing.B) { benchmarkSearchDescent(b, false) }
func BenchmarkSearchDescentLatched(b *testing.B)    { benchmarkSearchDescent(b, true) }

// TestPercentileDur pins the percentile helper.
func TestPercentileDur(t *testing.T) {
	if percentileDur(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
}
