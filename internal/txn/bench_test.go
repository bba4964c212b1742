package txn

import (
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

// BenchmarkParallelCommit measures the user-commit path under concurrent
// committers: each iteration is one single-update transaction ending in a
// durable commit.
func BenchmarkParallelCommit(b *testing.B) {
	e := newEnv(b, Options{})
	tm := e.tm

	var nextPid atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		pid := storage.PageID(nextPid.Add(1))
		for pb.Next() {
			t := tm.Begin()
			e.add(t, pid, 1)
			if err := t.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
	_, flushes := e.log.Stats()
	b.ReportMetric(float64(flushes)/float64(b.N), "forces/commit")
}
