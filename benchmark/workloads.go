package main

import (
	"time"

	"repro/internal/wal"
)

type treeKind uint8

const (
	treeCore treeKind = iota
	treeTSB
	treeSpatial
)

// workload is one set of inputs. Every size is fixed here; -scale divides
// the record counts for the smoke test only.
type workload struct {
	name string
	tree treeKind
	sync wal.SyncPolicy
	// poolFrames bounds the buffer pool; 0 is unbounded (everything fits).
	poolFrames int
	records    uint64
	zipfian    bool
	mix        mixOf
	// consolidation turns on the core tree's background node merging,
	// paced by a maint.Governor.
	consolidation bool
	// checkpointEvery makes the driver call Engine.Checkpoint on that
	// period during a phase; 0 leaves checkpoints to set-up and shutdown.
	checkpointEvery time.Duration
	// crash runs the main phase in a child process that is killed, and
	// times restart recovery in the parent.
	crash bool
	// ungated keeps a workload out of BENCHMARK.json, so that no bound is
	// held against it; it still runs in a full set.
	ungated bool
}

// windowPerClient is how many keys each client's rolling insert/delete
// window holds after set-up, so a delete always finds an older own key.
const windowPerClient = 2000

// crashOpsPerSecond is the fixed work of the crash-restart child per second
// of -seconds: the op count, not the clock, ends its phase, so every run
// leaves the same redo work behind.
const crashOpsPerSecond = 40_000

const (
	// loserTxns transactions with loserUpdates logged updates each are left
	// open when the child is killed; restart must roll them back.
	loserTxns    = 8
	loserUpdates = 50
)

var workloads = []*workload{
	{
		name: "read-cached", tree: treeCore, sync: wal.SyncNever, records: 200_000, zipfian: true,
		mix: mixOf{{opSearch, 95}, {opRangeScan, 5}},
	},
	{
		// Every op waits for an fsync, and fsync time on this sandbox's disk
		// drifts by a factor of two within and between runs: throughput and
		// write latency spread 45 % to 60 % of their median over ten runs.
		name: "update-durable", tree: treeCore, sync: wal.SyncAlways, records: 200_000, zipfian: true, ungated: true,
		mix: mixOf{{opUpdate, 100}},
	},
	{
		name: "mixed-spill", tree: treeCore, sync: wal.SyncNever, records: 200_000, poolFrames: 512,
		consolidation: true, checkpointEvery: 3 * time.Second,
		mix: mixOf{{opSearch, 50}, {opUpdate, 25}, {opInsert, 10}, {opDelete, 10}, {opRangeScan, 5}},
	},
	{
		name: "versioned-snapshot", tree: treeTSB, sync: wal.SyncNever, records: 100_000, zipfian: true,
		mix: mixOf{{opPut, 25}, {opSnapshotGet, 60}, {opGetAsOf, 10}, {opSnapshotScan, 5}},
	},
	{
		name: "spatial-region", tree: treeSpatial, sync: wal.SyncNever, records: 100_000,
		mix: mixOf{{opSpatialInsert, 20}, {opSpatialSearch, 50}, {opRegionQuery, 30}},
	},
	{
		name: "crash-restart", tree: treeCore, sync: wal.SyncNever, records: 100_000, zipfian: true, crash: true,
		mix: mixOf{{opUpdate, 88}, {opInsert, 12}},
	},
}

// recordsAt is the preload size at a -scale: scaled-down workloads stay
// large enough for a scan, a rolling window and the crash workload's loser
// transactions.
func (w *workload) recordsAt(scale uint64) uint64 { return max(w.records/scale, 2000) }

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// tailMix is the single-class mix run for a short tail phase when a
// workload's own mix has no op of that class, so that every workload
// reports every latency metric.
func (w *workload) tailMix(c opClass) mixOf {
	kinds := map[treeKind][numClasses]opKind{
		treeCore:    {opSearch, opUpdate, opRangeScan},
		treeTSB:     {opSnapshotGet, opPut, opSnapshotScan},
		treeSpatial: {opSpatialSearch, opSpatialInsert, opRegionQuery},
	}
	return mixOf{{kinds[w.tree][c], 100}}
}
