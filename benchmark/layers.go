package main

import (
	"reflect"
	"runtime"
	"sync/atomic"
)

// metricDef names one metric and its unit. The two tables below are the
// benchmark's vocabulary; BENCHMARK.json lists the same names (the smoke
// test holds the two together).
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"write_amp", "ratio"},
	{"space_amp", "ratio"},
	{"live_heap_mb", "MB"},
}

// perLayerMetrics, by layer (this repository's packages). All are taken
// from outside: C = delta of the layer's public counters over the untraced
// phase, S = spans around the driver's calls into the layer in the traced
// phase, P = unit-cost probes of the layer's public functions.
var perLayerMetrics = []metricDef{
	// End to end, but without a bound: failures are normally 0, and ten
	// runs of one commit spread throughput and the latency medians by 10 %
	// to 25 % of their median in this sandbox, restart time by 15 % to 35 %
	// and the 99th percentiles by 20 % to 100 %. An untraced run reports
	// them too, beside its result (report.Unbounded).
	{"failed_ops_ratio", "ratio"},
	{"throughput_ops_s", "1/s"},
	{"restart_s", "s"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"write_p50_us", "us"},
	{"write_p99_us", "us"},
	{"scan_p50_us", "us"},
	{"scan_p99_us", "us"},

	{"latch.s_acquire_release_ns", "ns"}, // P
	{"latch.x_acquire_release_ns", "ns"},
	{"latch.u_promote_ns", "ns"},
	{"latch.optimistic_validate_ns", "ns"},
	{"latch.s_shared_2g_ns", "ns"},

	{"lock.grants_per_op", "1/op"}, // C
	{"lock.waits_per_kop", "1/kop"},
	{"lock.deadlocks_per_kop", "1/kop"},
	{"lock.pending_deps", "count"},
	{"lock.lock_release_ns", "ns"}, // P
	{"lock.trylock_batch_ns_per_key", "ns"},

	{"wal.appends_per_op", "1/op"}, // C
	{"wal.bytes_per_op", "B/op"},
	{"wal.force_requests_per_commit", "ratio"},
	{"wal.commits_per_sync_round", "ratio"},
	{"wal.fsyncs_per_commit", "ratio"},
	{"wal.fsync_us_mean", "us"},
	{"wal.overlap_ratio", "ratio"},
	{"wal.segments_created", "count"},
	{"wal.segments_recycled", "count"},
	{"wal.append_ns", "ns"}, // P
	{"wal.force_group_us", "us"},

	{"storage.pool_hit_ratio", "ratio"}, // C
	{"storage.pool_misses_per_kop", "1/kop"},
	{"storage.pool_evictions_per_kop", "1/kop"},
	{"storage.pool_flushes_per_kop", "1/kop"},
	{"storage.prefetch_hit_ratio", "ratio"},
	{"storage.prefetch_wasted_ratio", "ratio"},
	{"storage.disk_pages_written_per_kop", "1/kop"},
	{"storage.disk_fsyncs", "count"},
	{"storage.checksum_fails", "count"},
	{"storage.pages_allocated", "count"},
	{"storage.pages_free", "count"},
	{"storage.fetch_hit_ns", "ns"}, // P
	{"storage.fetch_miss_us", "us"},
	{"storage.flush_page_us", "us"},

	{"txn.begin_ns", "ns"}, // S
	{"txn.commit_us_p50", "us"},
	{"txn.commit_us_p99", "us"},
	{"txn.abort_count", "count"},
	{"txn.snapshot_begin_release_ns", "ns"},

	{"core.search_ns", "ns"}, // S
	{"core.update_us", "us"},
	{"core.insert_us", "us"},
	{"core.delete_us", "us"},
	{"core.scan_us", "us"},
	{"core.leaf_splits_per_kop", "1/kop"}, // C
	{"core.index_splits_per_kop", "1/kop"},
	{"core.restarts_per_kop", "1/kop"},
	{"core.side_traversals_per_kop", "1/kop"},
	{"core.optimistic_hit_ratio", "ratio"},
	{"core.optimistic_fallbacks_per_kop", "1/kop"},
	{"core.posts_performed_ratio", "ratio"},
	{"core.consolidations_per_kop", "1/kop"},
	{"core.move_lock_waits_per_kop", "1/kop"},
	{"core.leaf_util_mean", "ratio"},

	{"tsb.put_us", "us"}, // S
	{"tsb.snapshot_get_ns", "ns"},
	{"tsb.get_asof_us", "us"},
	{"tsb.snapshot_scan_us", "us"},
	{"tsb.time_splits_per_kop", "1/kop"}, // C
	{"tsb.key_splits_per_kop", "1/kop"},
	{"tsb.hist_sib_walks_per_kop", "1/kop"},
	{"tsb.snapshot_hist_walks_per_kget", "1/kop"},
	{"tsb.optimistic_hit_ratio", "ratio"},
	{"tsb.restarts_per_kop", "1/kop"},
	{"tsb.gc_reclaimed_versions_per_put", "ratio"},
	{"tsb.gc_freed_pages", "count"},

	{"spatial.insert_us", "us"}, // S
	{"spatial.search_ns", "ns"},
	{"spatial.region_query_us", "us"},
	{"spatial.data_splits_per_kop", "1/kop"}, // C
	{"spatial.clipped_terms_per_kop", "1/kop"},
	{"spatial.side_traversals_per_kop", "1/kop"},
	{"spatial.optimistic_hit_ratio", "ratio"},
	{"spatial.restarts_per_kop", "1/kop"},
	{"spatial.results_per_region_query", "count"},

	{"recovery.wal_open_ms", "ms"}, // S, and C from recovery.Stats
	{"recovery.analysis_ms", "ms"},
	{"recovery.redo_ms", "ms"},
	{"recovery.undo_ms", "ms"},
	{"recovery.tree_open_ms", "ms"},
	{"recovery.records_analyzed", "count"},
	{"recovery.records_redone", "count"},
	{"recovery.redo_skipped", "count"},
	{"recovery.loser_txns", "count"},
	{"recovery.redo_rate_rec_s", "1/s"},
	{"recovery.plan_spilled", "count"},

	{"maint.admits", "count"}, // C
	{"maint.throttled", "count"},
	{"maint.wait_ms_total", "ms"},

	{"engine.checkpoint_ms", "ms"}, // S
	{"engine.checkpoint_count", "count"},
	{"engine.close_ms", "ms"},
	{"engine.allocs_per_op", "1/op"}, // runtime.MemStats delta, untraced
	{"engine.alloc_bytes_per_op", "B/op"},
	{"engine.attr_commit_share", "ratio"}, // spans: shares of op time
	{"engine.attr_tree_share", "ratio"},
	{"engine.attr_txn_other_share", "ratio"},
	{"engine.driver_self_share", "ratio"},
	{"engine.attr_lock_share", "ratio"}, // unit cost x count, inside the tree share
	{"engine.attr_wal_append_share", "ratio"},
	{"engine.attr_pool_miss_share", "ratio"},
	{"engine.attr_residual_share", "ratio"},
	{"engine.trace_overhead_ratio", "ratio"},
}

// counters is one reading of every cumulative public counter of the
// engine's layers, by name.
type counters map[string]float64

func (a counters) sub(b counters) counters {
	d := make(counters, len(a))
	for k, v := range a {
		d[k] = v - b[k]
	}
	return d
}

// readAtomics copies every atomic.Int64 field of the Stats struct at
// stats into c under prefix.
func readAtomics(c counters, prefix string, stats any) {
	s := reflect.ValueOf(stats).Elem()
	for i := 0; i < s.NumField(); i++ {
		if a, ok := s.Field(i).Addr().Interface().(*atomic.Int64); ok {
			c[prefix+s.Type().Field(i).Name] = float64(a.Load())
		}
	}
}

// readCounters snapshots the layers' public stats.
func (v *env) readCounters() counters {
	c := counters{}
	for _, p := range v.e.Pools() {
		s := p.Stats()
		c["pool.hits"] += float64(s.Hits)
		c["pool.misses"] += float64(s.Misses)
		c["pool.evictions"] += float64(s.Evictions)
		c["pool.flushes"] += float64(s.Flushes)
		c["pool.prefetch_issued"] += float64(s.PrefetchIssued)
		c["pool.prefetch_hit"] += float64(s.PrefetchHit)
		c["pool.prefetch_wasted"] += float64(s.PrefetchWasted)
	}
	ls := v.e.Locks.StatsSnapshot()
	c["lock.grants"], c["lock.waits"], c["lock.deadlocks"] = float64(ls.Grants), float64(ls.Waits), float64(ls.Deadlocks)
	appends, _ := v.e.Log.Stats()
	requests, _ := v.e.Log.GroupCommitStats()
	ps := v.e.Log.PipelineStatsSnapshot()
	c["wal.appends"], c["wal.force_requests"] = float64(appends), float64(requests)
	c["wal.write_rounds"], c["wal.sync_rounds"] = float64(ps.WriteRounds), float64(ps.SyncRounds)
	c["wal.overlaps"], c["wal.sync_nanos"] = float64(ps.Overlaps), float64(ps.SyncNanos)
	ws, ds := v.e.FileStats()
	c["wal.bytes_persisted"], c["wal.fsyncs"] = float64(ws.BytesPersisted), float64(ws.Fsyncs)
	c["wal.segments_created"], c["wal.segments_recycled"] = float64(ws.SegmentsCreated), float64(ws.SegmentsRecycled)
	for _, d := range ds {
		c["disk.pages_written"] += float64(d.PagesWritten)
		c["disk.bytes_written"] += float64(d.BytesWritten)
		c["disk.fsyncs"] += float64(d.Fsyncs)
		c["disk.checksum_fails"] += float64(d.ChecksumFails)
	}
	switch {
	case v.core != nil:
		readAtomics(c, "tree.", &v.core.Stats)
	case v.tsb != nil:
		readAtomics(c, "tree.", &v.tsb.Stats)
	default:
		readAtomics(c, "tree.", &v.sp.Stats)
	}
	g := v.gov.Stats()
	c["maint.admits"], c["maint.throttled"] = float64(g.Admits), float64(g.Throttled)
	c["maint.wait_ms"] = float64(g.WaitTotal) / 1e6
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c["mem.mallocs"], c["mem.alloc_bytes"] = float64(m.Mallocs), float64(m.TotalAlloc)
	return c
}

// physicalBytes is what the engine has written to its files so far: WAL
// bytes persisted plus page-file bytes written.
func (c counters) physicalBytes() float64 { return c["wal.bytes_persisted"] + c["disk.bytes_written"] }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics turns the counter delta d of an untraced phase, the
// phase's own op counts, and the gauges read at its end into the C
// metrics.
func (v *env) counterMetrics(m map[string]float64, d counters, ph *phaseResult) {
	ops, kops := float64(ph.succeeded), float64(ph.succeeded)/1000
	var commits float64 // every successful write op is one committed transaction
	for k, n := range ph.byKind {
		if opInfo[k].class == classWrite {
			commits += float64(n)
		}
	}
	phaseMetrics(m, ph)

	m["lock.grants_per_op"] = ratio(d["lock.grants"], ops)
	m["lock.waits_per_kop"] = ratio(d["lock.waits"], kops)
	m["lock.deadlocks_per_kop"] = ratio(d["lock.deadlocks"], kops)
	m["lock.pending_deps"] = float64(v.e.Locks.PendingDeps())

	m["wal.appends_per_op"] = ratio(d["wal.appends"], ops)
	m["wal.bytes_per_op"] = ratio(d["wal.bytes_persisted"], ops)
	m["wal.force_requests_per_commit"] = ratio(d["wal.force_requests"], commits)
	m["wal.overlap_ratio"] = ratio(d["wal.overlaps"], d["wal.write_rounds"])
	m["wal.segments_created"] = d["wal.segments_created"]
	m["wal.segments_recycled"] = d["wal.segments_recycled"]
	if d["wal.fsyncs"] > 0 { // under SyncNever the sync stage runs but syncs nothing
		m["wal.commits_per_sync_round"] = ratio(commits, d["wal.sync_rounds"])
		m["wal.fsyncs_per_commit"] = ratio(d["wal.fsyncs"], commits)
		m["wal.fsync_us_mean"] = ratio(d["wal.sync_nanos"], d["wal.sync_rounds"]) / 1e3
	}

	m["storage.pool_hit_ratio"] = ratio(d["pool.hits"], d["pool.hits"]+d["pool.misses"])
	m["storage.pool_misses_per_kop"] = ratio(d["pool.misses"], kops)
	m["storage.pool_evictions_per_kop"] = ratio(d["pool.evictions"], kops)
	m["storage.pool_flushes_per_kop"] = ratio(d["pool.flushes"], kops)
	m["storage.prefetch_hit_ratio"] = ratio(d["pool.prefetch_hit"], d["pool.prefetch_issued"])
	m["storage.prefetch_wasted_ratio"] = ratio(d["pool.prefetch_wasted"], d["pool.prefetch_issued"])
	m["storage.disk_pages_written_per_kop"] = ratio(d["disk.pages_written"], kops)
	m["storage.disk_fsyncs"] = d["disk.fsyncs"]
	m["storage.checksum_fails"] = d["disk.checksum_fails"]
	if sp, err := v.e.Store(storeID).SpaceStats(); err == nil {
		m["storage.pages_free"] = float64(sp.FreeLen)
		m["storage.pages_allocated"] = float64(sp.Next) - float64(sp.FreeLen)
	}

	t := func(field string) float64 { return d["tree."+field] }
	optimistic := ratio(t("OptimisticHits"), t("OptimisticHits")+t("OptimisticRetries")+t("OptimisticFallbacks"))
	switch {
	case v.core != nil:
		m["core.leaf_splits_per_kop"] = ratio(t("LeafSplits"), kops)
		m["core.index_splits_per_kop"] = ratio(t("IndexSplits"), kops)
		m["core.restarts_per_kop"] = ratio(t("Restarts"), kops)
		m["core.side_traversals_per_kop"] = ratio(t("SideTraversals"), kops)
		m["core.optimistic_hit_ratio"] = optimistic
		m["core.optimistic_fallbacks_per_kop"] = ratio(t("OptimisticFallbacks"), kops)
		m["core.posts_performed_ratio"] = ratio(t("PostsPerformed"), t("PostsScheduled"))
		m["core.consolidations_per_kop"] = ratio(t("Consolidations"), kops)
		m["core.move_lock_waits_per_kop"] = ratio(t("MoveLockWaits"), kops)
		// Bucket i of the utilisation histogram holds the leaves whose
		// fill is in [i/8, (i+1)/8); bucket 8 the full ones.
		var leaves, fill float64
		for i := range v.core.Stats.UtilHist {
			n := float64(v.core.Stats.UtilHist[i].Load())
			leaves += n
			fill += n * min(1, (float64(i)+0.5)/8)
		}
		m["core.leaf_util_mean"] = ratio(fill, leaves)
	case v.tsb != nil:
		m["tsb.time_splits_per_kop"] = ratio(t("TimeSplits"), kops)
		m["tsb.key_splits_per_kop"] = ratio(t("KeySplits"), kops)
		m["tsb.hist_sib_walks_per_kop"] = ratio(t("HistSibWalks"), kops)
		m["tsb.snapshot_hist_walks_per_kget"] = ratio(t("SnapshotHistWalks"), t("SnapshotGets")/1000)
		m["tsb.optimistic_hit_ratio"] = optimistic
		m["tsb.restarts_per_kop"] = ratio(t("Restarts"), kops)
		m["tsb.gc_reclaimed_versions_per_put"] = ratio(t("GCReclaimedVersions"), t("Puts"))
		m["tsb.gc_freed_pages"] = t("GCFreedPages")
	default:
		m["spatial.data_splits_per_kop"] = ratio(t("DataSplits"), kops)
		m["spatial.clipped_terms_per_kop"] = ratio(t("ClippedTerms"), kops)
		m["spatial.side_traversals_per_kop"] = ratio(t("SideTraversals"), kops)
		m["spatial.optimistic_hit_ratio"] = optimistic
		m["spatial.restarts_per_kop"] = ratio(t("Restarts"), kops)
		m["spatial.results_per_region_query"] = ratio(float64(ph.results), float64(ph.byKind[opRegionQuery]))
	}

	m["maint.admits"] = d["maint.admits"]
	m["maint.throttled"] = d["maint.throttled"]
	m["maint.wait_ms_total"] = d["maint.wait_ms"]

	m["engine.allocs_per_op"] = ratio(d["mem.mallocs"], ops)
	m["engine.alloc_bytes_per_op"] = ratio(d["mem.alloc_bytes"], ops)
}

// phaseMetrics reports what a client sees of a measured phase: throughput,
// the share of failed ops, and each class's latency percentiles.
func phaseMetrics(m map[string]float64, ph *phaseResult) {
	m["throughput_ops_s"] = ph.throughput()
	m["failed_ops_ratio"] = ratio(float64(ph.failedTotal()), float64(ph.attempted))
	for c := opClass(0); c < numClasses; c++ {
		if ph.lat[c].n > 0 {
			latencyMetrics(m, c, &ph.lat[c])
		}
	}
}

// latencyMetrics reports one class's median and 99th percentile, over
// every op of a phase.
func latencyMetrics(m map[string]float64, c opClass, h *hist) {
	m[classNames[c]+"_p50_us"] = h.quantile(0.5) / 1e3
	m[classNames[c]+"_p99_us"] = h.quantile(0.99) / 1e3
}

// spanMetrics turns the traced phase's spans into the S metrics and the
// span-level shares of operation time.
func (v *env) spanMetrics(m map[string]float64, ts *traceSummary) {
	p50 := func(n spanName) float64 { return ts.hist[n].quantile(0.5) }
	tree := func(k opKind) float64 { return p50(spTree + spanName(k)) }
	m["txn.begin_ns"] = p50(spBegin)
	m["txn.commit_us_p50"] = p50(spCommit) / 1e3
	m["txn.commit_us_p99"] = ts.hist[spCommit].quantile(0.99) / 1e3
	m["txn.abort_count"] = float64(ts.hist[spAbort].n)
	m["txn.snapshot_begin_release_ns"] = p50(spSnapshotBegin) + p50(spSnapshotRelease)
	switch {
	case v.core != nil:
		m["core.search_ns"] = tree(opSearch)
		m["core.update_us"] = tree(opUpdate) / 1e3
		m["core.insert_us"] = tree(opInsert) / 1e3
		m["core.delete_us"] = tree(opDelete) / 1e3
		m["core.scan_us"] = tree(opRangeScan) / 1e3
	case v.tsb != nil:
		m["tsb.put_us"] = tree(opPut) / 1e3
		m["tsb.snapshot_get_ns"] = tree(opSnapshotGet)
		m["tsb.get_asof_us"] = tree(opGetAsOf) / 1e3
		m["tsb.snapshot_scan_us"] = tree(opSnapshotScan) / 1e3
	default:
		m["spatial.insert_us"] = tree(opSpatialInsert) / 1e3
		m["spatial.search_ns"] = tree(opSpatialSearch)
		m["spatial.region_query_us"] = tree(opRegionQuery) / 1e3
	}
	m["engine.checkpoint_ms"] = ts.hist[spCheckpoint].mean() / 1e6
	m["engine.checkpoint_count"] = float64(ts.hist[spCheckpoint].n)

	var treeSpans []spanName
	for k := opKind(0); k < numOpKinds; k++ {
		treeSpans = append(treeSpans, spTree+spanName(k))
	}
	m["engine.attr_commit_share"] = ts.share(spCommit)
	m["engine.attr_tree_share"] = ts.share(treeSpans...)
	m["engine.attr_txn_other_share"] = ts.share(spBegin, spAbort, spSnapshotBegin, spSnapshotRelease)
	m["engine.driver_self_share"] = ratio(float64(ts.self[spOp]), float64(ts.total[spOp]))
}

// attributionMetrics splits the tree calls' share of operation time by
// unit cost x count: what the lock manager, WAL appends and pool misses
// inside those calls should cost, and the residual — descent, latching and
// leaf work — that only spans inside the program could split further.
func attributionMetrics(m map[string]float64, meanOpNs float64) {
	perOp := func(unitNs, perOp float64) float64 { return ratio(unitNs*perOp, meanOpNs) }
	m["engine.attr_lock_share"] = perOp(m["lock.lock_release_ns"], m["lock.grants_per_op"])
	m["engine.attr_wal_append_share"] = perOp(m["wal.append_ns"], m["wal.appends_per_op"])
	m["engine.attr_pool_miss_share"] = perOp(m["storage.fetch_miss_us"]*1e3, m["storage.pool_misses_per_kop"]/1e3)
	m["engine.attr_residual_share"] = m["engine.attr_tree_share"] - m["engine.attr_lock_share"] -
		m["engine.attr_wal_append_share"] - m["engine.attr_pool_miss_share"]
}

// recoveryMetrics reports one restart.
func recoveryMetrics(m map[string]float64, rt restartTimes) {
	st := rt.stats
	// AnalyzeAndRedo is one call from outside: recovery.Stats gives the
	// analysis time, and the rest of the call counts as redo, so that the
	// five phases add up to restart_s (less the first read).
	m["restart_s"] = rt.total()
	m["recovery.wal_open_ms"] = rt.walOpen * 1e3
	m["recovery.analysis_ms"] = st.AnalysisTime.Seconds() * 1e3
	m["recovery.redo_ms"] = (rt.analyzeRedo - st.AnalysisTime.Seconds()) * 1e3
	m["recovery.undo_ms"] = rt.undo * 1e3
	m["recovery.tree_open_ms"] = rt.treeOpen * 1e3
	m["recovery.records_analyzed"] = float64(st.AnalyzedRecords)
	m["recovery.records_redone"] = float64(st.RedoneRecords)
	m["recovery.redo_skipped"] = float64(st.RedoSkipped)
	m["recovery.loser_txns"] = float64(st.LoserTxns)
	m["recovery.redo_rate_rec_s"] = st.RedoRate()
	if st.PlanSpilled {
		m["recovery.plan_spilled"] = 1
	}
}
