package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

const (
	// setupRuns set-ups are made per run and the median time reported; the
	// last one is the engine the run measures.
	setupRuns = 3
	// restartRuns restarts are timed per run and the fastest reported.
	restartRuns = 3
	// Shares of -seconds: the unrecorded warm-up, and each single-class tail
	// phase that stands in for a class the workload's mix lacks.
	warmupShare = 0.2
	tailShare   = 0.1
)

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// setUpMedian sets the workload up setupRuns times under root, keeps the
// last engine and returns the median set-up time.
func setUpMedian(w *workload, root string, n uint64) (*env, float64, error) {
	var v *env
	times := make([]float64, setupRuns)
	for i := range times {
		dir := filepath.Join(root, fmt.Sprintf("set-%d", i))
		var err error
		if v, times[i], err = setUp(w, dir, n); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		if i < setupRuns-1 {
			if err := v.e.Close(); err != nil {
				return nil, 0, fmt.Errorf("set-up close: %w", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, 0, err
			}
		}
	}
	return v, median(times), nil
}

// unitOf looks a metric's unit up in the two tables.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("metric " + name + " is not in the tables")
}

func (rep *report) set(name string, value float64) {
	rep.Metrics[name] = metricValue{Value: value, Unit: unitOf(name)}
}

// setUnbounded records, in an untraced run, the end-to-end measurements
// that carry no bound and so stay out of the result line.
func (rep *report) setUnbounded(m map[string]float64) {
	for name, value := range m {
		rep.Unbounded[name] = metricValue{Value: value, Unit: unitOf(name)}
	}
}

// count adds a phase's attempted and failed ops to the run's totals.
func (rep *report) count(ph *phaseResult) {
	rep.Attempted += ph.attempted
	rep.Failed += ph.failedTotal()
	for i, n := range ph.failed {
		if n > 0 {
			rep.FailedByKind[failureKinds[i].name] += n
		}
	}
}

func (rep *report) check(ok bool, format string, args ...any) {
	if !ok {
		rep.FailedChecks = append(rep.FailedChecks, fmt.Sprintf(format, args...))
	}
}

// tail runs a short phase of class c alone. A workload whose mix lacks a
// class gets one, so that every workload reports every metric: a write
// tail gives a read-only mix its write amplification, and in a traced run
// every missing class gets its latencies.
func (r *run) tail(v *env, cfg config, c opClass, rep *report) (*phaseResult, error) {
	ph, err := r.runPhase(v, phaseSpec{
		name: "tail-" + classNames[c], mix: v.w.tailMix(c),
		dur: seconds(cfg.seconds * tailShare), seed: cfg.seed*16 + 8 + int64(c),
	})
	if err == nil {
		rep.count(ph)
	}
	return ph, err
}

// liveHeapMB is the heap in use after a collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// liveRecords is how many records the tree must hold: the preload plus
// what the clients inserted and have not deleted.
func (v *env) liveRecords() int {
	n := int(v.n)
	for _, c := range v.clientSet() {
		n += int(c.head - c.tail)
	}
	return n
}

// liveUserBytes is the key and value bytes the store is asked to keep: the
// live records, and on the TSB tree every version ever written — history is
// what that tree is for (version GC may drop some, which then shows as
// less space per byte).
func (v *env) liveUserBytes() int64 {
	if v.tsb == nil {
		return int64(v.liveRecords()) * userBytesPerWrite
	}
	n := int64(v.n) * userBytesPerWrite
	for _, c := range v.clientSet() {
		n += c.userBytes
	}
	return n
}

// checkTree runs the tree's Verify and a full scan: the record count must
// be the preload plus acked inserts minus acked deletes, and every value
// must pass the self-describing check. want, when non-nil, also fixes the
// sequence number each listed record must carry.
func (v *env) checkTree(rep *report, when string, want map[uint64]uint64) error {
	v.drain()
	records, err := v.verify()
	if err != nil {
		rep.check(false, "%s: Verify: %v", when, err)
		return nil
	}
	live := v.liveRecords()
	rep.check(records == live, "%s: Verify counts %d records, want %d", when, records, live)
	scanned, bad, stale := 0, 0, 0
	err = v.scanAll(func(id uint64, val []byte) {
		scanned++
		if !valueOK(val, id) {
			bad++
		} else if seq, ok := want[id]; want != nil && (!ok || valueSeq(val) != seq) {
			stale++
		}
	})
	if err != nil {
		return fmt.Errorf("%s: full scan: %w", when, err)
	}
	rep.check(scanned == live, "%s: full scan returns %d records, want %d", when, scanned, live)
	rep.check(bad == 0, "%s: %d records fail the value check", when, bad)
	rep.check(stale == 0, "%s: %d records do not hold their last acknowledged value", when, stale)
	return nil
}

// closeTimed closes v's engine and returns the milliseconds that took.
func closeTimed(v *env) (float64, error) {
	t := time.Now()
	if err := v.e.Close(); err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}
	return float64(time.Since(t)) / 1e6, nil
}

// restarts times runs restarts of v's closed directory. The tree is
// checked again after the last one, whose phase times are returned too.
func restarts(v *env, rep *report, runs int) (totals []float64, last restartTimes, err error) {
	for i := 0; i < runs; i++ {
		v2, rt, err := openEnv(v.w, v.dir, v.n, false)
		if err != nil {
			return nil, rt, fmt.Errorf("restart: %w", err)
		}
		totals, last = append(totals, rt.total()), rt
		if i == runs-1 {
			for j, c := range v2.clientSet() {
				c.head, c.tail = v.cl[j].head, v.cl[j].tail
			}
			if err := v2.checkTree(rep, "after restart", nil); err != nil {
				return nil, rt, err
			}
		}
		if err := v2.e.Close(); err != nil {
			return nil, rt, fmt.Errorf("close after restart: %w", err)
		}
	}
	return totals, last, nil
}

// closeAndMeasure ends an untraced run: Close, space amplification, and
// the fastest of restartRuns restarts (a restart of one closed directory
// does the same work every time, so what varies is the sandbox).
func closeAndMeasure(v *env, rep *report, unbounded map[string]float64) error {
	if _, err := closeTimed(v); err != nil {
		return err
	}
	size, err := dirBytes(v.dir)
	if err != nil {
		return err
	}
	rep.set("space_amp", float64(size)/float64(v.liveUserBytes()))
	totals, _, err := restarts(v, rep, restartRuns)
	if err != nil {
		return err
	}
	unbounded["restart_s"] = slices.Min(totals)
	rep.setUnbounded(unbounded)
	return nil
}

// measure runs one workload and fills its report: the end-to-end metrics
// with tracing off, or the per-layer metrics of a traced run.
func (r *run) measure(w *workload, cfg config, dataDir string) (*report, error) {
	rep := &report{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
		FailedByKind: map[string]int64{}, LatencySamples: map[string]int64{},
		Unbounded: map[string]metricValue{},
		result:    result{Metrics: map[string]metricValue{}},
	}
	n := w.recordsAt(cfg.scale)
	var err error
	switch {
	case w.crash:
		err = r.measureCrash(w, cfg, dataDir, n, rep)
	case cfg.trace:
		err = r.measureLayers(w, cfg, dataDir, n, rep)
	default:
		err = r.measureEndToEnd(w, cfg, dataDir, n, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.Correct = len(rep.FailedChecks) == 0
	return rep, nil
}

// warmUp runs the measured mix unrecorded, so that caches fill and lazy
// set-up finishes before anything is timed.
func (r *run) warmUp(v *env, cfg config, rep *report) error {
	warm, err := r.runPhase(v, phaseSpec{name: "warm-up", mix: v.w.mix, dur: seconds(cfg.seconds * warmupShare), seed: cfg.seed * 16})
	if err == nil {
		rep.count(warm)
	}
	return err
}

func (r *run) measureEndToEnd(w *workload, cfg config, dataDir string, n uint64, rep *report) error {
	v, setupS, err := setUpMedian(w, dataDir, n)
	if err != nil {
		return err
	}
	rep.set("setup_s", setupS)
	if err := r.warmUp(v, cfg, rep); err != nil {
		return err
	}

	before := v.readCounters()
	main, err := r.runPhase(v, phaseSpec{name: "measured", mix: w.mix, dur: seconds(cfg.seconds), seed: cfg.seed*16 + 1})
	if err != nil {
		return err
	}
	rep.count(main)
	unbounded := map[string]float64{}
	phaseMetrics(unbounded, main)
	userBytes := main.userBytes
	if !w.mix.hasClass(classWrite) {
		ph, err := r.tail(v, cfg, classWrite, rep)
		if err != nil {
			return err
		}
		userBytes += ph.userBytes
		latencyMetrics(unbounded, classWrite, &ph.lat[classWrite])
	}
	rep.set("live_heap_mb", liveHeapMB())

	// Write amplification closes with a flush and a checkpoint, so that
	// every page dirtied in the interval has been written at least once.
	if _, err := v.e.FlushAll(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	if _, err := v.e.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	written := v.readCounters().physicalBytes() - before.physicalBytes()
	rep.set("write_amp", written/float64(userBytes))

	if err := v.checkTree(rep, "after the measured phase", nil); err != nil {
		return err
	}
	return closeAndMeasure(v, rep, unbounded)
}

// measureLayers is the traced run: an untraced half for the counter
// deltas, a traced half for the spans, then the unit-cost probes.
func (r *run) measureLayers(w *workload, cfg config, dataDir string, n uint64, rep *report) error {
	m := map[string]float64{}
	v, _, err := setUp(w, filepath.Join(dataDir, "set"), n)
	if err != nil {
		return err
	}
	if err := r.warmUp(v, cfg, rep); err != nil {
		return err
	}
	_, traced, err := r.tracedPair(v, cfg, 0, m, rep)
	if err != nil {
		return err
	}
	if err := r.tailLatencies(v, cfg, m, rep); err != nil {
		return err
	}
	if err := probes(v, m, dataDir); err != nil {
		return err
	}
	attributionMetrics(m, traced.trace.hist[spOp].mean())
	if err := v.checkTree(rep, "after the probes", nil); err != nil {
		return err
	}
	return closeAndReport(v, rep, m)
}

// closeAndReport ends a traced run: Close and one restart, both reported
// as layer metrics, then the whole per-layer list.
func closeAndReport(v *env, rep *report, m map[string]float64) (err error) {
	if m["engine.close_ms"], err = closeTimed(v); err != nil {
		return err
	}
	_, rt, err := restarts(v, rep, 1)
	if err != nil {
		return err
	}
	recoveryMetrics(m, rt)
	rep.setLayerMetrics(m)
	return nil
}

// tracedPair runs the measured mix twice, untraced then traced, each for
// half of -seconds (or opsPerClient ops), derives the C and S metrics and
// writes the trace file.
func (r *run) tracedPair(v *env, cfg config, opsPerClient int, m map[string]float64, rep *report) (untraced, traced *phaseResult, err error) {
	half := phaseSpec{name: "untraced", mix: v.w.mix, dur: seconds(cfg.seconds / 2), opsPerClient: opsPerClient, seed: cfg.seed*16 + 1}
	before := v.readCounters()
	if untraced, err = r.runPhase(v, half); err != nil {
		return nil, nil, err
	}
	v.counterMetrics(m, v.readCounters().sub(before), untraced)
	half.name, half.traced, half.seed = "traced", true, half.seed+1
	if traced, err = r.runPhase(v, half); err != nil {
		return nil, nil, err
	}
	v.spanMetrics(m, traced.trace)
	m["engine.trace_overhead_ratio"] = ratio(untraced.throughput(), traced.throughput())
	if err := writeChromeTrace(filepath.Join(outDir, "trace-"+v.w.name+".json"), traced.tracers); err != nil {
		return nil, nil, err
	}
	for c := opClass(0); c < numClasses; c++ {
		if n := untraced.lat[c].n; n > 0 {
			rep.LatencySamples[classNames[c]] = n
		}
	}
	rep.count(untraced)
	rep.count(traced)
	return untraced, traced, nil
}

// tailLatencies fills in the latencies of each class the mix lacks.
func (r *run) tailLatencies(v *env, cfg config, m map[string]float64, rep *report) error {
	for c := opClass(0); c < numClasses; c++ {
		if v.w.mix.hasClass(c) {
			continue
		}
		ph, err := r.tail(v, cfg, c, rep)
		if err != nil {
			return err
		}
		latencyMetrics(m, c, &ph.lat[c])
		rep.LatencySamples[classNames[c]] = ph.lat[c].n
	}
	return nil
}

// probes runs the unit-cost probes: latch and WAL on scratch instances,
// lock manager and buffer pool on the workload's live engine, quiesced.
func probes(v *env, m map[string]float64, scratch string) error {
	v.drain()
	if _, err := v.e.FlushAll(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	latchProbes(m)
	lockProbes(m, v.e.Locks)
	if err := walProbes(m, scratch, v.w.sync); err != nil {
		return err
	}
	return storageProbes(m, v.e.Store(storeID).Pool)
}

// setLayerMetrics reports every per-layer metric; one that does not apply
// to this workload (another tree's, say) reads 0.
func (rep *report) setLayerMetrics(m map[string]float64) {
	for _, d := range perLayerMetrics {
		rep.set(d.name, m[d.name])
	}
	for name := range m {
		if _, ok := rep.Metrics[name]; !ok {
			panic("metric " + name + " is not in the tables")
		}
	}
}
