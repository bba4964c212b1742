package engine

import (
	"sync/atomic"
	"time"

	"repro/internal/storage"
	"repro/internal/wal"
)

// maxWriteBackPerTick bounds the pages one tick writes per pool, so a
// burst of newly due pages (a run of pages first dirtied together that
// leaves the window at once, say) is paced over a few ticks instead of
// monopolizing the device. It is also the batch — one log force — of a
// checkpoint's unlimited pass.
const maxWriteBackPerTick = 128

// writeBack is the redo-window rule's state, shared by its two callers:
// the background writer's tick and Engine.Checkpoint.
type writeBack struct {
	window  wal.LSN // the redo window in log bytes
	flushed atomic.Int64
	skipped atomic.Int64 // dirty pages a pass looked at and left in the window
	rearmed atomic.Int64 // pages whose flush failed and stay dirty for a later pass
}

// writeBackDue is the redo-window rule. The WAL protocol only requires
// that a page's log records reach stable storage before the page does —
// never that the page follow soon — so a dirty page is left alone until
// keeping it dirty costs something: its recLSN lags the log tail by more
// than the redo window. Such a page pins restart's redo start, and with
// it the live WAL segments, that far back. Nothing else makes a page due:
// a checkpoint's horizon follows the oldest recLSN, which this rule keeps
// within one window of the tail, so how often checkpoints run does not
// set how often pages are written, and restart's redo stays bounded by
// the window.
//
// A page updated many times inside the window is thus written once, not
// once per pass. A bounded pool needs no cleaning ahead of its clock: an
// eviction drops a dirty victim with a short chain instead of writing it
// (storage's write elision), and the rule writes that page when it falls
// due like any other. Each pool keeps its oldest dirty recLSN and dirty
// count incrementally, so a pass that finds every pool in budget — which
// it reports — does no per-frame work at all.
//
// At most limit pages per pool are written, in batches of
// maxWriteBackPerTick with one log force each. A batch that writes
// nothing ends its pool's pass, so a permanent write fault cannot spin
// an unlimited pass; the pages it leaves stay dirty and indexed, and a
// later pass finds them due again. pids is the caller's scratch.
func (e *Engine) writeBackDue(limit int, pids []storage.PageID) ([]storage.PageID, bool) {
	// A page is due once its recLSN falls below the cutoff.
	var cutoff wal.LSN
	if end := e.Log.EndLSN(); end > e.wb.window {
		cutoff = end - e.wb.window
	}
	idle := true
	for _, p := range e.Pools() {
		for left := limit; left > 0; {
			oldest, dirty := p.DirtyWatermark()
			if dirty == 0 || oldest >= cutoff {
				e.wb.skipped.Add(int64(dirty))
				break
			}
			idle = false
			n := min(left, maxWriteBackPerTick)
			pids = p.DirtyBelow(cutoff, n, pids[:0])
			flushed, failed, _ := p.FlushBatch(pids)
			e.wb.flushed.Add(int64(flushed))
			e.wb.rearmed.Add(int64(len(failed)))
			left -= n
			if flushed == 0 || left <= 0 {
				e.wb.skipped.Add(int64(max(0, dirty-flushed)))
				break
			}
		}
	}
	return pids, idle
}

// bgWriter applies the rule on a timer, maxWriteBackPerTick pages per
// pool at a time, and releases the in-memory log below what any live
// transaction could still roll back over (see Engine.trimLog).
type bgWriter struct {
	e        *Engine
	interval time.Duration

	ticks atomic.Int64
	idle  atomic.Int64 // ticks that found every pool in budget

	pids    []storage.PageID // tick-local scratch
	done    chan struct{}
	stopped chan struct{}
}

func startBgWriter(e *Engine, interval time.Duration) *bgWriter {
	w := &bgWriter{e: e, interval: interval,
		done: make(chan struct{}), stopped: make(chan struct{})}
	go w.run()
	return w
}

func (w *bgWriter) stop() {
	close(w.done)
	<-w.stopped
}

func (w *bgWriter) run() {
	defer close(w.stopped)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.done:
			return
		case <-t.C:
			w.tick()
		}
	}
}

func (w *bgWriter) tick() {
	w.ticks.Add(1)
	if w.e.Degraded() {
		return
	}
	w.e.trimLog()
	var idle bool
	if w.pids, idle = w.e.writeBackDue(maxWriteBackPerTick, w.pids); idle {
		w.idle.Add(1)
	}
}

// WriteBackStats is the write-back rule's and the log buffer's state:
// cumulative counters plus the LSN watermarks of this subsystem.
type WriteBackStats struct {
	Flushed         int64 // pages written by ticks and checkpoints under the rule
	Ticks           int64
	IdleTicks       int64 // ticks short-circuited: every pool within budget
	SkippedInWindow int64 // dirty pages a pass looked at and left unwritten, summed over passes
	Rearmed         int64 // failed flushes left for a later pass
	Elided          int   // dirty pages the pools hold elided now: dropped by an eviction, not yet written
	WindowBytes     uint64
	RedoWindow      uint64  // log end minus OldestDirty now; 0 with nothing dirty
	OldestDirty     wal.LSN // oldest dirty recLSN over all pools; NilLSN with nothing dirty
	LogBuffered     uint64  // bytes of log segments held in memory
	LogBufferFrom   wal.LSN // first LSN still readable from memory
	CheckpointLSN   wal.LSN // the master record's checkpoint anchor; NilLSN on a memory-backed engine
	RecycleHorizon  wal.LSN // the master record's horizon: the WAL files hold nothing below it
}

// WriteBackStats snapshots the write-back subsystem. The tick counters
// are zero when the writer is disabled; the watermarks are always live.
func (e *Engine) WriteBackStats() WriteBackStats {
	s := WriteBackStats{Flushed: e.wb.flushed.Load(), SkippedInWindow: e.wb.skipped.Load(),
		Rearmed: e.wb.rearmed.Load(), WindowBytes: uint64(e.wb.window)}
	if w := e.bg; w != nil {
		s.Ticks, s.IdleTicks = w.ticks.Load(), w.idle.Load()
	}
	s.CheckpointLSN, s.RecycleHorizon = e.Log.File().Watermarks()
	for _, p := range e.Pools() {
		if oldest, n := p.DirtyWatermark(); n > 0 && (s.OldestDirty == wal.NilLSN || oldest < s.OldestDirty) {
			s.OldestDirty = oldest
		}
		s.Elided += p.ElidedCount()
	}
	if s.OldestDirty != wal.NilLSN {
		s.RedoWindow = uint64(e.Log.EndLSN() - s.OldestDirty)
	}
	s.LogBuffered, s.LogBufferFrom = e.Log.BufferStats()
	return s
}
