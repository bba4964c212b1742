package engine

import (
	"sync/atomic"
	"time"

	"repro/internal/storage"
	"repro/internal/wal"
)

// maxWriteBackPerTick bounds the pages one tick writes per pool, so a
// burst of newly due pages (every pre-checkpoint page at once, say) is
// paced over a few ticks instead of monopolizing the device.
const maxWriteBackPerTick = 128

// bgWriter is the redo-window controller. The WAL protocol only requires
// that a page's log records reach stable storage before the page does —
// never that the page follow soon — so the writer leaves a dirty page
// alone until keeping it dirty costs something:
//
//   - its recLSN lags the log tail by more than the redo window (the page
//     pins restart's redo start, and with it the live WAL segments, that
//     far back);
//   - its recLSN predates the last checkpoint (writing it is what lets
//     the next checkpoint move the recycle horizon past this one); or
//   - its pool is bounded and more than half dirty (evictions would
//     otherwise pay the write-back in the foreground).
//
// A page updated many times inside the window is thus written once, not
// once per tick. Each pool keeps its oldest dirty recLSN and dirty count
// incrementally, so a tick that finds every pool in budget does no
// per-frame work at all. The tick also releases the in-memory log below
// what any live transaction could still roll back over (see
// Engine.trimLog).
type bgWriter struct {
	e        *Engine
	interval time.Duration
	window   wal.LSN // the redo window in log bytes

	target  atomic.Uint64 // last checkpoint: flush everything with recLSN below it
	flushed atomic.Int64
	ticks   atomic.Int64
	idle    atomic.Int64 // ticks that found every pool in budget
	skipped atomic.Int64 // dirty pages a tick looked at and left in the window
	rearmed atomic.Int64 // pages whose flush failed and stay dirty for a later tick

	pids    []storage.PageID // tick-local scratch
	done    chan struct{}
	stopped chan struct{}
}

func startBgWriter(e *Engine, interval time.Duration) *bgWriter {
	seg := e.Opts.SegmentSize
	if seg <= 0 {
		seg = wal.DefaultSegmentSize
	}
	w := &bgWriter{e: e, interval: interval,
		window: wal.LSN(wal.RedoWindowSegments * seg),
		done:   make(chan struct{}), stopped: make(chan struct{})}
	go w.run()
	return w
}

// noteCheckpoint records the latest checkpoint LSN: pages dirtied before
// it become due.
func (w *bgWriter) noteCheckpoint(lsn wal.LSN) { w.target.Store(uint64(lsn)) }

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
	// A page is due once its recLSN falls below the cutoff: out of the
	// window, or older than the last checkpoint.
	cutoff := wal.LSN(w.target.Load())
	if end := w.e.Log.EndLSN(); end > w.window && end-w.window > cutoff {
		cutoff = end - w.window
	}
	idle := true
	for _, p := range w.e.Pools() {
		oldest, dirty := p.DirtyWatermark()
		if dirty == 0 {
			continue
		}
		// A bounded pool more than half dirty gets its oldest pages
		// written down to half, whatever their age.
		excess := 0
		if c := p.Capacity(); c > 0 && dirty > c/2 {
			excess = dirty - c/2
		}
		if oldest >= cutoff && excess == 0 {
			w.skipped.Add(int64(dirty))
			continue
		}
		idle = false
		select {
		case <-w.done:
			return
		default:
		}
		w.pids = p.DirtyBelow(cutoff, maxWriteBackPerTick, w.pids[:0])
		if excess = min(excess, maxWriteBackPerTick); len(w.pids) < excess {
			// Fewer pages are due than the pool needs cleaned: take its
			// oldest excess pages instead (the due ones are among them).
			w.pids = p.DirtyBelow(^wal.LSN(0), excess, w.pids[:0])
		}
		// One log force covers the batch. A failed flush leaves its page
		// dirty and indexed, so a later tick finds it due again (or gives
		// up for good once the engine is degraded).
		flushed, failed, _ := p.FlushBatch(w.pids)
		w.flushed.Add(int64(flushed))
		w.rearmed.Add(int64(len(failed)))
		if left := dirty - flushed; left > 0 {
			w.skipped.Add(int64(left))
		}
	}
	if idle {
		w.idle.Add(1)
	}
}

// WriteBackStats is the background writer's and the log buffer's state:
// cumulative counters plus the LSN watermarks of this subsystem.
type WriteBackStats struct {
	Flushed         int64 // pages written by the writer
	Ticks           int64
	IdleTicks       int64 // ticks short-circuited: every pool within budget
	SkippedInWindow int64 // dirty pages ticks looked at and left unwritten, summed over ticks
	Rearmed         int64 // failed flushes left for a later tick
	WindowBytes     uint64
	RedoWindow      uint64  // log end minus OldestDirty now; 0 with nothing dirty
	OldestDirty     wal.LSN // oldest dirty recLSN over all pools; NilLSN with nothing dirty
	LogBuffered     uint64  // bytes of log segments held in memory
	LogBufferFrom   wal.LSN // first LSN still readable from memory
}

// WriteBackStats snapshots the write-back subsystem. The counters are
// zero when the writer is disabled; the watermarks are always live.
func (e *Engine) WriteBackStats() WriteBackStats {
	var s WriteBackStats
	if w := e.bg; w != nil {
		s.Flushed, s.Ticks, s.IdleTicks = w.flushed.Load(), w.ticks.Load(), w.idle.Load()
		s.SkippedInWindow, s.Rearmed = w.skipped.Load(), w.rearmed.Load()
		s.WindowBytes = uint64(w.window)
	}
	for _, p := range e.Pools() {
		if oldest, n := p.DirtyWatermark(); n > 0 && (s.OldestDirty == wal.NilLSN || oldest < s.OldestDirty) {
			s.OldestDirty = oldest
		}
	}
	if s.OldestDirty != wal.NilLSN {
		s.RedoWindow = uint64(e.Log.EndLSN() - s.OldestDirty)
	}
	s.LogBuffered, s.LogBufferFrom = e.Log.BufferStats()
	return s
}
