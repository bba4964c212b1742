// Package maint paces background structure maintenance — node
// consolidation, history reclamation, free-space recycling — against
// foreground load. The trees' lazy-completion workers ask the shared
// Governor for admission before each maintenance task; the governor
// spends a per-second budget of tasks, stretched when the buffer pool is
// under replacement pressure (the same signal the clock hands chase) and
// suspended entirely when the task queue grows past its high-water mark:
// a deep queue means the utilization signal is real and falling behind,
// at which point delaying merges only makes the backlog (and descent
// paths over half-empty nodes) worse.
package maint

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultHighWater is the queue depth above which pacing is bypassed.
const DefaultHighWater = 64

// maxPause bounds one admission wait so drains and shutdowns never stall
// behind the pacer.
const maxPause = 50 * time.Millisecond

// Governor is a token-bucket admission controller for maintenance work.
// The zero value and the nil pointer are valid, unpaced governors.
type Governor struct {
	budget int            // tasks per second; <= 0 means unpaced
	high   int            // queue depth that bypasses pacing
	press  func() float64 // foreground pressure 0..1; may be nil

	mu     sync.Mutex
	tokens float64
	last   time.Time

	admits    atomic.Int64
	throttled atomic.Int64
	bypasses  atomic.Int64
	waitNanos atomic.Int64
	depth     atomic.Int64
	maxDepth  atomic.Int64
}

// New returns a governor admitting at most budgetPerSec maintenance tasks
// per second (<= 0 for unpaced), bypassing pacing when the reported queue
// depth reaches highWater (<= 0 for DefaultHighWater). pressure, if
// non-nil, reports foreground pool pressure in [0, 1]; admission slows by
// up to 4x as it approaches 1.
func New(budgetPerSec, highWater int, pressure func() float64) *Governor {
	if highWater <= 0 {
		highWater = DefaultHighWater
	}
	return &Governor{budget: budgetPerSec, high: highWater, press: pressure, last: time.Now()}
}

// Admit blocks (briefly, bounded) until the caller may run one
// maintenance task. Safe on a nil governor.
func (g *Governor) Admit(queueDepth int) {
	if g == nil {
		return
	}
	g.noteDepth(queueDepth)
	g.admits.Add(1)
	if g.budget <= 0 {
		return
	}
	if queueDepth >= g.high {
		g.bypasses.Add(1)
		return
	}
	rate := float64(g.budget)
	if g.press != nil {
		if p := g.press(); p > 0 {
			if p > 1 {
				p = 1
			}
			rate /= 1 + 3*p
		}
	}
	g.mu.Lock()
	now := time.Now()
	g.tokens += now.Sub(g.last).Seconds() * rate
	g.last = now
	if g.tokens > float64(g.budget) {
		g.tokens = float64(g.budget) // at most one second of burst
	}
	if g.tokens >= 1 {
		g.tokens--
		g.mu.Unlock()
		return
	}
	wait := time.Duration((1 - g.tokens) / rate * float64(time.Second))
	g.tokens = 0
	g.mu.Unlock()
	if wait > maxPause {
		wait = maxPause
	}
	g.throttled.Add(1)
	g.waitNanos.Add(int64(wait))
	time.Sleep(wait)
}

func (g *Governor) noteDepth(d int) {
	g.depth.Store(int64(d))
	for {
		m := g.maxDepth.Load()
		if int64(d) <= m || g.maxDepth.CompareAndSwap(m, int64(d)) {
			return
		}
	}
}

// Stats is a snapshot of the governor's pacing behaviour.
type Stats struct {
	Admits     int64
	Throttled  int64
	Bypasses   int64
	WaitTotal  time.Duration
	QueueDepth int64
	MaxDepth   int64
}

// Stats snapshots the counters. Safe on a nil governor.
func (g *Governor) Stats() Stats {
	if g == nil {
		return Stats{}
	}
	return Stats{
		Admits:     g.admits.Load(),
		Throttled:  g.throttled.Load(),
		Bypasses:   g.bypasses.Load(),
		WaitTotal:  time.Duration(g.waitNanos.Load()),
		QueueDepth: g.depth.Load(),
		MaxDepth:   g.maxDepth.Load(),
	}
}
