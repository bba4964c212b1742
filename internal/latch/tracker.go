package latch

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Rank orders latchable resources for deadlock avoidance (§4.1.1): if every
// action acquires latches in non-decreasing Rank order, the potential-delay
// graph stays acyclic without being materialized. Index trees rank parent
// nodes before children, containing nodes before the contained nodes their
// side pointers reference, and space-management information last (highest).
type Rank uint64

// Tracker is an optional per-operation order checker. Each tree operation
// that participates in checking creates one Tracker (they are not shared
// between goroutines) and reports acquisitions and releases to it. When
// Enabled is false every method is a cheap no-op, so production paths can
// keep the calls in place.
type Tracker struct {
	// Enabled turns checking on. The zero Tracker is disabled.
	Enabled bool
	held    []trackedHold
}

type trackedHold struct {
	l    *Latch
	rank Rank
	mode Mode
}

// Acquired records that the operation now holds l at rank in mode, and
// panics if the acquisition violates resource ordering. Equal ranks are
// permitted (latch coupling holds parent and child briefly; the child's
// rank must be >= the parent's).
func (t *Tracker) Acquired(l *Latch, rank Rank, mode Mode) {
	if t == nil || !t.Enabled {
		return
	}
	for _, h := range t.held {
		if h.rank > rank {
			panic(fmt.Sprintf("latch: order violation: acquiring rank %d while holding rank %d", rank, h.rank))
		}
	}
	t.held = append(t.held, trackedHold{l, rank, mode})
}

// Promoted records a U->X promotion of l and panics if the operation
// holds ANY latch ranked above l — the §4.1.1 rule: "the promotion
// request is not made while the requester holds latches on higher ordered
// resources". The rule is load-bearing: promotion waits for S holders to
// drain, and a coupled reader drains by acquiring the next latch DOWN the
// order — if the promoter already holds that latch (in any conflicting
// mode), reader and promoter wait on each other forever. Multi-node
// structure changes therefore promote strictly top-down, finishing each
// node's promotion before latching the next.
func (t *Tracker) Promoted(l *Latch) {
	if t == nil || !t.Enabled {
		return
	}
	for i := range t.held {
		if t.held[i].l == l {
			if t.held[i].mode != U {
				panic("latch: Promoted on a non-U hold")
			}
			for _, h := range t.held {
				if h.rank > t.held[i].rank {
					panic("latch: promotion while holding a higher-ranked latch")
				}
			}
			t.held[i].mode = X
			return
		}
	}
	panic("latch: Promoted on unheld latch")
}

// Released records that the operation dropped its hold on l.
func (t *Tracker) Released(l *Latch) {
	if t == nil || !t.Enabled {
		return
	}
	for i := range t.held {
		if t.held[i].l == l {
			t.held = append(t.held[:i], t.held[i+1:]...)
			return
		}
	}
	panic("latch: Released on unheld latch")
}

// Holds reports whether the operation holds l in any mode; false when
// checking is off, as it knows nothing then.
func (t *Tracker) Holds(l *Latch) bool {
	if t == nil || !t.Enabled {
		return false
	}
	for _, h := range t.held {
		if h.l == l {
			return true
		}
	}
	return false
}

// Reset prepares the tracker for reuse by a new operation, keeping the
// held-slice capacity so pooled operation contexts stay allocation-free.
func (t *Tracker) Reset(enabled bool) {
	t.Enabled = enabled
	t.held = t.held[:0]
}

// HeldCount returns the number of holds currently recorded.
func (t *Tracker) HeldCount() int {
	if t == nil {
		return 0
	}
	return len(t.held)
}

// AssertNoneHeld panics if the operation still records any holds. Tree
// operations call this on exit to catch latch leaks in tests.
func (t *Tracker) AssertNoneHeld() {
	if t == nil || !t.Enabled {
		return
	}
	if len(t.held) != 0 {
		modes := make([]string, len(t.held))
		for i, h := range t.held {
			modes[i] = fmt.Sprintf("rank=%d mode=%v", h.rank, h.mode)
		}
		sort.Strings(modes)
		panic(fmt.Sprintf("latch: %d latches leaked: %v", len(t.held), modes))
	}
}

// HoldTimer measures latch hold durations for experiment T6 (atomic
// actions above the leaf level are short). It is safe for concurrent use.
type HoldTimer struct {
	mu      sync.Mutex
	samples []time.Duration
}

// Observe records one hold duration.
func (h *HoldTimer) Observe(d time.Duration) {
	h.mu.Lock()
	h.samples = append(h.samples, d)
	h.mu.Unlock()
}

// Snapshot returns a copy of all recorded durations.
func (h *HoldTimer) Snapshot() []time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]time.Duration, len(h.samples))
	copy(out, h.samples)
	return out
}

// Percentile returns the p-th percentile (0..100) of recorded hold times,
// or zero if none were recorded.
func (h *HoldTimer) Percentile(p float64) time.Duration {
	s := h.Snapshot()
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p / 100 * float64(len(s)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// Count returns how many holds were recorded.
func (h *HoldTimer) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}
