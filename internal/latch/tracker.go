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

// Tracker is one operation's record of the latches it holds — each
// hold's owner (the guarded resource, a *storage.Frame in the trees,
// compared by identity), rank and mode — checked against the §4.1.1
// ordering rules as it changes; the operation's atomic actions commit and
// undo under what it records (§4.3.1). It is not shared between
// goroutines. A nil Tracker records and holds nothing.
type Tracker struct {
	held []trackedHold
}

type trackedHold struct {
	owner any
	rank  Rank
	mode  Mode
}

// Acquired records that the operation now holds owner's latch at rank in
// mode, and panics if the acquisition violates resource ordering. Equal
// ranks are permitted (latch coupling holds parent and child briefly; the
// child's rank must be >= the parent's).
func (t *Tracker) Acquired(owner any, rank Rank, mode Mode) {
	if t == nil {
		return
	}
	for _, h := range t.held {
		if h.rank > rank {
			panic(fmt.Sprintf("latch: order violation: acquiring rank %d while holding rank %d", rank, h.rank))
		}
	}
	t.held = append(t.held, trackedHold{owner, rank, mode})
}

// Promoted records a U->X promotion of owner's latch and panics if the
// operation holds ANY latch ranked above it — the §4.1.1 rule: "the
// promotion request is not made while the requester holds latches on
// higher ordered resources". The rule is load-bearing: promotion waits
// for S holders to drain, and a coupled reader drains by acquiring the
// next latch DOWN the order — if the promoter already holds that latch
// (in any conflicting mode), reader and promoter wait on each other
// forever. Multi-node structure changes therefore promote strictly
// top-down, finishing each node's promotion before latching the next.
func (t *Tracker) Promoted(owner any) {
	if t == nil {
		return
	}
	for i := range t.held {
		if t.held[i].owner == owner {
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

// Released records that the operation dropped its hold on owner's latch.
func (t *Tracker) Released(owner any) {
	if t == nil {
		return
	}
	for i := range t.held {
		if t.held[i].owner == owner {
			t.held = append(t.held[:i], t.held[i+1:]...)
			return
		}
	}
	panic("latch: Released on unheld latch")
}

// Holds reports whether the operation holds owner's latch, and in which
// mode.
func (t *Tracker) Holds(owner any) (Mode, bool) {
	for i := 0; i < t.HeldCount(); i++ {
		if h := t.held[i]; h.owner == owner {
			return h.mode, true
		}
	}
	return 0, false
}

// Hold returns the owner and mode of the i-th hold, 0 <= i < HeldCount(),
// in acquisition order.
func (t *Tracker) Hold(i int) (owner any, mode Mode) {
	return t.held[i].owner, t.held[i].mode
}

// Reset prepares the tracker for reuse by a new operation, keeping the
// held-slice capacity so pooled operation contexts stay allocation-free.
func (t *Tracker) Reset() { t.held = t.held[:0] }

// HeldCount returns the number of holds currently recorded.
func (t *Tracker) HeldCount() int {
	if t == nil {
		return 0
	}
	return len(t.held)
}

// AssertNoneHeld panics if the operation still records any holds. Tree
// operations call this on exit to catch latch leaks.
func (t *Tracker) AssertNoneHeld() {
	if t == nil || len(t.held) == 0 {
		return
	}
	modes := make([]string, len(t.held))
	for i, h := range t.held {
		modes[i] = fmt.Sprintf("rank=%d mode=%v", h.rank, h.mode)
	}
	sort.Strings(modes)
	panic(fmt.Sprintf("latch: %d latches leaked: %v", len(t.held), modes))
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
