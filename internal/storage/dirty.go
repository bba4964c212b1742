package storage

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/wal"
)

// dirtyTable is the pool's dirty page table: a min-heap of the dirty
// pages keyed by recLSN. Its entries are the buffered dirty frames, the
// detached victims whose write-back is still in flight, and the pages an
// eviction elided (elide.go), so the table's size is the dirty count and
// its root is the oldest recLSN — the page pinning the redo window. Both
// are mirrored into atomics so the background writer's in-budget tick
// reads them without a lock, a pin, or a scan.
//
// Each entry points back at its owner's position word, a Frame's
// dirtyPos or an elidedPage's pos. A page keeps one entry from its
// clean→dirty transition (MarkDirty) until it is clean again (a
// successful flush) or dropped; while dirty it only changes owner (move)
// as an eviction elides it and a replay rebuilds it, and its recLSN never
// changes, so the move needs no sift.
//
// A frame's transitions are already serialized by its latch (MarkDirty
// runs under X, every flush under S or with the frame detached), and an
// elided entry's by its shard's mu, so calls for one page never race each
// other; mu only orders different pages. Lock order: shard mu →
// dirtyTable.mu; the table never calls back into a shard.
type dirtyTable struct {
	mu   sync.Mutex
	heap []dirtyEntry

	oldest atomic.Uint64 // heap[0].rec; 0 when empty
	count  atomic.Int64
}

// dirtyEntry carries the key and the page beside the owner's position
// word — the entry's 1-based place in the heap, 0 when it has none,
// guarded by mu — so sifting compares plain words instead of loading each
// frame's atomics.
type dirtyEntry struct {
	rec wal.LSN
	pid PageID
	pos *int
}

func (t *dirtyTable) set(i int, e dirtyEntry) {
	t.heap[i] = e
	*e.pos = i + 1
}

func (t *dirtyTable) up(i int) {
	e := t.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if t.heap[parent].rec <= e.rec {
			break
		}
		t.set(i, t.heap[parent])
		i = parent
	}
	t.set(i, e)
}

func (t *dirtyTable) down(i int) {
	e := t.heap[i]
	n := len(t.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && t.heap[c+1].rec < t.heap[c].rec {
			c++
		}
		if e.rec <= t.heap[c].rec {
			break
		}
		t.set(i, t.heap[c])
		i = c
	}
	t.set(i, e)
}

// publish refreshes the lock-free mirrors. Caller holds mu.
func (t *dirtyTable) publish() {
	if len(t.heap) == 0 {
		t.oldest.Store(0)
	} else {
		t.oldest.Store(uint64(t.heap[0].rec))
	}
	t.count.Store(int64(len(t.heap)))
}

// enter records pid's clean→dirty transition at rec, owned by pos.
func (t *dirtyTable) enter(pos *int, pid PageID, rec wal.LSN) {
	t.mu.Lock()
	if *pos == 0 {
		t.heap = append(t.heap, dirtyEntry{rec: rec, pid: pid, pos: pos})
		t.up(len(t.heap) - 1)
		t.publish()
	}
	t.mu.Unlock()
}

// leave records that pos's page is clean again (or gone).
func (t *dirtyTable) leave(pos *int) {
	t.mu.Lock()
	if i := *pos - 1; i >= 0 {
		last := len(t.heap) - 1
		moved := t.heap[last]
		t.heap[last] = dirtyEntry{}
		t.heap = t.heap[:last]
		*pos = 0
		if i < last {
			t.set(i, moved)
			t.down(i)
			t.up(*moved.pos - 1)
		}
		t.publish()
	}
	t.mu.Unlock()
}

// move hands from's entry, if it has one, to to: the same page, recLSN and
// heap position under another owner.
func (t *dirtyTable) move(from, to *int) {
	t.mu.Lock()
	if i := *from - 1; i >= 0 {
		t.heap[i].pos = to
		*to, *from = *from, 0
	}
	t.mu.Unlock()
}

// below appends to dst the IDs of the dirty pages whose recLSN is below
// cutoff — the oldest limit of them when more qualify, buffered or elided
// alike. It walks only the part of the heap that qualifies (a subtree
// whose root is at or past cutoff holds nothing older), so the cost
// follows the answer, not the table.
func (t *dirtyTable) below(cutoff wal.LSN, limit int, dst []PageID) []PageID {
	t.mu.Lock()
	defer t.mu.Unlock()
	// found doubles as the walk's queue: every qualifying entry is
	// appended once and later expanded into its qualifying children.
	var found []dirtyEntry
	if len(t.heap) > 0 && t.heap[0].rec < cutoff {
		found = append(found, t.heap[0])
	}
	for next := 0; next < len(found); next++ {
		i := *found[next].pos - 1
		for c := 2*i + 1; c <= 2*i+2 && c < len(t.heap); c++ {
			if t.heap[c].rec < cutoff {
				found = append(found, t.heap[c])
			}
		}
	}
	if len(found) > limit {
		sort.Slice(found, func(i, j int) bool { return found[i].rec < found[j].rec })
		found = found[:limit]
	}
	for _, e := range found {
		dst = append(dst, e.pid)
	}
	return dst
}
