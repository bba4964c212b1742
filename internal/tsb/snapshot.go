package tsb

// Lock-free snapshot reads over the TSB tree's transaction-time history.
//
// A snapshot (txn.Snapshot) carries a read timestamp and the set of user
// transactions in flight when it was captured. A snapshot read returns,
// per key, the newest version visible under the snapshot's predicate —
// Start <= ts, writer not in flight at capture (or the reader itself).
// No database locks are ever taken: version starts are immutable, writers
// in flight at capture are invisible wholesale, and writers that begin
// later produce versions with starts above ts. Page latches (and PR 4's
// optimistic interior descent) provide the physical consistency; the
// snapshot provides the transactional consistency.
//
// The reads rely on the time-split copy semantics ("carryover"): when a
// node is time-split at ts, the current node keeps, for every key with
// versions below ts, the newest such version. Inductively every node
// contains, for every key with any version older than the node's TimeLow,
// the newest such version. Hence:
//
//   - a key entirely absent from a node has no versions anywhere at or
//     below the node's time range — the read stops, not found;
//   - a key whose oldest entry starts at/after the node's TimeLow has no
//     older versions — the read stops, not found;
//   - otherwise the key's oldest entry starts below TimeLow; if not even
//     it is visible, strictly older versions can only live in the history
//     sibling, and the read follows the chain.

import (
	"errors"

	"repro/internal/enc"
	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
)

// keyGroup returns the index range [lo, hi) of key's versions in n's
// entries. Hand-rolled binary search: the closure sort.Search would need
// escapes and this sits on the zero-allocation point-read path.
func keyGroup(n *Node, key keys.Key) (int, int) {
	lo, hi := 0, n.Len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys.Compare(n.keyAt(mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	g := lo
	for g < n.Len() && keys.Equal(n.keyAt(g), key) {
		g++
	}
	return lo, g
}

// SnapshotGet returns the value of key visible to snap, appending it to
// buf (pass a reused buffer for an allocation-free read; the returned
// slice aliases buf's array when capacity suffices). It takes no locks:
// the descent rides the optimistic interior navigation, the leaf is
// S-latched, and visibility is decided by the snapshot alone. A reader
// inside a transaction that passed itself to BeginSnapshot sees its own
// writes.
func (t *Tree) SnapshotGet(snap *txn.Snapshot, key keys.Key, buf []byte) ([]byte, bool, error) {
	t.Stats.SnapshotGets.Add(1)
	for {
		out, found, err := t.snapshotGetOnce(snap, key, buf)
		if err == nil || !errors.Is(err, errRetry) {
			return out, found, err
		}
		t.Stats.Restarts.Add(1)
	}
}

func (t *Tree) snapshotGetOnce(snap *txn.Snapshot, key keys.Key, buf []byte) ([]byte, bool, error) {
	o := t.kern.NewOp(nil)
	defer o.Done()
	// Descend to the CURRENT leaf for the key (not the leaf covering the
	// snapshot timestamp): the reader's own writes start above the
	// snapshot ts, and the current node carries the newest below-TimeLow
	// version of every key, so the visibility chase starts here and walks
	// backwards only as far as invisible versions force it.
	cur, err := t.descend(o, key, NoEnd-1, 0, latch.S, true)
	if err != nil {
		return buf, false, err
	}
	for {
		n := cur.N
		lo, hi := keyGroup(n, key)
		for i := hi - 1; i >= lo; i-- {
			e := n.entry(i)
			if snap.Visible(e.Txn, e.Start) {
				if e.Deleted {
					o.Release(&cur)
					return buf, false, nil
				}
				out := append(buf[:0], e.Value...)
				o.Release(&cur)
				return out, true, nil
			}
		}
		// No visible version here. By carryover, older versions exist only
		// if the group's oldest entry itself predates the node's time
		// range (and is invisible — an in-flight writer's carried write).
		if hi == lo || n.startAt(lo) >= n.Rect.TimeLow || n.HistSib == storage.NilPage {
			o.Release(&cur)
			return buf, false, nil
		}
		t.Stats.SnapshotHistWalks.Add(1)
		next, err := t.kern.Step(o, &cur, n.HistSib, latch.S, 0)
		if err != nil {
			return buf, false, err
		}
		cur = next
	}
}

// SnapshotScan calls fn for every key in [lo, hi) with a visible,
// non-deleted version under snap, in key order; hi may be nil for an
// unbounded scan. Like ScanAsOf it batches per current leaf under one
// S latch; keys whose visible version lies behind the leaf's history
// chain (an in-flight writer's carried version masks them) are resolved
// by per-key chases after the latch is released, so the latch hold time
// stays proportional to the leaf size. Keys and values passed to fn are
// copies.
func (t *Tree) SnapshotScan(snap *txn.Snapshot, lo, hi keys.Key, fn func(k keys.Key, v []byte) bool) error {
	t.Stats.SnapshotScans.Add(1)
	return t.kern.Scan(nil, point{keys.Clone(lo), NoEnd - 1}, hi, &keyScan{t: t, hi: hi, fn: fn, snap: snap})
}

// keyScan is ScanAsOf's and SnapshotScan's side of the kernel's leaf walk
// (pitree.Scanner): per key of a leaf in [cursor, hi), the newest version
// as of time — or, with snap, the newest visible to it.
type keyScan struct {
	t     *Tree
	hi    keys.Key
	fn    func(k keys.Key, v []byte) bool
	time  uint64
	snap  *txn.Snapshot
	items []scanItem
}

// scanItem is a copy of a key and its value, or, with chase, a key whose
// visible version lies behind the leaf's history chain. Collect copies a
// leaf's items into one buffer of their size.
type scanItem struct {
	k     keys.Key
	v     []byte
	chase bool
}

func (s *keyScan) Collect(leaf nref, cursor point) (int, point, storage.PageID, bool) {
	n := leaf.N
	s.items = s.items[:0]
	size := 0
	for i := n.firstKeyAtOrAbove(cursor.key); i < n.Len(); {
		k := n.keyAt(i)
		if s.hi != nil && keys.Compare(k, s.hi) >= 0 {
			break
		}
		j := i + 1
		for j < n.Len() && keys.Equal(n.keyAt(j), k) {
			j++
		}
		if p := s.seen(n, i, j); p >= i {
			if e := n.entry(p); !e.Deleted {
				s.items = append(s.items, scanItem{k: k, v: e.Value}) // views, copied below
				size += len(k) + len(e.Value)
			}
		} else if s.snap != nil && n.startAt(i) < n.Rect.TimeLow && n.HistSib != storage.NilPage {
			s.items = append(s.items, scanItem{k: k, chase: true})
			size += len(k)
		}
		i = j
	}
	buf := make([]byte, 0, size)
	for i := range s.items {
		it := &s.items[i]
		buf, it.k = enc.Carve(buf, it.k)
		buf, it.v = enc.Carve(buf, it.v)
	}
	next, succ, more := scanNext(n, cursor, s.hi)
	return len(s.items), next, succ, more
}

// seen returns the position of the version the scan sees in the key group
// [i, j) of n, or i-1 when it sees none there. Versions are sorted by
// start, so the newest qualifying one is the last.
func (s *keyScan) seen(n *Node, i, j int) int {
	p := j - 1
	for ; p >= i; p-- {
		if s.snap == nil {
			if n.startAt(p) <= s.time {
				break
			}
		} else if e := n.entry(p); s.snap.Visible(e.Txn, e.Start) {
			break
		}
	}
	return p
}

func (s *keyScan) LockName(i int) lock.Name { return s.t.recLockName(s.items[i].k) }

func (s *keyScan) Emit() (bool, error) {
	for _, it := range s.items {
		v := it.v
		if it.chase {
			var found bool
			var err error
			if v, found, err = s.t.SnapshotGet(s.snap, it.k, nil); err != nil {
				return false, err
			}
			if !found {
				continue
			}
		}
		if !s.fn(it.k, v) {
			return false, nil
		}
	}
	return true, nil
}

// scanNext returns where a scan bounded by hi (nil: unbounded) goes on
// after the current leaf n: the leaf's key high bound at the cursor's
// time, in its key sibling — or more false at the end.
func scanNext(n *Node, cursor point, hi keys.Key) (next point, succ storage.PageID, more bool) {
	kh := n.Rect.KeyHigh
	if kh.Unbounded || (hi != nil && keys.Compare(kh.Key, hi) >= 0) {
		return point{}, storage.NilPage, false
	}
	return point{keys.Clone(kh.Key), cursor.time}, n.KeySib, true
}
