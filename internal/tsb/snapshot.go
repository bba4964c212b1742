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

	"repro/internal/keys"
	"repro/internal/latch"
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
	cursor := keys.Clone(lo)
	for {
		type rec struct {
			k     keys.Key
			v     []byte
			chase bool
		}
		var batch []rec
		var next keys.Key
		done := false
		err := t.kern.RetryLoop(nil, func(o *opCtx) error {
			batch = batch[:0]
			next, done = nil, false
			leaf, err := t.descend(o, cursor, NoEnd-1, 0, latch.S, true)
			if err != nil {
				return err
			}
			n := leaf.N
			for i := 0; i < n.Len(); {
				k := n.keyAt(i)
				j := i + 1
				for j < n.Len() && keys.Equal(n.keyAt(j), k) {
					j++
				}
				if keys.Compare(k, cursor) >= 0 && (hi == nil || keys.Compare(k, hi) < 0) {
					resolved := false
					for p := j - 1; p >= i; p-- {
						e := n.entry(p)
						if snap.Visible(e.Txn, e.Start) {
							if !e.Deleted {
								batch = append(batch, rec{k: keys.Clone(k), v: append([]byte(nil), e.Value...)})
							}
							resolved = true
							break
						}
					}
					if !resolved && n.startAt(i) < n.Rect.TimeLow && n.HistSib != storage.NilPage {
						batch = append(batch, rec{k: keys.Clone(k), chase: true})
					}
				}
				i = j
			}
			if n.Rect.KeyHigh.Unbounded {
				done = true
			} else {
				next = keys.Clone(n.Rect.KeyHigh.Key)
				if hi != nil && keys.Compare(next, hi) >= 0 {
					done = true
				}
			}
			if !done {
				// Read-ahead of the key sibling; see ScanAsOf.
				t.store.Pool.PrefetchAsync(n.KeySib)
			}
			o.Release(&leaf)
			return nil
		})
		if err != nil {
			return err
		}
		for _, r := range batch {
			v := r.v
			if r.chase {
				var found bool
				v, found, err = t.SnapshotGet(snap, r.k, nil)
				if err != nil {
					return err
				}
				if !found {
					continue
				}
			}
			if !fn(r.k, v) {
				return nil
			}
		}
		if done {
			return nil
		}
		cursor = next
	}
}
