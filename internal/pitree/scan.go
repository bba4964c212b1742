package pitree

import (
	"bytes"

	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Scanner is what a tree supplies to Scan: which of a leaf's items the
// scan delivers, and what it does with them. One value serves the whole
// scan.
type Scanner[N, K any] interface {
	// Collect is handed the S-latched leaf that directly contains cursor.
	// It copies out the items from cursor on that the scan delivers,
	// replacing whatever an earlier attempt collected, and returns how
	// many it holds and where the scan goes on: next, the leaf's high
	// bound as a cursor, and succ, the leaf holding it, for read-ahead.
	// more is false when this leaf is the scan's last.
	Collect(leaf Ref[N], cursor K) (items int, next K, succ storage.PageID, more bool)
	// LockName is collected item i's record lock; asked for only under a
	// transaction.
	LockName(i int) lock.Name
	// Emit hands the collected items on, with no latch held; false ends
	// the scan.
	Emit() (bool, error)
}

// Scan is the read-side leaf walk of every tree: from the leaf directly
// containing from, leaf by leaf along the high bounds, until the tree
// says stop. For each leaf:
//
//  1. descend with an S latch to the leaf directly containing the cursor
//     (a sibling not yet posted is crossed by its side pointer, §3);
//  2. Collect: the tree copies out the leaf's qualifying items;
//  3. under tx, take their record S locks in one lock-manager interaction
//     under the No-Wait rule (§4.1.2): when one must be waited for, the
//     latch goes first and the attempt then re-descends and collects
//     again, so every value delivered was read under its lock;
//  4. hand the successor leaf to read-ahead with the scan's end, and
//     unlatch;
//  5. Emit, with no latch held, and continue at the leaf's high bound.
//
// The locks are held to transaction end: what was delivered is
// repeatable, and nothing guards the gaps between keys — no phantom
// protection (DESIGN.md §16). Without a transaction nothing is locked.
//
// end is the scan's exclusive end key as the store's codec reads it
// (storage.SuccessorCodec), nil for a scan with none: read-ahead walks no
// further than the leaf that covers it. Scan hands read-ahead its own
// copy, so the caller may reuse end's bytes once Scan returns.
func (k *Kernel[N, K]) Scan(tx *txn.Txn, from K, end []byte, s Scanner[N, K]) error {
	end = bytes.Clone(end)
	var names []lock.Name
	cursor := from
	for {
		var next K
		more := false
		err := k.RetryLoop(tx, func(o *Op[N]) error {
			leaf, err := k.Descend(o, cursor, 0, latch.S, true, nil)
			if err != nil {
				return err
			}
			var items int
			var succ storage.PageID
			items, next, succ, more = s.Collect(leaf, cursor)
			if tx != nil && items > 0 {
				names = names[:0]
				for i := 0; i < items; i++ {
					names = append(names, s.LockName(i))
				}
				if err := o.LockDanceBatch(tx, &leaf, names, lock.S); err != nil {
					return err
				}
			}
			if more {
				k.s.Store.Pool.PrefetchAsync(succ, end)
			}
			o.Release(&leaf)
			return nil
		})
		if err != nil {
			return err
		}
		if ok, err := s.Emit(); !ok || err != nil {
			return err
		}
		if !more {
			return nil
		}
		cursor = next
	}
}
