package core

import (
	"errors"

	"repro/internal/keys"
	"repro/internal/lock"
	"repro/internal/pitree"
	"repro/internal/txn"
)

// FPBatchApply is the kernel's failpoint between a leaf-run's lock grant
// and its first log record, under the name tests and torture rounds arm.
const FPBatchApply = pitree.FPBatchApply

// errBatchArgs reports mismatched parallel-slice lengths.
var errBatchArgs = errors.New("core: batch argument slices have different lengths")

// MultiGet looks up a batch of keys with one descent and one latch hold
// per distinct leaf. found[i] and vals[i] report key ks[i]; each value is
// appended to vals[i][:0], so callers reusing the slices across batches
// pay no per-hit allocation. With a non-nil transaction the whole run is
// S-locked in a single lock-manager interaction. ks need not be sorted.
func (t *Tree) MultiGet(tx *txn.Txn, ks []keys.Key, vals [][]byte, found []bool) error {
	if len(vals) != len(ks) || len(found) != len(ks) {
		return errBatchArgs
	}
	t.Stats.Searches.Add(int64(len(ks)))
	return t.kern.ReadRuns(tx, len(ks),
		func(i, j int) bool { return keys.Compare(ks[i], ks[j]) < 0 },
		func(i int) keys.Key { return ks[i] },
		func(i int) lock.Name { return t.recLockName(ks[i]) },
		func(leaf *Node, run []int) {
			for _, i := range run {
				j, ok := leaf.search(ks[i])
				if ok {
					vals[i] = append(vals[i][:0], leaf.entry(j).Value...)
				}
				found[i] = ok
			}
			t.Stats.BatchOps.Add(1)
			t.Stats.LeafVisitsSaved.Add(int64(len(run) - 1))
		})
}

// MultiPut upserts a batch of key/value pairs: ks[i] gets vals[i],
// inserting or replacing as needed. Keys are processed in sorted order,
// grouped into leaf-runs (pitree.Kernel.Update): each distinct target
// leaf costs one descent, one latch hold, one lock-manager interaction,
// and one group append of the run's per-key WAL records. ks need not be
// sorted; duplicate keys apply in batch order.
func (t *Tree) MultiPut(tx *txn.Txn, ks []keys.Key, vals [][]byte) error {
	if len(vals) != len(ks) {
		return errBatchArgs
	}
	return t.write(tx, &leafWrite{t: t, op: opUpsert, ks: ks, vals: vals})
}

// MultiDelete removes a batch of keys, grouped into leaf-runs like
// MultiPut. Keys not present are skipped, not errors: the batch's
// postcondition is absence.
func (t *Tree) MultiDelete(tx *txn.Txn, ks []keys.Key) error {
	return t.write(tx, &leafWrite{t: t, op: opRemove, ks: ks})
}
