package tsb

import (
	"errors"

	"repro/internal/keys"
	"repro/internal/lock"
	"repro/internal/txn"
)

var errBatchArgs = errors.New("tsb: batch argument slices have different lengths")

// MultiPut writes a new version of every ks[i] with vals[i], grouped into
// leaf-runs (pitree.Kernel.Update): one descent, one latch hold, one
// lock-manager interaction, and one group append of the run's KindPut
// records per distinct current leaf. ks need not be sorted.
func (t *Tree) MultiPut(tx *txn.Txn, ks []keys.Key, vals [][]byte) error {
	if len(vals) != len(ks) {
		return errBatchArgs
	}
	return t.write(tx, ks, vals, false, true)
}

// MultiDelete writes a tombstone version of every key, batched like
// MultiPut; as-of reads at earlier times still see the old versions.
func (t *Tree) MultiDelete(tx *txn.Txn, ks []keys.Key) error {
	return t.write(tx, ks, nil, true, true)
}

// MultiGet looks up the current value of a batch of keys with one descent
// and one latch hold per distinct current leaf. found[i] and vals[i]
// report ks[i]; values are appended to vals[i][:0] so reused slices pay
// no per-hit allocation. With a non-nil transaction each run's record S
// locks are taken in a single lock-manager interaction.
func (t *Tree) MultiGet(tx *txn.Txn, ks []keys.Key, vals [][]byte, found []bool) error {
	if len(vals) != len(ks) || len(found) != len(ks) {
		return errBatchArgs
	}
	t.Stats.Gets.Add(int64(len(ks)))
	return t.kern.ReadRuns(tx, len(ks),
		func(i, j int) bool { return keys.Compare(ks[i], ks[j]) < 0 },
		func(i int) point { return point{ks[i], NoEnd - 1} },
		func(i int) lock.Name { return t.recLockName(ks[i]) },
		func(leaf *Node, run []int) {
			now := t.Now()
			for _, i := range run {
				j, ok := leaf.searchVersion(ks[i], now)
				if found[i] = false; ok {
					if e := leaf.entry(j); !e.Deleted {
						found[i], vals[i] = true, append(vals[i][:0], e.Value...)
					}
				}
			}
			t.Stats.BatchOps.Add(1)
			t.Stats.LeafVisitsSaved.Add(int64(len(run) - 1))
		})
}
