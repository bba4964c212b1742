package tsb

import (
	"errors"
	"sync"

	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/txn"
	"repro/internal/wal"
)

// FPBatchApply is the failpoint probed in the batched write path after a
// run's locks are granted but before anything is logged or applied (same
// name and placement as the core tree's, so one torture round covers
// both).
const FPBatchApply = "core.batchapply"

var errBatchArgs = errors.New("tsb: batch argument slices have different lengths")

// batchScratch mirrors the core tree's pooled per-batch working storage.
type batchScratch struct {
	idx   []int
	names []lock.Name
	ups   []txn.GroupUpdate
}

var batchScratchPool sync.Pool

func takeBatchScratch(n int) *batchScratch {
	sc, _ := batchScratchPool.Get().(*batchScratch)
	if sc == nil {
		sc = new(batchScratch)
	}
	if cap(sc.idx) < n {
		sc.idx = make([]int, n)
	}
	sc.idx = sc.idx[:n]
	for i := range sc.idx {
		sc.idx[i] = i
	}
	return sc
}

func putBatchScratch(sc *batchScratch) {
	for i := range sc.ups {
		sc.ups[i] = txn.GroupUpdate{}
	}
	sc.ups = sc.ups[:0]
	batchScratchPool.Put(sc)
}

// sortIdx sorts the index permutation by key (insertion sort; batches are
// modest and this keeps the read path allocation-free).
func sortIdx(idx []int, ks []keys.Key) {
	for i := 1; i < len(idx); i++ {
		j := i
		for j > 0 && keys.Compare(ks[idx[j-1]], ks[idx[j]]) > 0 {
			idx[j-1], idx[j] = idx[j], idx[j-1]
			j--
		}
	}
}

// runEnd extends a run starting at pos over every following batch key the
// current leaf's key range contains.
func runEnd(leaf *nref, ks []keys.Key, idx []int, pos int) int {
	end := pos + 1
	for end < len(idx) && leaf.N.Rect.ContainsKey(ks[idx[end]]) {
		end++
	}
	return end
}

// lockRun takes a run's record locks in one lock-manager interaction,
// with the usual No-Wait dance on conflict (see the core tree's lockRun).
func (t *Tree) lockRun(o *opCtx, leaf *nref, ks []keys.Key, run []int, sc *batchScratch, mode lock.Mode) error {
	if o.Txn == nil {
		return nil
	}
	names := sc.names[:0]
	for _, i := range run {
		names = append(names, t.recLockName(ks[i]))
	}
	sc.names = names
	return o.LockDanceBatch(o.Txn, leaf, names, mode)
}

// MultiPut writes a new version of every ks[i] with vals[i], grouped into
// leaf-runs: one descent, one latch hold, one lock-manager interaction,
// and one group append of the run's KindPut records per distinct current
// leaf. Each version still gets its own strictly-increasing timestamp and
// its own log record, so time splits, logical undo, and snapshot
// visibility are untouched. ks need not be sorted.
func (t *Tree) MultiPut(tx *txn.Txn, ks []keys.Key, vals [][]byte) error {
	if len(vals) != len(ks) {
		return errBatchArgs
	}
	return t.batchPut(tx, ks, vals, false)
}

// MultiDelete writes a tombstone version of every key, batched like
// MultiPut; as-of reads at earlier times still see the old versions.
func (t *Tree) MultiDelete(tx *txn.Txn, ks []keys.Key) error {
	return t.batchPut(tx, ks, nil, true)
}

func (t *Tree) batchPut(tx *txn.Txn, ks []keys.Key, vals [][]byte, deleted bool) error {
	if len(ks) == 0 {
		return nil
	}
	sc := takeBatchScratch(len(ks))
	defer putBatchScratch(sc)
	sortIdx(sc.idx, ks)
	pos := 0
	for pos < len(ks) {
		if err := t.kern.RetryLoop(tx, func(o *opCtx) error {
			return t.putRun(o, ks, vals, deleted, sc, &pos)
		}); err != nil {
			return err
		}
	}
	return nil
}

// putRun applies one leaf-run of a batched put; see the core tree's
// mutateRun for the shape. The run stops early when the leaf fills; the
// remainder re-descends and splits first.
func (t *Tree) putRun(o *opCtx, ks []keys.Key, vals [][]byte, deleted bool, sc *batchScratch, pos *int) error {
	tx := o.Txn
	leaf, err := t.descend(o, ks[sc.idx[*pos]], NoEnd-1, 0, latch.U, true)
	if err != nil {
		return err
	}
	if !leaf.N.Current() {
		o.Release(&leaf)
		return errRetry
	}
	end := runEnd(&leaf, ks, sc.idx, *pos)
	run := sc.idx[*pos:end]

	if err := t.lockRun(o, &leaf, ks, run, sc, lock.X); err != nil {
		return err
	}

	if len(leaf.N.Entries) >= t.opts.DataCapacity {
		if err := t.splitData(o, &leaf); err != nil {
			return err
		}
		return errRetry
	}

	lg := tx
	if lg == nil {
		lg = t.tm.BeginAtomicAction()
	}

	// Crash/fault point between runs (nothing logged or applied yet).
	if err := t.store.Pool.Probe(FPBatchApply); err != nil {
		if tx == nil {
			_ = lg.Abort()
		}
		o.Release(&leaf)
		return err
	}

	o.Promote(&leaf)
	var writer wal.TxnID
	if tx != nil {
		writer = tx.ID
	}
	ups := sc.ups[:0]
	applied := 0
	for _, i := range run {
		if len(leaf.N.Entries) >= t.opts.DataCapacity {
			break // leaf filled mid-run; the rest re-descends and splits
		}
		var value []byte
		if !deleted {
			value = vals[i]
		}
		e := Entry{Key: keys.Clone(ks[i]), Start: t.tick(), Value: append([]byte(nil), value...), Deleted: deleted, Txn: writer}
		ups = append(ups, txn.GroupUpdate{Kind: KindPut, Payload: encPut(e)})
		leaf.N.insertVersion(e)
		t.Stats.Puts.Add(1)
		applied++
	}
	sc.ups = ups
	if len(ups) > 0 {
		first, last := lg.LogUpdateGroup(t.store.Pool.StoreID, uint64(leaf.Pid()), ups)
		// Both marks matter: the first publishes recLSN covering the whole
		// run if the page was clean, the second advances pageLSN to the
		// run's last record.
		leaf.F.MarkDirty(first)
		leaf.F.MarkDirty(last)
	}
	t.Stats.BatchOps.Add(1)
	t.Stats.LeafVisitsSaved.Add(int64(applied - 1))
	if tx == nil {
		if cerr := lg.Commit(); cerr != nil {
			o.Release(&leaf)
			return cerr
		}
	}
	o.Release(&leaf)
	*pos += applied
	return nil
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
	if len(ks) == 0 {
		return nil
	}
	t.Stats.Gets.Add(int64(len(ks)))
	sc := takeBatchScratch(len(ks))
	defer putBatchScratch(sc)
	sortIdx(sc.idx, ks)
	pos := 0
	for pos < len(ks) {
		if err := t.kern.RetryLoop(tx, func(o *opCtx) error {
			leaf, err := t.descend(o, ks[sc.idx[pos]], NoEnd-1, 0, latch.S, true)
			if err != nil {
				return err
			}
			end := runEnd(&leaf, ks, sc.idx, pos)
			run := sc.idx[pos:end]
			if err := t.lockRun(o, &leaf, ks, run, sc, lock.S); err != nil {
				return err
			}
			now := t.Now()
			for _, i := range run {
				if j, ok := leaf.N.searchVersion(ks[i], now); ok && !leaf.N.Entries[j].Deleted {
					vals[i] = append(vals[i][:0], leaf.N.Entries[j].Value...)
					found[i] = true
				} else {
					found[i] = false
				}
			}
			o.Release(&leaf)
			t.Stats.BatchOps.Add(1)
			t.Stats.LeafVisitsSaved.Add(int64(len(run) - 1))
			pos = end
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}
