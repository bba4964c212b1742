package core

import (
	"errors"
	"sync"

	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/txn"
)

// FPBatchApply is the failpoint probed in the batched write path after the
// run's locks are granted but before anything is logged or applied, so an
// injected crash lands exactly between two leaf-runs of one batch: some
// runs fully logged and applied, the rest never started. Recovery must
// resolve that to the per-record oracle — there is no batch-granule
// atomicity to restore.
const FPBatchApply = "core.batchapply"

// errBatchArgs reports mismatched parallel-slice lengths.
var errBatchArgs = errors.New("core: batch argument slices have different lengths")

// batchScratch holds the reusable per-batch working storage: the key
// permutation, the run's lock names, and the run's group-update records.
// Pooled so a steady stream of batches allocates nothing (see
// TestMultiGetAllocs).
type batchScratch struct {
	idx   []int
	names []lock.Name
	ups   []txn.GroupUpdate
}

var batchScratchPool sync.Pool

// takeBatchScratch returns a scratch with idx initialized to the identity
// permutation of length n.
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
		sc.ups[i] = txn.GroupUpdate{} // drop payload references
	}
	sc.ups = sc.ups[:0]
	batchScratchPool.Put(sc)
}

// sortIdx sorts the index permutation by key. Binary-insertion sort: the
// batch sizes this path is built for are modest, and sort.Slice's closure
// is a heap allocation the zero-allocation MultiGet path cannot afford.
func sortIdx(idx []int, ks []keys.Key) {
	for i := 1; i < len(idx); i++ {
		j := i
		for j > 0 && keys.Compare(ks[idx[j-1]], ks[idx[j]]) > 0 {
			idx[j-1], idx[j] = idx[j], idx[j-1]
			j--
		}
	}
}

// runEnd extends a run starting at pos: every following batch key the leaf
// directly contains joins the run (sorted order makes the containable
// suffix contiguous).
func runEnd(leaf *nref, ks []keys.Key, idx []int, pos int) int {
	end := pos + 1
	for end < len(idx) && leaf.N.DirectlyContains(ks[idx[end]]) {
		end++
	}
	return end
}

// lockRun takes the run's record locks in one lock-manager interaction.
// It returns errRetry after a No-Wait dance (latch released, blocking
// acquisition of the conflicting name, run restarted) and nil when every
// lock is held with the latch kept. Because every batch locks its keys in
// sorted order, two batches' acquisition orders agree and batch-vs-batch
// deadlocks cannot arise from these locks alone; a conflict with a
// single-key writer falls back to the blocking path, where the waits-for
// detector remains the backstop.
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

// MultiGet looks up a batch of keys with one descent and one latch hold
// per distinct leaf. found[i] and vals[i] report key ks[i]; each value is
// appended to vals[i][:0], so callers reusing the slices across batches
// pay no per-hit allocation. With a non-nil transaction the whole run is
// S-locked in a single lock-manager interaction. ks need not be sorted.
func (t *Tree) MultiGet(tx *txn.Txn, ks []keys.Key, vals [][]byte, found []bool) error {
	if len(vals) != len(ks) || len(found) != len(ks) {
		return errBatchArgs
	}
	if len(ks) == 0 {
		return nil
	}
	t.Stats.Searches.Add(int64(len(ks)))
	sc := takeBatchScratch(len(ks))
	sortIdx(sc.idx, ks)
	// Hand-rolled retry loop, like SearchInto: a RetryLoop closure would
	// capture the slices and allocate on every batch.
	pos := 0
	for pos < len(ks) {
		o := t.kern.NewOp(tx)
		leaf, err := t.descendTo(o, ks[sc.idx[pos]], 0, latch.S, true, nil)
		if err == nil {
			end := runEnd(&leaf, ks, sc.idx, pos)
			run := sc.idx[pos:end]
			err = t.lockRun(o, &leaf, ks, run, sc, lock.S)
			if err == nil {
				for _, i := range run {
					if j, ok := leaf.N.search(ks[i]); ok {
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
			}
		}
		o.Done()
		if err != nil {
			if errors.Is(err, errRetry) {
				t.Stats.Restarts.Add(1)
				continue
			}
			putBatchScratch(sc)
			return err
		}
	}
	putBatchScratch(sc)
	return nil
}

// MultiPut upserts a batch of key/value pairs: ks[i] gets vals[i],
// inserting or replacing as needed. Keys are processed in sorted order,
// grouped into leaf-runs: each distinct target leaf costs one descent,
// one latch hold, one lock-manager interaction, and one group append of
// the run's per-key WAL records. Undo and redo stay per-record, so a
// crash mid-batch recovers each logged record independently — committed
// runs stay, the rest never happened. ks need not be sorted; duplicate
// keys apply in batch order.
func (t *Tree) MultiPut(tx *txn.Txn, ks []keys.Key, vals [][]byte) error {
	if len(vals) != len(ks) {
		return errBatchArgs
	}
	return t.batchMutate(tx, ks, vals, false)
}

// MultiDelete removes a batch of keys, grouped into leaf-runs like
// MultiPut. Keys not present are skipped, not errors: the batch's
// postcondition is absence.
func (t *Tree) MultiDelete(tx *txn.Txn, ks []keys.Key) error {
	return t.batchMutate(tx, ks, nil, true)
}

func (t *Tree) batchMutate(tx *txn.Txn, ks []keys.Key, vals [][]byte, del bool) error {
	if len(ks) == 0 {
		return nil
	}
	sc := takeBatchScratch(len(ks))
	defer putBatchScratch(sc)
	sortIdx(sc.idx, ks)
	pos := 0
	for pos < len(ks) {
		if err := t.kern.RetryLoop(tx, func(o *opCtx) error {
			return t.mutateRun(o, ks, vals, del, sc, &pos)
		}); err != nil {
			return err
		}
	}
	return nil
}

// mutateRun applies one leaf-run: descend with a U latch to the leaf
// containing the first unprocessed key, extend the run across every batch
// key that leaf directly contains, lock the run, and apply it under a
// single X latch with the run's log records emitted as one group append.
// On success pos advances past the applied keys; errRetry re-enters with
// pos unchanged (or advanced past a partial run when the leaf filled
// mid-run, with the remainder re-descending into the post-split leaves).
func (t *Tree) mutateRun(o *opCtx, ks []keys.Key, vals [][]byte, del bool, sc *batchScratch, pos *int) error {
	tx := o.Txn
	path := newPath()
	leaf, err := t.descendTo(o, ks[sc.idx[*pos]], 0, latch.U, true, path)
	if err != nil {
		return err
	}
	end := runEnd(&leaf, ks, sc.idx, *pos)
	run := sc.idx[*pos:end]

	if err := t.lockRun(o, &leaf, ks, run, sc, lock.X); err != nil {
		return err
	}

	if len(leaf.N.Entries) >= t.opts.LeafCapacity {
		if err := t.splitLeaf(o, &leaf, path); err != nil {
			return err
		}
		return errRetry
	}

	// Page-granule IX lock, as in modify: marks this transaction as an
	// updater of the leaf for later move locks to wait on.
	if tx != nil && t.binding.PageOriented() {
		if err := o.LockDance(tx, &leaf, t.pageLockName(leaf.Pid()), lock.IX); err != nil {
			return err
		}
	}

	act := tx
	var aa *txn.Txn
	if act == nil {
		aa = t.tm.BeginAtomicAction()
		act = aa
	}

	// Crash/fault point between runs: nothing of this run is logged or
	// applied yet, so an injected failure here leaves a cleanly partial
	// batch for recovery to judge per record.
	if err := t.store.Pool.Probe(FPBatchApply); err != nil {
		if aa != nil {
			_ = aa.Abort() // nothing logged; empty abort keeps the log tidy
		}
		o.Release(&leaf)
		return err
	}

	o.Promote(&leaf)
	oldCount := len(leaf.N.Entries)
	ups := sc.ups[:0]
	applied := 0
	for _, i := range run {
		k := ks[i]
		if del {
			j, exists := leaf.N.search(k)
			if exists {
				old := leaf.N.Entries[j].Value
				ups = append(ups, txn.GroupUpdate{Kind: KindDeleteRecord, Payload: encKV(k, old)})
				leaf.N.deleteEntry(k)
				t.Stats.Deletes.Add(1)
			}
		} else if j, exists := leaf.N.search(k); exists {
			old := leaf.N.Entries[j].Value
			ups = append(ups, txn.GroupUpdate{Kind: KindUpdateRecord, Payload: encKVV(k, vals[i], old)})
			leaf.N.Entries[j].Value = append([]byte(nil), vals[i]...)
			t.Stats.Updates.Add(1)
		} else {
			if len(leaf.N.Entries) >= t.opts.LeafCapacity {
				// The leaf filled mid-run. Stop here: the applied prefix is
				// logged below, and the remainder restarts with a fresh
				// descent that splits this leaf first.
				break
			}
			ups = append(ups, txn.GroupUpdate{Kind: KindInsertRecord, Payload: encKV(k, vals[i])})
			leaf.N.insertEntry(Entry{Key: keys.Clone(k), Value: append([]byte(nil), vals[i]...)})
			t.Stats.Inserts.Add(1)
		}
		applied++
	}
	sc.ups = ups
	if len(ups) > 0 {
		first, last := act.LogUpdateGroup(t.store.Pool.StoreID, uint64(leaf.Pid()), ups)
		// Both marks matter: the first publishes recLSN covering the whole
		// run if the page was clean, the second advances pageLSN to the
		// run's last record.
		leaf.F.MarkDirty(first)
		leaf.F.MarkDirty(last)
	}
	t.Stats.NoteLeafUtil(oldCount, len(leaf.N.Entries), t.opts.LeafCapacity)
	t.Stats.BatchOps.Add(1)
	t.Stats.LeafVisitsSaved.Add(int64(applied - 1))
	// Commit before unlatching, as in modify: the atomic action's effects
	// must be durable-ordered before any dependent action can observe them.
	if aa != nil {
		if cerr := aa.Commit(); cerr != nil {
			o.Release(&leaf)
			return cerr
		}
	}
	if del {
		t.maybeScheduleConsolidation(&leaf)
	}
	o.Release(&leaf)
	*pos += applied
	return nil
}
