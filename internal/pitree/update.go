package pitree

import (
	"errors"
	"sync"

	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// FPBatchApply is the failpoint every leaf write probes once its locks
// are granted and before anything is logged or applied. An injected crash
// there lands exactly between two leaf-runs of one batch: some runs fully
// logged and applied, the rest never started. Recovery must resolve that
// to the per-record oracle — there is no batch-granule atomicity to
// restore. (The name predates the kernel; torture rounds arm it by name.)
const FPBatchApply = "core.batchapply"

// LeafWriter is what a tree supplies to Update (and, with a Next, to
// Compensate as an Undoer): the parts of a leaf write that differ
// between trees and between operations. Item i is the i-th key of the
// caller's batch; a single-key write is a batch of one.
// Methods handed a node or a reference run under its latch and, Split
// apart, must not block.
type LeafWriter[N, K any] interface {
	// Key is item i's search key and LockName its record lock.
	Key(i int) K
	LockName(i int) lock.Name
	// Trace is called once per attempt, before the descent; a non-nil
	// result is handed to Space.Edge on every edge (a tree that saves its
	// path starts a fresh one here).
	Trace() any
	// Need is the bytes applying item i adds to leaf n's image: 0 for a
	// delete or an in-place update. A write run ends where its items'
	// needs outgrow the leaf's free room.
	Need(n N, i int) int
	// Full is the space test, written on top of Need (and any entry cap
	// the tree has): true when applying item i needs room the leaf lacks.
	// Before a run's first item the leaf is then split and the attempt
	// restarts; later in a run it ends the run, and the remainder
	// re-descends into the split leaves.
	Full(n N, i int) bool
	// Reserve grows the X-latched leaf's record buffer by bytes ahead of
	// a run's applies, so the run copies its records in once.
	Reserve(n N, bytes int)
	// Split splits the U-latched full leaf through Kernel.Split, in its own
	// atomic action (or however the tree's undo discipline requires). The
	// reference is the callee's from here on: it releases the latch
	// whatever the outcome, and after a nil error the attempt restarts.
	Split(o *Op[N], leaf Ref[N]) error
	// Apply makes item i's change to the X-latched leaf and returns the
	// log record describing it, which the kernel appends under the acting
	// transaction; a nil Payload means the item needed no change. An
	// error (ErrKeyExists and the like) must be returned before the node
	// is touched: nothing is logged for the item and the write ends with
	// that error.
	Apply(leaf Ref[N], i int) (txn.GroupUpdate, error)
	// After runs once a run is committed and unlatched, with the number of
	// items it covered: counters, and scheduling of the consolidation the
	// run made worthwhile (from what Apply noted under the latch).
	After(applied int)
}

// runs walks a batch of items in search-key order, one leaf-run at a
// time: the items from the cursor on that one leaf directly contains (and,
// for a write, has room for). Pooled, with the sort's, the run's lock
// names' and log records' scratch, so a steady stream of batches
// allocates nothing.
type runs struct {
	idx   []int // item indices, sorted by key
	tmp   []int // the sort's scratch
	pos   int   // first item not yet done
	need  int   // the open write run's byte need
	names []lock.Name
	ups   []txn.GroupUpdate
}

var runsPool sync.Pool

// takeRuns returns an iterator over items 0..n-1 ordered by less, items
// that compare equal staying in batch order.
func takeRuns(n int, less func(i, j int) bool) *runs {
	rs, _ := runsPool.Get().(*runs)
	if rs == nil {
		rs = new(runs)
	}
	if cap(rs.idx) < n {
		rs.idx, rs.tmp = make([]int, n), make([]int, n)
	}
	rs.idx, rs.tmp, rs.pos = rs.idx[:n], rs.tmp[:n], 0
	for i := range rs.idx {
		rs.idx[i] = i
	}
	sortStable(rs.idx, rs.tmp, less)
	return rs
}

// sortBlock is the length of the blocks sortStable insertion-sorts before
// it merges them.
const sortBlock = 16

// sortStable orders idx by less, items that compare equal keeping their
// order, in O(n log n) comparisons: insertion sort of short blocks, then
// bottom-up merges through tmp, a scratch slice as long as idx. A batch
// already in order costs len(idx)-1 comparisons. Nothing is allocated:
// sort.SliceStable's closure would be a heap allocation the
// zero-allocation read path cannot afford.
func sortStable(idx, tmp []int, less func(i, j int) bool) {
	n, sorted := len(idx), 1
	for sorted < n && !less(idx[sorted], idx[sorted-1]) {
		sorted++
	}
	if sorted >= n {
		return
	}
	for lo := 0; lo < n; lo += sortBlock {
		hi := min(lo+sortBlock, n)
		for i := lo + 1; i < hi; i++ {
			for j := i; j > lo && less(idx[j], idx[j-1]); j-- {
				idx[j-1], idx[j] = idx[j], idx[j-1]
			}
		}
	}
	src, dst := idx, tmp
	for w := sortBlock; w < n; w *= 2 {
		for lo := 0; lo < n; lo += 2 * w {
			mid, hi := min(lo+w, n), min(lo+2*w, n)
			merge(dst[lo:hi], src[lo:mid], src[mid:hi], less)
		}
		src, dst = dst, src
	}
	if &src[0] != &idx[0] {
		copy(idx, src)
	}
}

// merge writes the sorted a and b, merged, to dst; on a tie a's item
// comes first.
func merge(dst, a, b []int, less func(i, j int) bool) {
	if len(b) == 0 || !less(b[0], a[len(a)-1]) {
		copy(dst[copy(dst, a):], b) // already in order
		return
	}
	i, j, k := 0, 0, 0
	for ; i < len(a) && j < len(b); k++ {
		if less(b[j], a[i]) {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

func (rs *runs) free() {
	for i := range rs.ups {
		rs.ups[i] = txn.GroupUpdate{} // drop payload references
	}
	rs.ups = rs.ups[:0]
	runsPool.Put(rs)
}

// openRun descends to the leaf containing the cursor item — U-latched
// for a write, S for a read — extends the run over the following items
// that leaf directly contains (sorted order makes them contiguous), and
// takes the run's record locks, X or S, under the No-Wait rule — a run of
// several in one lock-manager interaction. A write (need set) also ends
// its run where the items' byte needs, summed into rs.need, would outgrow
// the leaf's free room: what lies beyond could not be applied there, and
// routing and locking it now would be repeated by the run after the
// leaf's split. So over one Update each item is routed and locked a
// constant number of times, not once per run left in the batch. Every
// batch locks its keys in sorted order, so two batches' acquisition
// orders agree and these locks alone cannot deadlock batch against
// batch; a conflict with a single-key writer falls back to the blocking
// path, where the waits-for detector is the backstop.
func (k *Kernel[N, K]) openRun(o *Op[N], rs *runs, key func(i int) K, name func(i int) lock.Name, need func(n N, i int) int, trace any) (Ref[N], []int, error) {
	write := need != nil
	lm, mode := latch.S, lock.S
	if write {
		lm, mode = latch.U, lock.X
	}
	leaf, err := k.Descend(o, key(rs.idx[rs.pos]), 0, lm, true, trace)
	if err != nil {
		return Ref[N]{}, nil, err
	}
	if write && !k.sp.Writable(leaf.N) {
		o.Release(&leaf)
		return Ref[N]{}, nil, ErrRetry
	}
	end, free := rs.pos+1, 0
	if write {
		free, rs.need = k.room-k.sp.EncodedSize(leaf.N), need(leaf.N, rs.idx[rs.pos])
	}
	for ; end < len(rs.idx); end++ {
		i := rs.idx[end]
		if k.sp.Route(leaf.N, key(i), true).Kind != Here {
			break
		}
		if write {
			b := need(leaf.N, i)
			if rs.need+b > free {
				break
			}
			rs.need += b
		}
	}
	run := rs.idx[rs.pos:end]
	if o.Txn == nil {
		return leaf, run, nil
	}
	if len(run) == 1 {
		err = o.LockDance(o.Txn, &leaf, name(run[0]), mode)
	} else {
		rs.names = rs.names[:0]
		for _, i := range run {
			rs.names = append(rs.names, name(i))
		}
		err = o.LockDanceBatch(o.Txn, &leaf, rs.names, mode)
	}
	if err != nil {
		return Ref[N]{}, nil, err
	}
	return leaf, run, nil
}

// Update is the leaf update action, the one write path of every tree
// (§4.1.2, §4.2.2, §4.3.1). Items 0..n-1, ordered by less (nil for a
// single item), are applied one leaf-run at a time; for each run:
//
//  1. descend with a U latch to the leaf containing the first item, let
//     the tree admit it (Space.Writable), and extend the run over the
//     items the leaf directly contains and has room for
//     (LeafWriter.Need);
//  2. take the run's record X locks under the No-Wait rule;
//  3. space-test: a full leaf is split by the tree and the run restarts;
//  4. take the tree's page-granule updater lock, if it has one
//     (Config.PageLock) — only now that this page will be modified;
//  5. log under tx, or with tx == nil under a fresh atomic action;
//  6. probe FPBatchApply: nothing of the run is logged or applied yet;
//  7. promote to X, grow the leaf's record buffer once by the run's need
//     (LeafWriter.Reserve; not for a run of one), apply item by item
//     until the leaf fills, and append the run's records — one as a
//     plain update, several as one group;
//  8. commit the atomic action before unlatching: no other action may
//     observe its changes until its commit record is in the log, or a
//     dependent commit could force the log without it and a crash would
//     undo a change others built on (relative durability). A commit
//     that cannot be made durable rolls the action back under the leaf's
//     latch (txn.Txn.CommitHeld);
//  9. unlatch, and let the tree count and schedule (LeafWriter.After).
//
// Undo and redo stay per record, so a crash mid-batch recovers each
// logged record independently — committed runs stay, the rest never
// happened.
func (k *Kernel[N, K]) Update(tx *txn.Txn, n int, less func(i, j int) bool, w LeafWriter[N, K]) error {
	rs := takeRuns(n, less)
	defer rs.free()
	attempt := func(o *Op[N]) error { return k.updateRun(o, rs, w) }
	for rs.pos < n {
		if err := k.RetryLoop(tx, attempt); err != nil {
			return err
		}
	}
	return nil
}

// updateRun is one attempt at the run under the cursor; on success the
// cursor moves past the items applied.
func (k *Kernel[N, K]) updateRun(o *Op[N], rs *runs, w LeafWriter[N, K]) error {
	tx := o.Txn
	leaf, run, err := k.openRun(o, rs, w.Key, w.LockName, w.Need, w.Trace())
	if err != nil {
		return err
	}
	if w.Full(leaf.N, run[0]) {
		if err := k.waitOut(o, w.Split(o, leaf)); err != nil {
			return err
		}
		return ErrRetry
	}
	if tx != nil && k.s.PageLock != nil {
		if err := o.LockDance(tx, &leaf, k.s.PageLock(leaf.Pid()), lock.IX); err != nil {
			return err
		}
	}
	act := tx
	if act == nil {
		act = k.s.TM.BeginAtomicAction()
	}

	ups, applied := rs.ups[:0], 0
	err = k.s.Store.Pool.Probe(FPBatchApply)
	if err == nil {
		o.Promote(&leaf)
		if len(run) > 1 {
			w.Reserve(leaf.N, rs.need)
		}
		for _, i := range run {
			if applied > 0 && w.Full(leaf.N, i) {
				break
			}
			var up txn.GroupUpdate
			if up, err = w.Apply(leaf, i); err != nil {
				break
			}
			if up.Payload != nil {
				ups = append(ups, up)
			}
			applied++
		}
		rs.ups = ups
	}
	switch len(ups) {
	case 0:
	case 1:
		act.LogUpdate(leaf.F, ups[0].Kind, ups[0].Payload)
	default:
		act.LogUpdateGroup(leaf.F, ups)
	}
	// Commit before unlatching (step 8).
	if tx == nil {
		if err != nil && len(ups) == 0 {
			_ = act.Abort() // nothing logged; an empty abort keeps the log tidy
		} else if cerr := act.CommitHeld(&o.Tr); cerr != nil {
			err = cerr
		}
	}
	o.Release(&leaf)
	if err != nil {
		return err
	}
	rs.pos += applied
	w.After(applied)
	return nil
}

// Undoer is what a tree supplies to Compensate: the logical undo of one
// record as items, each changed back on whatever leaf holds its key now.
// The methods are LeafWriter's (but Full may latch nodes ranked after the
// leaf: a TSB put's undo fetches what it re-carries); Next reports, under
// the latch of the leaf item i was applied to, whether item i+1 follows.
type Undoer[N, K any] interface {
	Key(i int) K
	Trace() any
	Full(n N, i int) bool
	Split(o *Op[N], leaf Ref[N]) error
	Apply(leaf Ref[N], i int) (txn.GroupUpdate, error)
	Next(n N, i int) bool
}

// Compensate is the logical undo of rec (§4.2, §6): w's items, from item 0
// on, logged as CLRs of tx, the transaction rolling back. For each, as in
// Update's leaf step: find the leaf its key routes Here in — one the
// rolling-back action's operation holds X-latched (tx.Held: a write whose
// commit failed rolls back under the write's latch), else by a U descent
// that schedules no completions; split a full leaf (an atomic action of
// its own; a held leaf cannot be) and restart; promote, Apply, and log
// the record as a CLR. The items that follow and route Here in that leaf go
// under the same latch. Every CLR but the last has UndoNext rec.LSN — a
// crash between them re-runs the whole undo, so items are idempotent —
// and the last rec.PrevLSN: a terminal CLR of no page when the last item
// changes nothing. No record lock, atomic action, FPBatchApply probe or
// After: a rollback is not a user operation.
func (k *Kernel[N, K]) Compensate(tx storage.CLRLogger, rec *wal.Record, w Undoer[N, K]) error {
	for i, more := 0, true; more; {
		err := k.RetryLoop(nil, func(o *Op[N]) (err error) {
			var leaf Ref[N]
			for j, tr := 0, tx.Held(); j < tr.HeldCount(); j++ {
				owner, mode := tr.Hold(j)
				if f, ok := owner.(*storage.Frame); ok && mode == latch.X {
					if n, ok := f.Data.(N); ok && k.sp.Level(n) == 0 && k.sp.Route(n, w.Key(i), true).Kind == Here {
						leaf = Ref[N]{F: f, N: n, Mode: latch.X}
					}
				}
			}
			held := leaf.F != nil
			if !held {
				if leaf, err = k.Descend(o, w.Key(i), 0, latch.U, false, w.Trace()); err != nil {
					return err
				}
			}
			if w.Full(leaf.N, i) {
				if held {
					return errors.New("pitree: no room to compensate in a leaf the rollback holds latched")
				}
				if err := k.waitOut(o, w.Split(o, leaf)); err != nil {
					return err
				}
				return ErrRetry
			}
			if !held {
				o.Promote(&leaf)
				defer o.Release(&leaf)
			}
			for {
				up, err := w.Apply(leaf, i)
				if err != nil {
					return err
				}
				undoNext := rec.PrevLSN
				if more = w.Next(leaf.N, i); more {
					undoNext = rec.LSN
				}
				if up.Payload != nil {
					tx.LogCLR(leaf.F, up.Kind, up.Payload, undoNext)
				} else if !more {
					tx.LogCLR(nil, 0, nil, undoNext)
				}
				if i++; !more || k.sp.Route(leaf.N, w.Key(i), true).Kind != Here || w.Full(leaf.N, i) {
					return nil
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ReadRuns is the read-side counterpart of Update: items 0..n-1, ordered
// by less, are looked up with one descent, one S-latch hold and — under
// a transaction — one lock-manager interaction per distinct leaf. read is
// handed each latched leaf with the items it directly contains. The
// retry loop is written out rather than going through RetryLoop, and the
// callbacks are only ever called, never stored, so a caller's closures
// stay on its stack: a batch of point reads allocates nothing.
func (k *Kernel[N, K]) ReadRuns(tx *txn.Txn, n int, less func(i, j int) bool, key func(i int) K, name func(i int) lock.Name, read func(leaf N, run []int)) error {
	rs := takeRuns(n, less)
	defer rs.free()
	for rs.pos < n {
		o := k.NewOp(tx)
		leaf, run, err := k.openRun(o, rs, key, name, nil, nil)
		if err == nil {
			read(leaf.N, run)
			o.Release(&leaf)
			rs.pos += len(run)
		}
		o.Done()
		if errors.Is(err, ErrRetry) {
			k.s.Restarts.Add(1)
		} else if err != nil {
			return err
		}
	}
	return nil
}
