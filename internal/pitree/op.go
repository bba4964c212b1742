package pitree

import (
	"fmt"
	"time"

	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Op carries one operation's latch-order state. Ranks are derived from
// the tree level (parents before children) plus a per-operation sequence
// number (containing nodes before the contained nodes along a side
// chain). Contexts are pooled per kernel: obtain one with NewOp, return
// it with Done (which also asserts no latches leaked).
type Op[N any] struct {
	s *shared
	// Txn is the transaction the operation runs for; nil for plain reads
	// and for atomic actions that log through their own handle.
	Txn *txn.Txn
	// Tr records every latch the operation holds, with its mode and
	// frame: it checks their order, space management takes it so the
	// meta page's latch is ordered after every node's, and the
	// operation's atomic actions commit and undo under what it records.
	Tr  latch.Tracker
	seq uint64
	// held is the atomic-action frame's state (Atomic): the latches kept
	// to the action's end, in acquisition order, released when it ends.
	held []*Ref[N]
}

// NewOp checks out a pooled operation context.
func (k *Kernel[N, K]) NewOp(tx *txn.Txn) *Op[N] {
	o, _ := k.s.ops.Get().(*Op[N])
	if o == nil {
		o = &Op[N]{s: &k.s}
	}
	o.Txn = tx
	o.seq = 0
	o.Tr.Reset()
	return o
}

// Done asserts the operation released everything and returns the context
// to the pool. Callers must not touch o afterwards.
func (o *Op[N]) Done() {
	o.Tr.AssertNoneHeld()
	o.Txn = nil
	o.s.ops.Put(o)
}

// Rank returns the next latch rank at level: higher levels first, then
// acquisition order within the operation.
func (o *Op[N]) Rank(level int) latch.Rank {
	o.seq++
	return latch.Rank(uint64(MaxLevel-level)<<40 | (o.seq & (1<<40 - 1)))
}

// Ref is a pinned, latched node reference.
type Ref[N any] struct {
	F    *storage.Frame
	N    N
	Mode latch.Mode
	// since is the acquisition time of an instrumented index-node hold, as
	// an offset from epoch (monotonic); zero for untimed holds.
	since time.Duration
}

var epoch = time.Now()

// Pid returns the referenced page's ID.
func (r *Ref[N]) Pid() storage.PageID { return r.F.ID }

// Acquire pins and latches pid in mode. A frame that does not hold a
// node of this tree is an error, not a panic: the page ID may have come
// from a log record or a stale pointer.
func (o *Op[N]) Acquire(pid storage.PageID, mode latch.Mode, level int) (Ref[N], error) {
	f, err := o.s.Store.Pool.Fetch(pid)
	if err != nil {
		return Ref[N]{}, err
	}
	f.Latch.Acquire(mode)
	o.Tr.Acquired(f, o.Rank(level), mode)
	n, ok := f.Data.(N)
	if !ok {
		o.Tr.Released(f)
		f.Latch.Release(mode)
		o.s.Store.Pool.Unpin(f)
		return Ref[N]{}, fmt.Errorf("%s: page %d holds %T, not a node", o.s.Name, pid, f.Data)
	}
	r := Ref[N]{F: f, N: n, Mode: mode}
	if o.s.IndexHold != nil && level >= 1 && mode != latch.S {
		r.since = time.Since(epoch)
	}
	return r, nil
}

// Release unlatches and unpins each reference, in the order given;
// releasing a released reference is a no-op.
func (o *Op[N]) Release(refs ...*Ref[N]) {
	for _, r := range refs {
		if r.F == nil {
			continue
		}
		if r.since != 0 {
			o.s.IndexHold.Observe(time.Since(epoch) - r.since)
		}
		o.Tr.Released(r.F)
		r.F.Latch.Release(r.Mode)
		o.s.Store.Pool.Unpin(r.F)
		*r = Ref[N]{}
	}
}

// Promote upgrades r from U to X, honoring the §4.1.1 promotion rule
// (the tracker panics if a higher-ranked latch is held).
func (o *Op[N]) Promote(r *Ref[N]) {
	if r.Mode != latch.U {
		panic(o.s.Name + ": promote of non-U reference")
	}
	r.F.Latch.Promote()
	o.Tr.Promoted(r.F)
	r.Mode = latch.X
}

// Atomic runs body as one atomic action of the operation — the bracket of
// §4.3.1 around every structure change. body logs, locks and allocates
// through aa and hands the latches to be kept to the action's end to Hold.
//
//   - body returns nil: the action commits BEFORE any latch drops, so no
//     other action can observe its changes, build on them and commit ahead
//     of it (relative durability); then the held latches are released,
//     last acquired first. A commit that cannot make the action durable
//     rolls it back under the held latches (txn.Txn.CommitHeld). What
//     must wait for the commit — scheduling the posting of a node the
//     action created — is registered with aa.OnCommit: it runs only if the
//     commit succeeded, and still under the latches.
//   - body returns an error: the action is aborted, and only then are the
//     held latches released, so no other action sees changes that are
//     about to be undone — or builds on them and commits. Undo compensates
//     the pages the action changed under the X latches the operation
//     holds on them, as its tracker records them (txn.Txn.AbortHeld).
//     Every node an action changes is held in X, so undo never waits for
//     a latch the operation keeps; an undo on a page it holds in another
//     mode is an error naming the page. The error is returned as it
//     came, unless the rollback failed too: the action is then doomed
//     (txn.ErrDoomed) and that is the error returned, naming body's in
//     its text only, so that a retry body asked for cannot restart an
//     operation on a degraded engine.
//
// Actions of one operation run one after another, never nested.
func (o *Op[N]) Atomic(body func(aa *txn.Txn) error) error {
	aa := o.s.TM.BeginAtomicAction()
	err := body(aa)
	if err == nil {
		err = aa.CommitHeld(&o.Tr)
	} else if aerr := aa.AbortHeld(&o.Tr); aerr != nil {
		err = fmt.Errorf("%s: action failed (%v): %w", o.s.Name, err, aerr)
	}
	o.unhold()
	return err
}

// Hold keeps the references, given in acquisition order, latched until
// the current — or, before one begins, the next — atomic action ends,
// whichever way it ends; Atomic releases them then and zeroes the
// variables. The caller goes on reading, promoting and changing the nodes
// through them, and must not reuse a variable for another latch meanwhile.
func (o *Op[N]) Hold(refs ...*Ref[N]) { o.held = append(o.held, refs...) }

// unhold releases the held references, last acquired first.
func (o *Op[N]) unhold() {
	for i := len(o.held) - 1; i >= 0; i-- {
		o.Release(o.held[i])
		o.held[i] = nil
	}
	o.held = o.held[:0]
}

// LockDance acquires a database lock for tx under the No-Wait rule
// (§4.1.2): if the lock is free it is taken without waiting and nil is
// returned with the latch kept. Otherwise the held latch is released
// before blocking, and the result is the lock error or, once the lock is
// granted, ErrRetry: the operation restarts (the lock stays held, so the
// retry's TryLock succeeds immediately). A nil tx takes no lock.
func (o *Op[N]) LockDance(tx *txn.Txn, r *Ref[N], name lock.Name, mode lock.Mode) error {
	if tx == nil || tx.TryLock(name, mode) {
		return nil
	}
	o.Release(r)
	if err := o.LockWait(tx, name, mode); err != nil {
		return err
	}
	return ErrRetry
}

// LockDanceBatch is LockDance for a run of names taken in one lock-
// manager interaction; on conflict it blocks on the first name that
// could not be granted.
func (o *Op[N]) LockDanceBatch(tx *txn.Txn, r *Ref[N], names []lock.Name, mode lock.Mode) error {
	if tx == nil {
		return nil
	}
	fail := tx.TryLockBatch(names, mode)
	if fail < 0 {
		return nil
	}
	o.Release(r)
	if err := o.LockWait(tx, names[fail], mode); err != nil {
		return err
	}
	return ErrRetry
}

// LockWait blocks until tx holds name in mode; the caller holds no latch.
// Every wait that follows a released latch comes through here. When tx
// is an atomic action running inside the operation's own transaction (a
// split's move lock, §4.2.2), that transaction is blocked too, and the
// deadlock detector is told so: a cycle through the locks it holds then
// has a victim instead of hanging.
func (o *Op[N]) LockWait(tx *txn.Txn, name lock.Name, mode lock.Mode) error {
	return tx.LockFor(o.Txn, name, mode)
}
