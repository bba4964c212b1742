package pitree

import (
	"errors"
	"fmt"

	"repro/internal/enc"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// FPSplit is the failpoint every split probes once it is logged and
// applied — the sibling formatted, the node cut or the root grown — and
// before the posting of the sibling is queued. A fault there aborts an
// action that has just created a page.
const FPSplit = "pitree.split"

// Cut is one node split as a tree chooses it (§3.2.1): where the node is
// cut and what its record says. A tree builds one value per split and hands
// it to Kernel.Split; its zero values, one per split kind, are listed in
// the tree's NodeKinds, whose Register installs each kind's redo (Apply)
// and undo (Undo). Methods handed a node run under its X latch.
type Cut[N any] interface {
	// Kind is the split record's kind.
	Kind() wal.Kind
	// Sibling builds, from n while it is still whole, the node the split
	// moves to the new page sib, and encodes the split record.
	Sibling(n N, sib storage.PageID) (N, []byte)
	// Apply cuts n as a split record's payload says: the split at run time,
	// and its redo. The payload may alias a log record: Apply copies what
	// it keeps.
	Apply(n N, payload []byte) error
	// Undo builds the compensation that takes a split back from its
	// record's payload and the sibling the record names, which sibling
	// reads — node and image — from that sibling's format record.
	Undo(payload []byte, sibling func(storage.PageID) (N, []byte, error)) (storage.Compensation, error)
	// Done counts the split once it is logged and applied. n is the node
	// as the split left it and sib the new sibling — or, when the root
	// grew in place (grew), its new children A and B.
	Done(n, sib N, grew bool)
	// Post runs once the splitting action has committed, never before: it
	// queues the posting of sib's term in node's parent (§3.2.1 step 6) and
	// whatever else the tree owes a committed split. A growth owes none.
	Post(node, sib storage.PageID)
}

// Split is the half split of §3.2.1, the one split of every node of every
// Π-tree, written once. The X-latched node is cut as the tree's cut says,
// as part of act — an atomic action, or the updating transaction itself
// when the tree's undo discipline requires (§4.2.1):
//
//  1. allocate the sibling's page (alloc: a data page of a tree with a
//     page lock is move-locked for act before anyone can reach it);
//  2. build the sibling and the split record from the node as it is: the
//     node changes only once its own record is logged, after a format
//     that can fail;
//  3. at the root, grow in place (grow); elsewhere format the sibling, log
//     the split record under act and apply it (Cut.Apply, its redo);
//  4. let the tree count (Cut.Done) and probe FPSplit;
//  5. queue Cut.Post on act's commit, never before: a completing action
//     must never post a term for a page whose creation is then undone.
//
// The node stays latched; an error leaves act to be aborted by its owner.
func (k *Kernel[N, K]) Split(o *Op[N], act *txn.Txn, node *Ref[N], cut Cut[N]) error {
	level := k.sp.Level(node.N)
	pidB, err := k.alloc(o, act, level)
	if err != nil {
		return err
	}
	b, payload := cut.Sibling(node.N, pidB)
	n, grew := node.N, node.Pid() == k.s.Root
	if grew {
		n, err = k.grow(o, act, node, cut, level, pidB, b, payload)
	} else if err = k.format(o, act, pidB, b); err == nil {
		act.LogUpdate(node.F, cut.Kind(), payload)
		err = cut.Apply(n, payload)
	}
	if err != nil {
		return err
	}
	cut.Done(n, b, grew)
	if err := k.s.Store.Pool.Probe(FPSplit); err != nil {
		return err
	}
	if !grew {
		pid := node.Pid()
		act.OnCommit(func() { cut.Post(pid, pidB) })
	}
	return nil
}

// grow is the root case of a split, the one growth of every Π-tree (§5.3
// Space Test, root case): the root never moves and is never de-allocated
// (§5.2.2 relies on it). Its contents go to two new nodes and it becomes an
// index node one level up over them: B, the sibling the split built on
// pidB, and A, a clone of the root with the cut applied — what the split
// would have left — on a page allocated after B's. grow formats B, then A,
// logs the growth — the two terms, A's first, and the root's image as it
// was, for the undo — and raises the root. It returns A.
func (k *Kernel[N, K]) grow(o *Op[N], act *txn.Txn, root *Ref[N], cut Cut[N], level int, pidB storage.PageID, b N, payload []byte) (N, error) {
	var a N
	pidA, err := k.alloc(o, act, level)
	if err != nil {
		return a, err
	}
	a = k.sp.Clone(root.N)
	if err := cut.Apply(a, payload); err != nil {
		return a, err
	}
	terms := k.kinds.Term(k.kinds.Term(nil, a, pidA), b, pidB)
	recs, _, err := enc.Load(terms, 2, k.kinds.Layout)
	if err != nil {
		return a, err
	}
	if err := k.format(o, act, pidB, b); err != nil {
		return a, err
	}
	if err := k.format(o, act, pidA, a); err != nil {
		return a, err
	}
	act.LogUpdate(root.F, k.kinds.Grow, append(terms, k.kinds.Image(root.N)...))
	k.kinds.Raise(root.N, recs)
	return a, nil
}

// alloc allocates the page of a new node at level as part of act. For a
// data page of a tree with a page lock (Config.PageLock: page-oriented
// undo) it also takes the page's move lock before the page becomes
// reachable, so that no updater can slip a record into it before act is
// committed (or, for a split inside a transaction, finished). A stale
// holder of that name — a transaction that knew the page's previous
// incarnation — makes it give the page back and return a pageLocked, which
// the leaf write waits out once its latch is released (waitOut).
func (k *Kernel[N, K]) alloc(o *Op[N], act *txn.Txn, level int) (storage.PageID, error) {
	pid, err := k.s.Store.Alloc(act, &o.Tr)
	if err != nil || level != 0 || k.s.PageLock == nil {
		return pid, err
	}
	name := k.s.PageLock(pid)
	if act.TryLock(name, lock.MV) {
		return pid, nil
	}
	if err := k.s.Store.Free(act, &o.Tr, pid); err != nil {
		return storage.NilPage, err
	}
	return storage.NilPage, pageLocked(name)
}

// pageLocked reports that a freshly allocated page's lock name is still
// held by a transaction that knew the page's previous incarnation; the
// split backs off and waits it out.
type pageLocked lock.Name

func (e pageLocked) Error() string {
	return "pitree: new page's lock name still held: " + lock.Name(e).String()
}

// waitOut passes on the outcome of a leaf split whose latch is already
// released, except that for a new page's stale lock (pageLocked) it first
// waits the holder out and then asks for a retry. The wait needs a lock
// owner and touches no latch: an atomic action that only ever holds the
// lock, then ends empty.
func (k *Kernel[N, K]) waitOut(o *Op[N], err error) error {
	var pl pageLocked
	if !errors.As(err, &pl) {
		return err
	}
	if k.s.MoveLockWaits != nil {
		k.s.MoveLockWaits.Add(1)
	}
	w := k.s.TM.BeginAtomicAction()
	lerr := o.LockWait(w, lock.Name(pl), lock.MV)
	_ = w.Abort()
	if lerr != nil {
		return lerr
	}
	return ErrRetry
}

// siblingImage returns the image of the sibling a split created: the
// payload of the format record the action logged immediately before the
// split record rec, so reachable as rec.PrevLSN. A split record says where
// the node was cut, not what it held; its undo reads what left from here.
func siblingImage(log storage.LogReader, rec *wal.Record, format wal.Kind, sib storage.PageID) ([]byte, error) {
	f, err := log.Read(rec.PrevLSN)
	if err != nil {
		return nil, fmt.Errorf("pitree: undo of split at LSN %d: sibling image: %w", rec.LSN, err)
	}
	if f.Type != wal.RecUpdate || f.Kind != format || f.TxnID != rec.TxnID || f.StoreID != rec.StoreID || f.PageID != uint64(sib) {
		return nil, fmt.Errorf("pitree: undo of split at LSN %d: record at %d is %s kind %d of txn %d for page %d, not the format of sibling %d",
			rec.LSN, f.LSN, f.Type, f.Kind, f.TxnID, f.PageID, sib)
	}
	return f.Payload, nil
}
