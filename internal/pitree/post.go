package pitree

import (
	"errors"

	"repro/internal/latch"
	"repro/internal/txn"
)

// FPPost is the failpoint every posting action probes once its space test
// is done — any index split it needed is logged and applied — and before
// the term is logged: the twin of FPBatchApply in Update. A fault there
// aborts an action that may already have created a sibling.
const FPPost = "pitree.post"

// Poster is what a tree supplies to Post: the parts of the §5.3 posting
// action that differ between trees. One value describes one index term
// and serves every restart of its action.
type Poster[N, K any] interface {
	// Search returns, U-latched, the node at the term's level whose
	// directly contained space includes the term's key: a plain Descend,
	// or DescendFrom a saved path the tree may still trust (§5.2).
	// ErrLevelGone means the level does not exist: nothing is owed until
	// the root grows.
	Search(o *Op[N]) (Ref[N], error)
	// Verify re-tests the state under node's U latch and reports whether
	// the term is still to be posted: not when it is there already, when
	// the child it names was consolidated away, retired or freed, or when
	// the posting must wait for a move lock. It may visit the child (S,
	// released before it returns: node is still to be promoted, and the
	// promotion rule forbids a lower latch meanwhile). The kernel releases
	// node after a false or an error.
	Verify(o *Op[N], node *Ref[N]) (bool, error)
	// Key is the term's search key, as Verify left it.
	Key() K
	// Full is the space test: the X-latched node has no room for the term.
	Full(n N) bool
	// Split chooses the cut that makes room in the full, X-latched node,
	// or nil when no split helps (soft overflow): the term then goes into
	// the node as it is.
	Split(node *Ref[N]) (Cut[N], error)
	// Apply logs the term under aa and inserts it into the X-latched node.
	// A term that describes the child's present state is built here, from
	// the child latched S — after every index latch of the action: parents
	// before children — and handed to o.Hold: what the term says cannot
	// move before the action's commit record is in the log.
	Apply(o *Op[N], aa *txn.Txn, node *Ref[N]) error
}

// Post is the index-term posting action of §5.3, the one completing
// action every Π-tree needs, written once:
//
//  1. Search: reach the U-latched node that is to take the term;
//  2. Verify: re-test the state, which is what makes a duplicate or stale
//     posting a no-op — nothing is begun or logged for one;
//  3. promote (only that one latch is held) and begin the atomic action;
//  4. Space test: while the node is full it is split inside the action
//     at the cut the tree chooses (Split), and the posting continues in
//     whichever node directly contains the key: the node itself, its new
//     sibling or, when the root grew in place, the child that now does.
//     Every node visited stays X-latched to the end of the action (§5.3
//     releases all latches at the end), so no other action sees an
//     uncommitted intermediate state;
//  5. probe FPPost;
//  6. Update: log and apply the term;
//  7. commit — postings for the siblings step 4 created are queued only
//     now (aa.OnCommit), so no completing action can post a term for a
//     page whose creation is then undone — and unlatch. Any error from
//     step 4 on releases the latches and aborts the action (Op.Atomic).
//
// posted is false when the re-test found nothing to do.
func (k *Kernel[N, K]) Post(p Poster[N, K]) (posted bool, err error) {
	err = k.RetryLoop(nil, func(o *Op[N]) error {
		posted = false
		first, err := p.Search(o)
		if errors.Is(err, ErrLevelGone) {
			return nil
		}
		if err != nil {
			return err
		}
		node := &first
		if ok, err := p.Verify(o, node); !ok || err != nil {
			o.Release(node)
			return err
		}
		o.Promote(node)
		err = o.Atomic(func(aa *txn.Txn) error {
			o.Hold(node)
			// A sibling, and the root's children after it grew in place,
			// are at the level node had before the split.
			for lvl := k.sp.Level(node.N); p.Full(node.N); {
				cut, err := p.Split(node)
				if err != nil {
					return err
				}
				if cut == nil {
					break
				}
				if err := k.Split(o, aa, node, cut); err != nil {
					return err
				}
				r := k.sp.Route(node.N, p.Key(), k.sp.Level(node.N) == lvl)
				switch r.Kind {
				case Here:
					continue
				case Restart:
					return ErrRetry
				}
				// next is a fresh variable each time round: Hold keeps its
				// address.
				next, err := o.Acquire(r.Pid, latch.X, lvl)
				if err != nil {
					return err
				}
				node = &next
				o.Hold(node)
			}
			if err := k.s.Store.Pool.Probe(FPPost); err != nil {
				return err
			}
			return p.Apply(o, aa, node)
		})
		posted = err == nil
		return err
	})
	return posted, err
}
