package pitree

import (
	"cmp"
	"errors"

	"repro/internal/latch"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Absorber is what a tree supplies to Absorb: the parts of the
// consolidation atomic action that differ between trees. One value
// describes one attempt to free one node.
type Absorber[N any] interface {
	// Survivors latches the nodes that stay, each handed to o.Hold, and
	// re-tests them: parents before children, each promoted to X before
	// the next is latched (§4.1.1). It returns the page to free and its
	// level, or NilPage when a re-test failed.
	Survivors(o *Op[N]) (victim storage.PageID, level int, err error)
	// Victim re-tests the victim, U-latched behind the survivors: a failed
	// re-test never waits out the victim's readers.
	Victim(n N) bool
	// Cut logs under aa and applies the changes that unlink the victim
	// from the held survivors; the victim is X-latched and held too. False
	// abandons the action before anything is logged: a move lock that the
	// No-Wait rule (§4.1.2) forbids waiting for with latches held.
	Cut(aa *txn.Txn, victim *Ref[N]) (bool, error)
}

// errAbandoned ends an action whose Cut declined to log.
var errAbandoned = errors.New("pitree: consolidation abandoned")

// Absorb is the consolidation atomic action of §3.3, with the
// de-allocation of §5.2.2, written once: the only free of a node in every
// Π-tree.
//
//  1. Survivors: the tree latches and re-tests what stays;
//  2. with every survivor X, ask once whether a completion task names the
//     victim (Config.Tasks): a running posting may have found it live and
//     be about to latch it. Scheduling a new one needs a survivor's latch.
//     If one does, the free is deferred (Config.Deferred counts it);
//  3. latch the victim U behind the survivors, re-test it, promote it;
//  4. in one atomic action holding every node: Cut logs and applies the
//     unlink, the page goes back to the free-space map (Store.Free), and
//     the failpoint storage.FPConsolidate is probed;
//  5. commit, then unlatch (Op.Atomic). Redo replays the unlink and the
//     free, an incomplete action undoes both — under the latches the
//     action holds, which are every node it changed: a page is free if
//     and only if it is unlinked.
//
// freed is false when the attempt came to nothing: a failed re-test or a
// deferral begins no action, and an abandoned Cut aborts an empty one;
// none of them logs anything.
func (k *Kernel[N, K]) Absorb(o *Op[N], a Absorber[N]) (freed bool, err error) {
	defer o.unhold() // whatever no action took over
	pid, level, err := a.Survivors(o)
	if err != nil || pid == storage.NilPage {
		return false, err
	}
	if k.s.Tasks != nil && k.s.Tasks.Refs(PostKey(level+1, pid)) {
		k.s.Deferred.Add(1)
		return false, nil
	}
	victim, err := o.Acquire(pid, latch.U, level)
	if err != nil || !a.Victim(victim.N) {
		o.Release(&victim)
		return false, err
	}
	o.Promote(&victim)
	o.Hold(&victim)
	err = o.Atomic(func(aa *txn.Txn) error {
		if ok, err := a.Cut(aa, &victim); err != nil || !ok {
			return cmp.Or(err, errAbandoned)
		}
		if err := k.s.Store.Free(aa, &o.Tr, pid); err != nil {
			return err
		}
		return k.s.Store.Pool.Probe(storage.FPConsolidate)
	})
	if err == errAbandoned {
		return false, nil
	}
	return err == nil, err
}
