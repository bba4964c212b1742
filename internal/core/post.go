package core

import (
	"errors"

	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/pitree"
	"repro/internal/storage"
	"repro/internal/txn"
)

// indexPost is the tree's side of the kernel's posting action
// (pitree.Poster), the completing atomic action of §5.3: post the index
// term describing a split at task.level. The kernel runs the paper's four
// steps — Search, Verify Split, Space Test, Update NODE — and the action
// ends silently whenever the re-tested tree state shows the posting is
// already done or no longer needed, which is what makes completion
// idempotent and duplicate schedulings harmless.
type indexPost struct {
	t    *Tree
	task postTask
	// key and child are the term actually posted: under CP the current
	// sibling of the child on the search path, possibly "a new ADDRESS".
	key   keys.Key
	child storage.PageID
}

// Search is §5.3 step 1: reach the U-latched NODE at LEVEL whose directly
// contained space includes KEY, exploiting the saved path where the
// invariant in force permits (§5.2).
func (p *indexPost) Search(o *opCtx) (nref, error) {
	node, err := p.t.searchToLevel(o, p.task)
	if errors.Is(err, errLevelGone) {
		p.t.Stats.PostsObsolete.Add(1)
	}
	return node, err
}

// Verify is step 2, Verify Split: re-test the state.
func (p *indexPost) Verify(o *opCtx, node *nref) (bool, error) {
	t, sep := p.t, p.task.sep
	if _, posted := node.N.search(sep); posted {
		t.Stats.PostsAlreadyDone.Add(1)
		return false, nil
	}
	p.key, p.child = keys.Clone(sep), p.task.newPid
	if t.opts.Consolidation {
		// CP: the split child may have been consolidated away, or further
		// split; verify by visiting the child with the largest index term
		// key below KEY and checking its sibling term (§5.3). The term
		// actually posted is that sibling.
		e, ok := node.N.childFor(sep)
		if !ok {
			t.Stats.PostsObsolete.Add(1)
			return false, nil
		}
		child, err := o.Acquire(e.Child, latch.S, node.N.Level-1)
		if err != nil {
			return false, err
		}
		dead := child.N.Dead
		// The space containing KEY has been reabsorbed: the node whose
		// index term was to be posted has been deleted.
		gone := child.N.DirectlyContains(sep) || child.N.Right == storage.NilPage
		if !dead && !gone {
			p.key, p.child = keys.Clone(child.N.High.Key), child.N.Right
		}
		o.Release(&child)
		if dead {
			return false, errRetry
		}
		if gone {
			t.Stats.PostsObsolete.Add(1)
			return false, nil
		}
		if _, posted := node.N.search(p.key); posted {
			t.Stats.PostsAlreadyDone.Add(1)
			return false, nil
		}
	}
	// In page-oriented mode a move-locked split's posting must wait for
	// the moving transaction's commit; its commit hook will reschedule. (A
	// traversal would not even have scheduled us, but a crash-recovered
	// queue entry or stale task could.)
	if t.binding.PageOriented() && t.lm.MoveLocked(t.pageLockName(p.child)) {
		t.Stats.PostsSuppressedMV.Add(1)
		return false, nil
	}
	return true, nil
}

// Full is step 3, the Space Test: the fan-out is reached, or the term
// would not fit in the page.
func (p *indexPost) Full(n *Node) bool {
	return n.Len() >= p.t.opts.IndexCapacity || !p.t.kern.Fits(n, termSize(p.key))
}

// Key is the term actually posted, as Verify chose it.
func (p *indexPost) Key() keys.Key { return p.key }

// Split cuts the full NODE in half; the sibling's posting, one level up,
// starts from a copy of the saved path.
func (p *indexPost) Split(node *nref) (pitree.Cut[*Node], error) {
	return p.t.cutOf(node.N, p.task.path.clone())
}

// Apply is step 4, Update NODE.
func (p *indexPost) Apply(_ *opCtx, aa *txn.Txn, node *nref) error {
	aa.LogUpdate(node.F, KindPostIndexTerm, appendTerm(nil, p.key, p.child))
	node.N.insertEntry(Entry{Key: p.key, Child: p.child})
	return nil
}

// searchToLevel implements §5.3 step 1 plus the §5.2 saved-state rules:
//
//   - CNS invariant: nodes are immortal, so re-traversals start directly
//     at the remembered parent and side-traverse right.
//   - CP with "de-allocation is a node update" (strategy (b)): the
//     remembered parent may be used iff its state identifier is unchanged
//     (a de-allocation would have bumped it); otherwise fall back to a
//     root descent.
//   - CP with "de-allocation is not a node update" (strategy (a)): the
//     remembered node cannot be proven allocated, so re-traversals start
//     at the root, which never moves and is never de-allocated.
func (t *Tree) searchToLevel(o *opCtx, task postTask) (nref, error) {
	if pe, ok := task.path.get(task.level); ok && (!t.opts.Consolidation || t.opts.DeallocIsUpdate) {
		r, err := o.Acquire(pe.pid, latch.U, task.level)
		if err == nil {
			trusted := r.N.Level == task.level &&
				(r.N.Low == nil || keys.Compare(task.sep, r.N.Low) >= 0)
			if t.opts.Consolidation {
				// Strategy (b): unchanged state id proves the node is
				// still allocated and exactly as remembered.
				trusted = trusted && r.F.PageLSN() == pe.lsn && !r.N.Dead
			}
			if trusted {
				if r.F.PageLSN() == pe.lsn {
					t.Stats.PathVerifyHits.Add(1)
				} else {
					t.Stats.PathVerifyMisses.Add(1)
				}
				return t.kern.DescendFrom(o, r, task.sep, task.level, latch.U, false, nil)
			}
			o.Release(&r)
		}
		t.Stats.PathVerifyMisses.Add(1)
	}
	return t.descendTo(o, task.sep, task.level, latch.U, false, nil)
}
