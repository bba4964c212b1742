package core

import (
	"errors"

	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/storage"
)

// postIndexTerm is the completing atomic action of §5.3: post the index
// term describing a split at task.level. It follows the paper's four
// steps — Search, Verify Split, Space Test, Update NODE — and terminates
// silently whenever the re-tested tree state shows the posting is already
// done or no longer needed, which is what makes completion idempotent and
// duplicate schedulings harmless.
func (t *Tree) postIndexTerm(task postTask) {
	t.Stats.PostAttempts.Add(1)
	err := t.kern.RetryLoop(nil, func(o *opCtx) error {

		// Step 1 — Search: reach the U-latched NODE at LEVEL whose
		// directly contained space includes KEY, exploiting the saved
		// path where the invariant in force permits (§5.2).
		node, err := t.searchToLevel(o, task)
		if err != nil {
			if errors.Is(err, errLevelGone) {
				t.Stats.PostsObsolete.Add(1)
				return nil
			}
			return err
		}

		// Step 2 — Verify Split: re-test the state.
		if _, posted := node.N.search(task.sep); posted {
			t.Stats.PostsAlreadyDone.Add(1)
			o.Release(&node)
			return nil
		}
		termKey := keys.Clone(task.sep)
		termChild := task.newPid
		if t.opts.Consolidation {
			// CP: the split child may have been consolidated away, or
			// further split; verify by visiting the child with the
			// largest index term key below KEY and checking its sibling
			// term (§5.3). The term actually posted is that sibling —
			// possibly "a new ADDRESS".
			e, ok := node.N.childFor(task.sep)
			if !ok {
				t.Stats.PostsObsolete.Add(1)
				o.Release(&node)
				return nil
			}
			child, err := o.Acquire(e.Child, latch.S, node.N.Level-1)
			if err != nil {
				o.Release(&node)
				return err
			}
			if child.N.Dead {
				o.Release(&child, &node)
				return errRetry
			}
			if child.N.DirectlyContains(task.sep) || child.N.Right == storage.NilPage {
				// The space containing KEY has been reabsorbed: the node
				// whose index term was to be posted has been deleted.
				t.Stats.PostsObsolete.Add(1)
				o.Release(&child, &node)
				return nil
			}
			termKey = keys.Clone(child.N.High.Key)
			termChild = child.N.Right
			o.Release(&child)
			if _, posted := node.N.search(termKey); posted {
				t.Stats.PostsAlreadyDone.Add(1)
				o.Release(&node)
				return nil
			}
		}
		// In page-oriented mode a move-locked split's posting must wait
		// for the moving transaction's commit; its commit hook will
		// reschedule. (A traversal would not even have scheduled us, but
		// a crash-recovered queue entry or stale task could.)
		if t.binding.PageOriented() && t.lm.MoveLocked(t.pageLockName(termChild)) {
			t.Stats.PostsSuppressedMV.Add(1)
			o.Release(&node)
			return nil
		}

		// The action now updates the tree: start the atomic action and
		// make NODE exclusively ours. (Promotion is safe: only the U
		// latch on NODE is held.) Every latch the action takes from here
		// on is RETAINED until the action commits — §5.3 releases all
		// latches at the end of the action — so no concurrent action can
		// observe, and build on, an uncommitted intermediate of this one.
		// Follow-up postings for splits performed inside this action are
		// likewise queued only after it commits.
		aa := t.tm.BeginAtomicAction()
		var followUps []postTask
		var held []nref
		releaseAll := func() {
			o.Release(&node)
			for i := len(held) - 1; i >= 0; i-- {
				o.Release(&held[i])
			}
			held = nil
		}
		o.Promote(&node)

		// Step 3 — Space Test.
		for len(node.N.Entries) >= t.opts.IndexCapacity {
			sep2, newPid2, err := t.splitNode(o, &node, aa)
			if err != nil {
				releaseAll()
				_ = aa.Abort()
				return err
			}
			if newPid2 == storage.NilPage {
				// The root grew in place; NODE's old contents are now one
				// level down. Descend to whichever new node directly
				// contains KEY and repeat the space test there.
				childEntry, ok := node.N.childFor(termKey)
				if !ok {
					releaseAll()
					_ = aa.Abort()
					return errRetry
				}
				next, err := o.Acquire(childEntry.Child, latch.X, node.N.Level-1)
				if err != nil {
					releaseAll()
					_ = aa.Abort()
					return err
				}
				held = append(held, node)
				node = next
				continue
			}
			// Regular split: keep the half that directly contains KEY,
			// and queue the posting of this split one level up.
			followUps = append(followUps, postTask{
				level:  node.N.Level + 1,
				sep:    keys.Clone(sep2),
				newPid: newPid2,
				path:   task.path.clone(),
			})
			if !node.N.DirectlyContains(termKey) {
				next, err := o.Acquire(node.N.Right, latch.X, node.N.Level)
				if err != nil {
					releaseAll()
					_ = aa.Abort()
					return err
				}
				held = append(held, node)
				node = next
			}
		}

		// Step 4 — Update NODE, commit, and only then release latches.
		lsn := aa.LogUpdate(t.store.Pool.StoreID, uint64(node.Pid()), KindPostIndexTerm, encTerm(termKey, termChild))
		node.N.insertEntry(Entry{Key: termKey, Child: termChild})
		node.F.MarkDirty(lsn)
		err = aa.Commit()
		releaseAll()
		if err != nil {
			return err
		}
		for _, fu := range followUps {
			t.schedulePost(fu)
		}
		t.Stats.PostsPerformed.Add(1)
		return nil
	})
	if err != nil {
		// Completing actions are best-effort: the intermediate state is
		// well-formed and a later traversal will rediscover it. Count it.
		t.Stats.PostsObsolete.Add(1)
	}
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
