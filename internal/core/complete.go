package core

import (
	"repro/internal/keys"
	"repro/internal/pitree"
	"repro/internal/storage"
)

// Completing-action kinds, for the kernel queue's duplicate folding.
const (
	taskPost uint8 = iota + 1
	taskConsolidate
	taskRootShrink
)

// postTask asks for the index term describing a split to be posted at
// `level` (§5.3's LEVEL): sep is the new node's low key (the KEY searched
// for), newPid its address, and path the remembered traversal (§5.2).
type postTask struct {
	level  int
	sep    keys.Key
	newPid storage.PageID
	path   Path
}

// consolidateTask asks for an attempt to consolidate the under-utilized
// node pid (whose responsible space starts at low) at `level`.
type consolidateTask struct {
	level int
	low   keys.Key
	pid   storage.PageID
}

// task is one queued completing action: a posting, a consolidation
// attempt, or (neither payload used) a height-reduction attempt.
type task struct {
	kind uint8
	post postTask
	cons consolidateTask
}

// completer is the kernel's completion queue carrying this tree's tasks.
// Duplicate schedulings of a queued task are folded together; duplicates
// that slip through are harmless because every completing action
// re-tests the tree state before changing anything (§5.1).
type completer = pitree.Queue[task]

func newCompleter(t *Tree) *completer {
	return pitree.NewQueue(pitree.QueueConfig[task]{
		Run: t.runTask,
		// Consolidation is paced so merges never convoy foreground
		// mutators; index-term posts complete structure changes the
		// foreground is already navigating around.
		Paced:    func(k task) bool { return k.kind != taskPost },
		Governor: t.opts.Governor,
		Workers:  t.opts.CompletionWorkers,
		Sync:     t.opts.SyncCompletion,
	})
}

func (t *Tree) runTask(k task) {
	switch k.kind {
	case taskPost:
		// Completing actions are best-effort: the intermediate state is
		// well-formed and a later traversal will rediscover it.
		t.Stats.PostAttempts.Add(1)
		if posted, err := t.kern.Post(&indexPost{t: t, task: k.post}); err != nil {
			t.Stats.PostsFailed.Add(1)
		} else if posted {
			t.Stats.PostsPerformed.Add(1)
		}
	case taskConsolidate:
		t.consolidate(k.cons)
	case taskRootShrink:
		t.shrinkRoot()
	}
}

// schedulePost queues a posting. The dedup key carries the separator as
// a fingerprint, so scheduling from the hot path allocates no strings.
func (t *Tree) schedulePost(p postTask) {
	t.Stats.PostsScheduled.Add(1)
	t.comp.Schedule(postKey(p), task{kind: taskPost, post: p})
}

func postKey(p postTask) pitree.TaskKey {
	return pitree.TaskKey{Kind: taskPost, Level: p.level, Pid: p.newPid, Sep: pitree.Fingerprint(p.sep)}
}

func (t *Tree) scheduleConsolidate(c consolidateTask) {
	t.comp.Schedule(pitree.TaskKey{Kind: taskConsolidate, Level: c.level, Pid: c.pid}, task{kind: taskConsolidate, cons: c})
}

func (t *Tree) scheduleRootShrink() {
	t.comp.Schedule(pitree.TaskKey{Kind: taskRootShrink}, task{kind: taskRootShrink})
}
