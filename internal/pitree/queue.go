package pitree

import (
	"sync"
	"sync/atomic"

	"repro/internal/maint"
	"repro/internal/storage"
)

// TaskKey identifies a completing action for duplicate folding and for
// Refs. It is a comparable value, so scheduling from the hot path —
// typically under the latch of the node whose side pointer was just
// followed — allocates nothing. Kind is the tree's own task kind; Sep is
// a fingerprint of a separator key for trees whose postings are not
// identified by level and page alone.
type TaskKey struct {
	Kind  uint8
	Level int
	Pid   storage.PageID
	Sep   uint64
}

// TaskPost is the TaskKey.Kind of every tree's postings.
const TaskPost uint8 = 1

// PostKey keys the posting of child's term at level: the task Absorb asks
// Config.Tasks about before it frees child.
func PostKey(level int, child storage.PageID) TaskKey {
	return TaskKey{Kind: TaskPost, Level: level, Pid: child}
}

// Fingerprint is FNV-1a over b, for TaskKey.Sep. A collision folds two
// distinct tasks, which lazy completion repairs the next time a
// traversal crosses the unposted sibling (§5.1: every completing action
// re-tests the tree state anyway).
func Fingerprint(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

// QueueConfig configures a completion queue.
type QueueConfig[T any] struct {
	// Run executes one completing action. It re-tests the tree state
	// before changing anything, so a duplicate or obsolete task is a
	// no-op.
	Run func(T)
	// Paced reports whether a task is background maintenance that the
	// governor should pace; postings run unpaced (the foreground is
	// already navigating around the unposted structure).
	Paced func(T) bool
	// Governor paces Paced tasks; nil admits immediately.
	Governor *maint.Governor
	// Workers is the background pool size. Sync starts none: tasks then
	// run on whichever goroutine calls Drain.
	Workers int
	Sync    bool
}

// Queue schedules and executes completing atomic actions (§5.1).
// Scheduling is non-blocking and safe to call while holding latches;
// execution happens on worker goroutines, or inside Drain when the queue
// has no workers.
//
// A task is queued from Schedule until a worker pops it, and running
// from the pop until its Run returns. Duplicates are folded against the
// queued set only — a running task has already read the state it acts
// on, so a request that arrives meanwhile (including the task's own
// request for a continuation) must get its own run. Refs answers against
// both sets: whoever frees a page must also wait out the running task
// that is about to latch it.
type Queue[T any] struct {
	cfg     QueueConfig[T]
	mu      sync.Mutex
	cond    *sync.Cond
	tasks   []queued[T]
	queued  map[TaskKey]struct{}
	running []TaskKey
	stopped bool
	wg      sync.WaitGroup
	// draining suspends governor pacing so shutdown drains at full speed.
	draining atomic.Bool
}

type queued[T any] struct {
	key  TaskKey
	task T
}

// NewQueue returns a queue with its workers started.
func NewQueue[T any](cfg QueueConfig[T]) *Queue[T] {
	if cfg.Sync {
		cfg.Workers = 0
	}
	q := &Queue[T]{cfg: cfg, queued: make(map[TaskKey]struct{})}
	q.cond = sync.NewCond(&q.mu)
	for i := 0; i < cfg.Workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Schedule queues task under key unless an equal key is already queued
// (or the queue is stopped); it reports whether the task was queued.
func (q *Queue[T]) Schedule(key TaskKey, task T) bool {
	return q.ScheduleFunc(key, func() T { return task })
}

// ScheduleFunc is Schedule with the task made by build, which runs under
// the queue's lock and only when the task will be queued: a duplicate
// request copies nothing.
func (q *Queue[T]) ScheduleFunc(key TaskKey, build func() T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.stopped {
		return false
	}
	if _, dup := q.queued[key]; dup {
		return false
	}
	q.queued[key] = struct{}{}
	q.tasks = append(q.tasks, queued[T]{key, build()})
	q.cond.Broadcast()
	return true
}

// Refs reports whether a task with this key is queued or running.
func (q *Queue[T]) Refs(key TaskKey) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.queued[key]; ok {
		return true
	}
	for _, r := range q.running {
		if r == key {
			return true
		}
	}
	return false
}

// depth reports the number of queued (unpopped) tasks.
func (q *Queue[T]) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.tasks)
}

// pop moves the next task from queued to running, or reports false if
// there is none (and, when block is true, waits for one unless stopped).
func (q *Queue[T]) pop(block bool) (queued[T], bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.tasks) == 0 {
		if !block || q.stopped {
			return queued[T]{}, false
		}
		q.cond.Wait()
	}
	e := q.tasks[0]
	q.tasks = q.tasks[1:]
	delete(q.queued, e.key)
	q.running = append(q.running, e.key)
	return e, true
}

// run executes a popped task and retires it from the running set.
func (q *Queue[T]) run(e queued[T]) {
	q.cfg.Run(e.task)
	q.mu.Lock()
	for i, r := range q.running {
		if r == e.key {
			last := len(q.running) - 1
			q.running[i] = q.running[last]
			q.running = q.running[:last]
			break
		}
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *Queue[T]) worker() {
	defer q.wg.Done()
	for {
		e, ok := q.pop(true)
		if !ok {
			return
		}
		// Maintenance never convoys foreground mutators: it waits for the
		// governor's budget, except while draining.
		if q.cfg.Paced(e.task) && !q.draining.Load() {
			q.cfg.Governor.Admit(q.depth())
		}
		q.run(e)
	}
}

// Drain processes or waits out every scheduled task, including the ones
// they schedule in turn. Without workers the calling goroutine executes
// them; otherwise it waits for the workers to go idle with an empty
// queue.
func (q *Queue[T]) Drain() {
	if q.cfg.Sync {
		for {
			e, ok := q.pop(false)
			if !ok {
				return
			}
			q.run(e)
		}
	}
	q.mu.Lock()
	for len(q.tasks) > 0 || len(q.running) > 0 {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// stop refuses further scheduling, discards what is still queued, and
// waits for the workers to exit.
func (q *Queue[T]) stop() {
	q.mu.Lock()
	q.stopped = true
	q.tasks = nil
	q.cond.Broadcast()
	q.mu.Unlock()
	q.wg.Wait()
}

// CloseDrain is the orderly shutdown: work off every pending completion
// (including the ones they escalate into), then stop the workers. Unlike
// stop alone, nothing pending is discarded, so a close-then-reopen never
// finds a structure change that was scheduled but silently dropped.
func (q *Queue[T]) CloseDrain() {
	q.draining.Store(true)
	q.Drain()
	q.stop()
}
