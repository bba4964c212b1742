package pitree

import (
	"sync"
	"testing"
)

type countTask struct{ id, left int }

func countKey(t countTask) TaskKey { return TaskKey{Kind: 1, Pid: 1, Level: t.id} }

// TestQueueRescheduleFromRun: duplicates fold against queued tasks only,
// so a task that asks for its own continuation while it runs — the
// consolidation sweep's pattern — gets another run.
func TestQueueRescheduleFromRun(t *testing.T) {
	for _, inline := range []bool{true, false} {
		var q *Queue[countTask]
		var mu sync.Mutex
		runs := 0
		// One gate task per worker, queued first, parks every worker until
		// the duplicate below has been scheduled: the task it duplicates is
		// still queued then, whatever the scheduling.
		gate := make(chan struct{})
		q = NewQueue(QueueConfig[countTask]{
			Sync:  inline,
			Paced: func(countTask) bool { return false },
			Run: func(task countTask) {
				if task.id < 0 {
					<-gate
					return
				}
				mu.Lock()
				runs++
				mu.Unlock()
				if task.left > 0 && !q.Schedule(countKey(task), countTask{task.id, task.left - 1}) {
					t.Error("continuation folded against its own running task")
				}
			},
		})
		for w := 1; w <= queueWorkers; w++ {
			q.Schedule(countKey(countTask{id: -w}), countTask{id: -w})
		}
		if !q.Schedule(countKey(countTask{}), countTask{left: 3}) {
			t.Fatal("first schedule refused")
		}
		if q.Schedule(countKey(countTask{}), countTask{left: 99}) {
			t.Fatal("duplicate of a queued task was not folded")
		}
		close(gate)
		q.Drain()
		if runs != 4 {
			t.Fatalf("inline=%v: %d runs, want 4", inline, runs)
		}
		q.CloseDrain()
	}
}

// TestQueueRefsCoversRunning: Refs is true from Schedule until Run
// returns — the window in which a reaper must not free the page a running
// posting is about to latch — and false afterwards.
func TestQueueRefsCoversRunning(t *testing.T) {
	var q *Queue[countTask]
	key := countKey(countTask{id: 7})
	sawRunning := false
	q = NewQueue(QueueConfig[countTask]{
		Sync:  true,
		Paced: func(countTask) bool { return false },
		Run:   func(countTask) { sawRunning = q.Refs(key) && q.depth() == 0 },
	})
	if q.Refs(key) {
		t.Fatal("Refs true before scheduling")
	}
	q.Schedule(key, countTask{id: 7})
	if !q.Refs(key) {
		t.Fatal("Refs false while queued")
	}
	q.Drain()
	if !sawRunning {
		t.Fatal("Refs false between pop and done")
	}
	if q.Refs(key) {
		t.Fatal("Refs true after the task finished")
	}
}

// TestQueueCloseDrainDiscardsNothing: every task scheduled before the
// close, and every task those escalate into, runs before CloseDrain
// returns.
func TestQueueCloseDrainDiscardsNothing(t *testing.T) {
	for _, inline := range []bool{true, false} {
		var q *Queue[countTask]
		var mu sync.Mutex
		ran := map[int]int{}
		q = NewQueue(QueueConfig[countTask]{
			Sync:  inline,
			Paced: func(task countTask) bool { return task.id%2 == 0 }, // nil governor admits at once
			Run: func(task countTask) {
				mu.Lock()
				ran[task.id]++
				mu.Unlock()
				if task.left > 0 {
					next := countTask{task.id + 1000, task.left - 1}
					q.Schedule(countKey(next), next)
				}
			},
		})
		const n = 200
		for i := 0; i < n; i++ {
			q.Schedule(countKey(countTask{id: i}), countTask{id: i, left: 2})
		}
		q.CloseDrain()
		if len(ran) != 3*n {
			t.Fatalf("inline=%v: %d distinct tasks ran, want %d", inline, len(ran), 3*n)
		}
		if q.Schedule(countKey(countTask{id: -1}), countTask{id: -1}) {
			t.Fatal("closed queue accepted a task")
		}
	}
}

// TestQueueHotPathAllocs: folding a duplicate and answering Refs are done
// under a node latch on the traversal path; neither may allocate.
func TestQueueHotPathAllocs(t *testing.T) {
	q := NewQueue(QueueConfig[countTask]{Sync: true, Paced: func(countTask) bool { return false }, Run: func(countTask) {}})
	task := countTask{id: 3}
	q.Schedule(countKey(task), task)
	if a := testing.AllocsPerRun(100, func() { q.Schedule(countKey(task), task) }); a != 0 {
		t.Fatalf("duplicate Schedule allocates %.1f objects", a)
	}
	if a := testing.AllocsPerRun(100, func() { q.Refs(countKey(task)) }); a != 0 {
		t.Fatalf("Refs allocates %.1f objects", a)
	}
}
