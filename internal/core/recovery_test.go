package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/storage"
	"repro/internal/wal"
)

// TestCrashMatrix is the heart of experiment T4: run a scripted workload,
// then simulate a crash at EVERY log record boundary and verify that
// restart always produces a well-formed tree containing exactly the
// records whose transactions are (a) committed within the surviving log
// prefix and (b) not rolled back. No page is ever flushed during the run,
// so every prefix is a consistent crash image (the WAL rule "flush forces
// the log first" is trivially satisfied), and redo reconstructs the whole
// tree from the log.
func TestCrashMatrix(t *testing.T) {
	type combo struct {
		name string
		e    engine.Options
		o    Options
	}
	combos := []combo{
		{"cp-logical", engine.Options{}, Options{LeafCapacity: 4, IndexCapacity: 4, Consolidation: true, SyncCompletion: true, CheckLatchOrder: true}},
		{"cp-pageoriented", engine.Options{PageOriented: true}, Options{LeafCapacity: 4, IndexCapacity: 4, Consolidation: true, SyncCompletion: true, CheckLatchOrder: true}},
		{"cns-logical", engine.Options{}, Options{LeafCapacity: 4, IndexCapacity: 4, Consolidation: false, SyncCompletion: true, CheckLatchOrder: true}},
		{"cp-deallocupd", engine.Options{PageOriented: true}, Options{LeafCapacity: 4, IndexCapacity: 4, Consolidation: true, DeallocIsUpdate: true, SyncCompletion: true, CheckLatchOrder: true}},
	}
	for _, c := range combos {
		t.Run(c.name, func(t *testing.T) {
			fx := newFixture(t, c.e, c.o)
			const n = 40

			// committedBy[k] = EndLSN after k's committing transaction
			// finished: if the log survives through it, k must be present.
			// startedAt[k] = EndLSN before k's transaction began: if the
			// log is cut before it, k must be absent.
			committedBy := make(map[int]wal.LSN)
			startedAt := make(map[int]wal.LSN)
			aborted := make(map[int]bool)

			for i := 0; i < n; i++ {
				startedAt[i] = fx.e.Log.EndLSN()
				tx := fx.e.TM.Begin()
				if err := fx.tree.Insert(tx, keys.Uint64(uint64(i)), val(i)); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
				if i%7 == 3 {
					if err := tx.Abort(); err != nil {
						t.Fatal(err)
					}
					aborted[i] = true
				} else {
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					committedBy[i] = fx.e.Log.EndLSN()
				}
				if i%5 == 4 {
					fx.tree.DrainCompletions() // interleave postings with inserts
				}
			}
			fx.tree.DrainCompletions()
			fx.e.Log.ForceAll()

			boundaries := fx.e.Log.FullImage().Boundaries()
			if len(boundaries) < n {
				t.Fatalf("suspiciously few log boundaries: %d", len(boundaries))
			}
			for bi, cut := range boundaries {
				cut := cut
				fx2, ok := fx.tryCrashRestart(t, &cut)
				if !ok {
					// The cut fell before tree creation was complete; the
					// only acceptable failure is a cleanly absent tree.
					continue
				}
				shape, err := fx2.tree.Verify()
				if err != nil {
					t.Fatalf("cut at boundary %d (LSN %d): tree ill-formed: %v", bi, cut, err)
				}
				for i := 0; i < n; i++ {
					_, ok, err := fx2.tree.Search(nil, keys.Uint64(uint64(i)))
					if err != nil {
						t.Fatalf("cut %d: search %d: %v", cut, i, err)
					}
					switch {
					case aborted[i]:
						if ok && committedBy[i] != 0 {
							t.Fatalf("cut %d: aborted key %d present", cut, i)
						}
						// Aborted keys may transiently appear only if the cut
						// falls inside the abort; restart finishes the
						// rollback, so they must be gone.
						if ok {
							t.Fatalf("cut %d: aborted key %d present after restart undo", cut, i)
						}
					case committedBy[i] != 0 && cut >= committedBy[i]:
						if !ok {
							t.Fatalf("cut %d: committed key %d (by %d) lost", cut, i, committedBy[i])
						}
					case cut <= startedAt[i]:
						if ok {
							t.Fatalf("cut %d: unstarted key %d present", cut, i)
						}
					default:
						// Commit record may or may not be inside the prefix;
						// either outcome is atomic, which Verify plus the
						// other cases already established.
					}
				}
				_ = shape
				fx2.tree.Close()
			}
		})
	}
}

// TestCrashMidSMOLeavesWellFormedIntermediateState crashes between the
// two atomic actions of a structure change — after the node-split action
// commits but before the index-posting action runs — and checks
// innovation 4: recovery takes no special measures, the intermediate
// state persists well-formed, and normal processing completes it later.
func TestCrashMidSMOLeavesWellFormedIntermediateState(t *testing.T) {
	opts := defaultTestOpts()
	opts.NoCompletion = true // freeze every SMO between its two actions
	fx := newFixture(t, engine.Options{}, opts)
	const n = 120
	for i := 0; i < n; i++ {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	splits := fx.tree.Stats.LeafSplits.Load()
	if splits == 0 {
		t.Fatal("workload produced no splits")
	}
	fx.e.Log.ForceAll()

	// Crash with the SMOs incomplete; the restarted tree runs with
	// completion enabled so normal processing can finish them lazily.
	fx.tree.opts.NoCompletion = false
	fx2 := fx.crashRestart(t, nil)
	// Recovery must NOT have completed the SMOs: completion is lazy.
	shape, err := fx2.tree.Verify()
	if err != nil {
		t.Fatalf("intermediate state ill-formed after restart: %v", err)
	}
	if shape.Records != n {
		t.Fatalf("records = %d, want %d", shape.Records, n)
	}

	// All data reachable purely via side pointers.
	for i := 0; i < n; i++ {
		v, ok, err := fx2.tree.Search(nil, keys.Uint64(uint64(i)))
		if err != nil || !ok || string(v) != string(val(i)) {
			t.Fatalf("key %d: ok=%v err=%v", i, ok, err)
		}
	}
	sideBefore := fx2.tree.Stats.SideTraversals.Load()
	if sideBefore == 0 {
		t.Fatal("expected side traversals through unposted siblings")
	}
	// Traversals scheduled completing actions; drain them and verify the
	// tree converges: far fewer side traversals afterwards.
	fx2.tree.DrainCompletions()
	if fx2.tree.Stats.PostsPerformed.Load() == 0 {
		t.Fatal("no postings performed by lazy completion")
	}
	if _, err := fx2.tree.Verify(); err != nil {
		t.Fatalf("after completion: %v", err)
	}
	pre := fx2.tree.Stats.SideTraversals.Load()
	for i := 0; i < n; i++ {
		if _, ok, _ := fx2.tree.Search(nil, keys.Uint64(uint64(i))); !ok {
			t.Fatalf("key %d lost after completion", i)
		}
	}
	fx2.tree.DrainCompletions()
	post := fx2.tree.Stats.SideTraversals.Load() - pre
	if post != 0 {
		// With NoCompletion still set no postings beyond the drained ones
		// could run; allow residual side traversals only if completion is
		// disabled.
		if !fx2.tree.opts.NoCompletion {
			t.Fatalf("still %d side traversals after completion", post)
		}
	}
}

// TestCompletionIdempotence schedules the same posting many times; the
// Verify-Split state test must make all but one a no-op (§5.1: "Before
// posting the index term, we test that the posting has not already been
// done and still needs to be done").
func TestCompletionIdempotence(t *testing.T) {
	opts := defaultTestOpts()
	opts.NoCompletion = true
	fx := newFixture(t, engine.Options{}, opts)
	for i := 0; i < 30; i++ {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if fx.tree.Stats.LeafSplits.Load() == 0 {
		t.Fatal("no splits")
	}
	// Re-enable completion and hand-schedule duplicate postings for every
	// unposted sibling found at level 0.
	fx.tree.opts.NoCompletion = false
	tasks := collectUnpostedSiblings(t, fx.tree)
	if len(tasks) == 0 {
		t.Fatal("no unposted siblings found")
	}
	for rep := 0; rep < 5; rep++ {
		for _, pt := range tasks {
			fx.tree.runTask(task{kind: taskPost, post: pt})
		}
	}
	performed := fx.tree.Stats.PostsPerformed.Load()
	already := fx.tree.Stats.PostsAlreadyDone.Load()
	if performed == 0 || already == 0 {
		t.Fatalf("performed=%d alreadyDone=%d; want both > 0", performed, already)
	}
	if int(performed) > len(tasks) {
		t.Fatalf("performed %d postings for %d distinct splits", performed, len(tasks))
	}
	if _, err := fx.tree.Verify(); err != nil {
		t.Fatal(err)
	}
}

// collectUnpostedSiblings walks level 0 and builds a posting task for
// every sibling pointer (posted or not; the state test sorts them out).
func collectUnpostedSiblings(t *testing.T, tree *Tree) []postTask {
	t.Helper()
	var tasks []postTask
	pool := tree.store.Pool
	pid := tree.leftmostOfLevel(t, 0)
	for pid != 0 {
		f, err := pool.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		n := f.Data.(*Node)
		if n.Right != 0 {
			tasks = append(tasks, postTask{
				level:  1,
				sep:    keys.Clone(n.High.Key),
				newPid: n.Right,
			})
		}
		pid = n.Right
		pool.Unpin(f)
	}
	return tasks
}

// leftmostOfLevel descends first-child pointers to the target level
// (quiescent test helper).
func (t *Tree) leftmostOfLevel(tb testing.TB, level int) storage.PageID {
	pool := t.store.Pool
	cur := t.root
	for {
		f, err := pool.Fetch(cur)
		if err != nil {
			tb.Fatal(err)
		}
		n := f.Data.(*Node)
		if n.Level == level {
			pool.Unpin(f)
			return cur
		}
		next := n.entry(0).Child
		pool.Unpin(f)
		cur = next
	}
}
