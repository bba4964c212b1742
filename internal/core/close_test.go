package core

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/maint"
)

// TestEngineCloseDrainsScheduledConsolidations guts a tree so dozens of
// consolidations are queued behind a slow governor, then closes the
// engine. Close must run every scheduled completion to commit (bypassing
// the pacer), force the log, and flush the pools — so a reopen from the
// stable image redoes nothing and finds no half-merged structure.
func TestEngineCloseDrainsScheduledConsolidations(t *testing.T) {
	e := engine.New(engine.Options{})
	b := Register(e.Reg, false)
	st := e.AddStore(testStoreID, Codec{})
	opts := Options{
		LeafCapacity:    8,
		IndexCapacity:   8,
		Consolidation:   true,
		CheckLatchOrder: true,
		// One admission per second: without the drain bypass the backlog
		// below would take (bounded-pause) ages; with it, Close is quick.
		Governor: maint.New(1, 1<<30, nil),
	}
	tree, err := Create(st, e.TM, e.Locks, b, "test", opts)
	if err != nil {
		t.Fatalf("create tree: %v", err)
	}
	e.RegisterCloser(tree.Close)

	const n, keep = 400, 20
	for i := 0; i < n; i++ {
		if err := tree.Insert(nil, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := keep; i < n; i++ {
		if err := tree.Delete(nil, keys.Uint64(uint64(i))); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}

	start := time.Now()
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("close took %v; drain did not bypass the governor", el)
	}
	if tree.Stats.Consolidations.Load() == 0 {
		t.Fatal("close dropped every scheduled consolidation")
	}

	// Close's shutdown checkpoint bounds the reopen's redo scan by the
	// flushed state Close produced.
	img := e.Crash(nil)
	e2 := engine.Restarted(img, e.Opts)
	b2 := Register(e2.Reg, false)
	st2 := e2.AddStore(testStoreID, Codec{})
	p, err := e2.AnalyzeAndRedo()
	if err != nil {
		t.Fatalf("analyze+redo: %v", err)
	}
	if p.Stats.RedoneRecords != 0 {
		t.Fatalf("reopen after Close redid %d records, want 0", p.Stats.RedoneRecords)
	}
	tree2, err := Open(st2, e2.TM, e2.Locks, b2, "test", opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer tree2.Close()
	if err := e2.FinishRecovery(p); err != nil {
		t.Fatalf("undo losers: %v", err)
	}
	shape, err := tree2.Verify()
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if shape.Records != keep {
		t.Fatalf("records = %d, want %d", shape.Records, keep)
	}
	for i := 0; i < keep; i++ {
		if _, ok, err := tree2.Search(nil, keys.Uint64(uint64(i))); err != nil || !ok {
			t.Fatalf("key %d lost across close-reopen: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestCompletionHotPathAllocs: a side traversal schedules its posting
// under the traversed node's latch, and nearly always finds it already
// queued; such a duplicate crossing, folding a duplicate posting and
// asking whether a task is live must not allocate.
func TestCompletionHotPathAllocs(t *testing.T) {
	fx := newFixture(t, engine.Options{}, defaultTestOpts()) // SyncCompletion: queued until drained
	crossed := &Node{Low: keys.Uint64(1), High: keys.At(keys.Uint64(42)), Right: 9}
	var path Path
	path.set(1, 3, 100)
	fx.tree.noteIncomplete(crossed, 5, &path)
	task := postTask{level: 1, sep: keys.Uint64(42), newPid: 9, path: path}
	if !fx.tree.comp.Refs(postKey(task)) {
		t.Fatal("the crossing queued no posting")
	}
	if a := testing.AllocsPerRun(100, func() { fx.tree.noteIncomplete(crossed, 5, &path) }); a != 0 {
		t.Fatalf("a duplicate crossing allocates %.1f objects", a)
	}
	if a := testing.AllocsPerRun(100, func() { fx.tree.schedulePost(task) }); a != 0 {
		t.Fatalf("duplicate schedulePost allocates %.1f objects", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if !fx.tree.comp.Refs(postKey(task)) {
			t.Error("queued posting not visible to Refs")
		}
	}); a != 0 {
		t.Fatalf("Refs allocates %.1f objects", a)
	}
}
