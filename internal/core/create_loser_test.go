package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/wal"
)

// TestTornCreationIsAbsentAfterRestart is ROADMAP item 0's tree whose
// creation is a restart loser, made deterministic on the in-memory file
// system: the log's first sync — the one that covers Create's action —
// tears after the action's root entry and before its commit (the injector
// seed draws the last boundary inside the action). Redo then applies the
// root entry, so an Open between redo and undo finds a tree on page 2;
// undo frees page 2 and clears the entry, and a Verify of that tree
// reported "reachable page 2 of level 0 is not allocated". The restart
// sequence must report the tree absent instead: after undo the catalog
// has no root for it.
func TestTornCreationIsAbsentAfterRestart(t *testing.T) {
	inj := fault.New(5)
	inj.Arm(wal.FPSync, fault.Spec{Kind: fault.Torn, Crash: true})
	e := engine.New(engine.Options{Injector: inj})
	b := Register(e.Reg, false)
	st := e.AddStore(testStoreID, Codec{})
	tree, err := Create(st, e.TM, e.Locks, b, "test", defaultTestOpts())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	defer tree.Close()
	if err := e.Log.ForceAll(); !errors.Is(err, wal.ErrLogFailed) || !inj.Crashed() {
		t.Fatalf("force through a torn sync: %v", err)
	}

	e2 := engine.Restarted(e.Crash(nil), engine.Options{})
	b2 := Register(e2.Reg, false)
	st2 := e2.AddStore(testStoreID, Codec{})
	p, err := e2.AnalyzeAndRedo()
	if err != nil {
		t.Fatalf("analyze+redo: %v", err)
	}
	if pid, err := st2.Root("test"); err != nil || pid != 2 {
		t.Fatalf("redo left root %d (%v): the tear did not keep the root entry", pid, err)
	}
	tree2, err := Open(st2, e2.TM, e2.Locks, b2, "test", defaultTestOpts())
	if err != nil {
		t.Fatalf("open between redo and undo: %v", err)
	}
	defer tree2.Close()
	if err := e2.FinishRecovery(p); err != nil {
		t.Fatalf("undo: %v", err)
	}
	if p.Stats.LoserActions != 1 {
		t.Fatalf("%d loser actions, want the creation alone: the tear missed the action", p.Stats.LoserActions)
	}
	if _, err := st2.Root("test"); err == nil {
		t.Fatal("undo of the creation left its root entry")
	}
	if ok, err := st2.IsAllocated(2); err != nil || ok {
		t.Fatalf("page 2 allocated=%v (%v) after the creation was undone", ok, err)
	}
	// What the torture harness used to do next: verify the tree it had
	// opened before undo.
	if _, err := tree2.Verify(); err == nil || !strings.Contains(err.Error(), "reachable page 2 of level 0 is not allocated") {
		t.Fatalf("verify of the tree opened before undo: %v", err)
	}
}
