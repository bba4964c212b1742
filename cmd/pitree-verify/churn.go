package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/maint"
)

// runChurn is the sustained-churn gate: a rolling key window (constant
// live set) turned over several times with background consolidation on.
// It fails if the store does not reach a steady state — allocated pages
// trending up, or freed pages never recycled into new splits — or if the
// tree or its free-space map is ill-formed afterwards. This is the CI
// guard for the steady-state property T17 (EXPERIMENTS.md) measured.
func runChurn() error {
	const (
		window = 3000
		turns  = 5
		slack  = 8 // boundary wobble allowance, in pages
	)
	e := engine.New(engine.Options{})
	b := core.Register(e.Reg, false)
	st := e.AddStore(1, core.Codec{})
	tree, err := core.Create(st, e.TM, e.Locks, b, "churn", core.Options{
		LeafCapacity:   16,
		IndexCapacity:  16,
		Consolidation:  true,
		SyncCompletion: true,
		Governor:       maint.New(1_000_000, maint.DefaultHighWater, nil),
	})
	if err != nil {
		return err
	}
	defer tree.Close()

	for k := 0; k < window; k++ {
		if err := tree.Insert(nil, keys.Uint64(uint64(k)), []byte("c")); err != nil {
			return err
		}
	}
	tree.DrainCompletions()

	var first int64
	head := uint64(window)
	for c := 0; c < turns; c++ {
		for i := 0; i < window; i++ {
			if err := tree.Insert(nil, keys.Uint64(head), []byte("c")); err != nil {
				return err
			}
			if err := tree.Delete(nil, keys.Uint64(head-window)); err != nil {
				return err
			}
			head++
		}
		tree.DrainCompletions()
		alloc, err := st.AllocatedPages()
		if err != nil {
			return err
		}
		if c == 0 {
			first = alloc
		} else if alloc > first+slack {
			return fmt.Errorf("store grows under churn: %d pages after turnover 1, %d after turnover %d", first, alloc, c+1)
		}
		fmt.Printf("  turnover %d: %d allocated pages (recycled %d, freed %d)\n",
			c+1, alloc, st.Space.Recycled.Load(), st.Space.Freed.Load())
	}

	if st.Space.Recycled.Load() == 0 {
		return fmt.Errorf("no pages recycled despite %d freed", st.Space.Freed.Load())
	}
	if _, err := tree.Verify(); err != nil {
		return fmt.Errorf("tree ill-formed after churn: %w", err)
	}
	fmt.Println("churn gate ok: store bounded, pages recycled, tree and free map well-formed")
	return nil
}
