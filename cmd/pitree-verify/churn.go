package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/maint"
	"repro/internal/storage"
	"repro/internal/tsb"
	"repro/internal/txn"
)

// The sustained-churn gate: each leg turns a rolling window (a constant
// live set) over several times with the tree's background maintenance on.
// It fails if the store does not reach a steady state — allocated pages
// or the page file's blocks trending up, or freed pages never recycled into
// new splits — or if the tree or its free-space map is ill-formed
// afterwards. The core leg inserts at the window's head and deletes at
// its tail, with consolidation; the tsb leg puts a new version of every
// key in the window, with version GC, twice: with snapshots pinned, GC
// must free the history it retires, and unpinned, full nodes prune and
// make no history at all. This is the CI guard for the steady-state
// property T17 (EXPERIMENTS.md) measured.

const (
	churnWindow = 3000
	churnTurns  = 5
	churnSlack  = 8 // boundary wobble allowance, in pages
)

func runChurn() error {
	for _, leg := range []struct {
		name string
		run  func() error
	}{{"core", churnCore}, {"tsb", churnTSB}} {
		fmt.Printf("%s leg\n", leg.name)
		if err := leg.run(); err != nil {
			return fmt.Errorf("%s leg: %w", leg.name, err)
		}
	}
	fmt.Println("churn gate ok: stores bounded, pages recycled, trees and free maps well-formed")
	return nil
}

func churnCore() error {
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

	for k := 0; k < churnWindow; k++ {
		if err := tree.Insert(nil, keys.Uint64(uint64(k)), []byte("c")); err != nil {
			return err
		}
	}
	tree.DrainCompletions()

	p := plateau{e: e, st: st}
	head := uint64(churnWindow)
	for c := 1; c <= churnTurns; c++ {
		for i := 0; i < churnWindow; i++ {
			if err := tree.Insert(nil, keys.Uint64(head), []byte("c")); err != nil {
				return err
			}
			if err := tree.Delete(nil, keys.Uint64(head-churnWindow)); err != nil {
				return err
			}
			head++
		}
		tree.DrainCompletions()
		if err := p.check(c); err != nil {
			return err
		}
	}
	if err := p.recycled(); err != nil {
		return err
	}
	if _, err := tree.Verify(); err != nil {
		return fmt.Errorf("tree ill-formed after churn: %w", err)
	}
	return nil
}

func churnTSB() error {
	for _, pinned := range []bool{true, false} {
		if err := churnTSBPass(pinned); err != nil {
			return err
		}
	}
	return nil
}

// churnTSBPass runs the tsb leg once. Pinned, every turnover holds a
// snapshot taken at its start until the end of the next, so the versions
// of the last two turnovers are above the visibility horizon: nodes fill
// with versions a reader may still need and time-split, and GC retires and
// frees the history that falls below the next pin. Unpinned, a full node
// drops the versions no reader can see (a prune) instead, so the store
// stays flat with no history at all.
func churnTSBPass(pinned bool) error {
	fmt.Printf("  pinned %v\n", pinned)
	e := engine.New(engine.Options{})
	b := tsb.Register(e.Reg)
	st := e.AddStore(1, tsb.Codec{})
	tree, err := tsb.Create(st, e.TM, e.Locks, b, "churn", tsb.Options{GC: true, SyncCompletion: true})
	if err != nil {
		return err
	}
	defer tree.Close()

	var held *txn.Snapshot
	put := func(turn int) error {
		var snap *txn.Snapshot
		if pinned {
			snap = e.BeginSnapshot()
		}
		for k := 0; k < churnWindow; k++ {
			if err := tree.Put(nil, keys.Uint64(uint64(k)), fmt.Appendf(nil, "v%d", turn)); err != nil {
				return err
			}
		}
		if held != nil {
			held.Release()
		}
		held = snap
		tree.DrainCompletions()
		return nil
	}
	// The load leaves its nodes half full, so the second version of
	// every key fits beside the first: history, and with it GC, starts
	// with the third. Pinned, GC frees history two turnovers after it is
	// made, so the store stops growing with the fifth. The gate measures
	// from there.
	for c := -3; c <= 0; c++ {
		if err := put(c); err != nil {
			return err
		}
	}
	p := plateau{e: e, st: st}
	for c := 1; c <= churnTurns; c++ {
		if err := put(c); err != nil {
			return err
		}
		if err := p.check(c); err != nil {
			return err
		}
	}
	if held != nil {
		held.Release()
	}
	fmt.Printf("  gc: %d time splits, %d prunes, %d nodes retired, %d pages freed, tails kept: %d shared edge, %d term\n",
		tree.Stats.TimeSplits.Load(), tree.Stats.Prunes.Load(),
		tree.Stats.GCRetiredNodes.Load(), tree.Stats.GCFreedPages.Load(),
		tree.Stats.GCSharedSkips.Load(), tree.Stats.GCTermSkips.Load())
	if pinned {
		if err := p.recycled(); err != nil {
			return err
		}
	}
	shape, err := tree.Verify()
	if err != nil {
		return fmt.Errorf("tree ill-formed after churn: %w", err)
	}
	if !pinned && shape.HistoryNodes != 0 {
		return fmt.Errorf("%d history nodes after unpinned churn: a full node split by time though nothing pinned its versions", shape.HistoryNodes)
	}
	return nil
}

// plateau holds a store to its size after the first turnover: allocated
// pages and page ids in use (the high-water mark) within churnSlack of
// theirs, and the page file's blocks within the file's own bound
// (storage.FileDiskStats.Bound) or at most what they were then.
type plateau struct {
	e                  *engine.Engine
	st                 *storage.Store
	pages, ids, blocks int64
}

// check flushes the pool, so the page file holds every page, and
// compares the store with its size after turnover 1.
func (p *plateau) check(turn int) error {
	if _, err := p.e.FlushAll(); err != nil {
		return err
	}
	sp, err := p.st.SpaceStats()
	if err != nil {
		return err
	}
	ids := int64(sp.Next) - 1
	alloc := ids - int64(sp.FreeLen)
	_, disks := p.e.FileStats()
	d := disks[p.st.Pool.StoreID]
	live := d.Blocks - d.FreeBlocks - d.LimboBlocks - 1
	if turn == 1 {
		p.pages, p.ids, p.blocks = alloc, ids, d.Blocks
	}
	if n := p.ids + churnSlack; alloc > p.pages+churnSlack || ids > n || d.Blocks > max(p.blocks, d.Bound) {
		return fmt.Errorf("store grows under churn: %d pages of %d ids after turnover 1, %d pages of %d ids in %d blocks after turnover %d",
			p.pages, p.ids, alloc, ids, d.Blocks, turn)
	}
	fmt.Printf("  turnover %d: %d allocated pages of %d ids, %d blocks, %d live (recycled %d, freed %d)\n",
		turn, alloc, ids, d.Blocks, live, sp.Recycled, sp.Freed)
	return nil
}

func (p *plateau) recycled() error {
	if p.st.Space.Recycled.Load() == 0 {
		return fmt.Errorf("no pages recycled despite %d freed", p.st.Space.Freed.Load())
	}
	return nil
}
