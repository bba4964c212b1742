package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/recovery"
	"repro/internal/spatial"
	"repro/internal/tsb"
)

// The paper's recovery claims, and its protocol on the other two trees:
// T4 (crash matrix), T5 (lazy completion), T7 (undo regimes and move
// locks), T10 (TSB), T11 (hB), T12 (restart cost, relative durability).

// T4CrashMatrix is experiment T4: run a scripted transactional workload,
// crash at every log-record boundary, restart, and verify the tree is
// well-formed and contains exactly the surviving committed data. This is
// innovation 4 quantified: recovery never takes special measures for
// interrupted structure changes.
func T4CrashMatrix(w io.Writer, p Params) {
	fmt.Fprintf(w, "\nT4: crash-at-every-log-boundary matrix (committed txns survive, losers roll back, tree stays well-formed)\n")
	fmt.Fprintf(w, "%-24s%12s%12s%12s%14s\n", "regime", "boundaries", "verified", "SMO losers", "txn losers")
	type regime struct {
		name  string
		eopts engine.Options
		topts core.Options
	}
	regimes := []regime{
		{"logical-undo/CP", engine.Options{}, core.Options{LeafCapacity: 4, IndexCapacity: 4, Consolidation: true, SyncCompletion: true}},
		{"page-undo/CP", engine.Options{PageOriented: true}, core.Options{LeafCapacity: 4, IndexCapacity: 4, Consolidation: true, SyncCompletion: true}},
	}
	for _, rg := range regimes {
		e := engine.New(rg.eopts)
		b := core.Register(e.Reg, rg.eopts.PageOriented)
		st := e.AddStore(1, core.Codec{})
		tree, err := core.Create(st, e.TM, e.Locks, b, "t4", rg.topts)
		if err != nil {
			panic(err)
		}
		const n = 60
		for i := 0; i < n; i++ {
			tx := e.TM.Begin()
			if err := tree.Insert(tx, keys.Uint64(uint64(i)), []byte("v")); err != nil {
				panic(err)
			}
			if i%7 == 3 {
				_ = tx.Abort()
			} else {
				_ = tx.Commit()
			}
			if i%5 == 4 {
				tree.DrainCompletions()
			}
		}
		tree.DrainCompletions()
		if err := e.Log.ForceAll(); err != nil {
			panic(err)
		}
		tree.Close()

		boundaries := e.Log.FullImage().Boundaries()
		verified := 0
		smoLosers, txnLosers := 0, 0
		for _, cut := range boundaries {
			cut := cut
			img := e.Crash(&cut)
			e2 := engine.Restarted(img, rg.eopts)
			b2 := core.Register(e2.Reg, rg.eopts.PageOriented)
			st2 := e2.AddStore(1, core.Codec{})
			pend, err := e2.AnalyzeAndRedo()
			if err != nil {
				panic(err)
			}
			tree2, err := core.Open(st2, e2.TM, e2.Locks, b2, "t4", rg.topts)
			if err != nil {
				// Cut precedes tree creation: only acceptable failure.
				_ = pend.UndoLosers(e2.TM)
				continue
			}
			if err := e2.FinishRecovery(pend); err != nil {
				panic(err)
			}
			smoLosers += pend.Stats.LoserActions
			txnLosers += pend.Stats.LoserTxns
			if _, err := st2.Root("t4"); err != nil {
				// Undo rolled back an uncommitted tree creation that the
				// pre-undo Open transiently observed: a cleanly absent
				// tree, not a verification failure.
				tree2.Close()
				continue
			}
			if _, err := tree2.Verify(); err != nil {
				panic(fmt.Sprintf("%s: cut %d: %v", rg.name, cut, err))
			}
			verified++
			tree2.Close()
		}
		fmt.Fprintf(w, "%-24s%12d%12d%12d%14d\n", rg.name, len(boundaries), verified, smoLosers, txnLosers)
	}
	fmt.Fprintln(w, "(a panic above would mean an ill-formed tree after some crash point; none occurred)")
}

// T5LazyCompletion is experiment T5: freeze structure changes between
// their two atomic actions, crash, restart, then run traffic and count
// how lazily-scheduled postings complete the interrupted SMOs — and how
// duplicate schedulings are defused by the state test.
func T5LazyCompletion(w io.Writer, p Params) {
	topts := core.Options{LeafCapacity: 8, IndexCapacity: 8, Consolidation: true, SyncCompletion: true, NoCompletion: true}
	e := engine.New(engine.Options{})
	b := core.Register(e.Reg, false)
	st := e.AddStore(1, core.Codec{})
	tree, err := core.Create(st, e.TM, e.Locks, b, "t5", topts)
	if err != nil {
		panic(err)
	}
	const n = 400
	for i := 0; i < n; i++ {
		if err := tree.Insert(nil, keys.Uint64(uint64(i)), []byte("v")); err != nil {
			panic(err)
		}
	}
	splits := tree.Stats.LeafSplits.Load() + tree.Stats.RootGrowths.Load()
	if err := e.Log.ForceAll(); err != nil {
		panic(err)
	}
	tree.Close()

	img := e.Crash(nil)
	topts.NoCompletion = false
	e2 := engine.Restarted(img, engine.Options{})
	b2 := core.Register(e2.Reg, false)
	st2 := e2.AddStore(1, core.Codec{})
	pend, _ := e2.AnalyzeAndRedo()
	tree2, err := core.Open(st2, e2.TM, e2.Locks, b2, "t5", topts)
	if err != nil {
		panic(err)
	}
	_ = e2.FinishRecovery(pend)
	defer tree2.Close()

	sideBefore := tree2.Stats.SideTraversals.Load()
	for i := 0; i < n; i++ {
		if _, ok, _ := tree2.Search(nil, keys.Uint64(uint64(i))); !ok {
			panic(fmt.Sprintf("key %d lost", i))
		}
	}
	firstPass := tree2.Stats.SideTraversals.Load() - sideBefore
	tree2.DrainCompletions()
	st5 := tree2.Stats.Snapshot()
	pre := tree2.Stats.SideTraversals.Load()
	for i := 0; i < n; i++ {
		_, _, _ = tree2.Search(nil, keys.Uint64(uint64(i)))
	}
	residual := tree2.Stats.SideTraversals.Load() - pre
	if _, err := tree2.Verify(); err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "\nT5: lazy completion after crash mid-SMO\n")
	fmt.Fprintf(w, "splits frozen incomplete at crash:    %d\n", splits)
	fmt.Fprintf(w, "side traversals by first search pass: %d\n", firstPass)
	fmt.Fprintf(w, "postings scheduled / performed:       %d / %d\n", st5.PostsScheduled, st5.PostsPerformed)
	fmt.Fprintf(w, "duplicate postings defused (no-op):   %d\n", st5.PostsAlreadyDone+st5.PostsObsolete)
	fmt.Fprintf(w, "residual side traversals after done:  %d (0 = tree fully completed)\n", residual)
}

// T7MoveLocks is experiment T7: transactional insert throughput under
// page-oriented UNDO (move locks, in-transaction splits) vs logical UNDO
// (all splits independent) — §4.2's cost, quantified.
func T7MoveLocks(w io.Writer, p Params) {
	fmt.Fprintf(w, "\nT7: move-lock cost — transactional inserts, 8 threads, capacity 16 (kops/s)\n")
	fmt.Fprintf(w, "%-24s%10s%14s%12s%11s%9s%9s%9s\n",
		"undo regime", "kops/s", "moveLockWaits", "inTxnSplits", "deadlocks", "waits", "grants", "stripes")
	for _, rg := range []struct {
		name string
		e    engine.Options
		o    core.Options
	}{
		{"logical (non-page)", engine.Options{}, core.Options{}},
		{"page-oriented/page-MV", engine.Options{PageOriented: true}, core.Options{}},
		{"page-oriented/record-MV", engine.Options{PageOriented: true}, core.Options{RecordMoveLocks: true}},
	} {
		topts := rg.o
		topts.LeafCapacity = 16
		topts.IndexCapacity = 16
		topts.Consolidation = true
		pi := NewPiTree(rg.e, topts)
		start := time.Now()
		total := runTxnInserts(pi, 8, p.OpsPerThread/4)
		elapsed := time.Since(start)
		pi.T.DrainCompletions()
		st := pi.T.Stats.Snapshot()
		lm := pi.E.Locks.StatsSnapshot()
		kops := float64(total) / elapsed.Seconds() / 1000
		fmt.Fprintf(w, "%-24s%10.1f%14d%12d%11d%9d%9d%9d\n", rg.name,
			kops, st.MoveLockWaits, st.InTxnSplits, lm.Deadlocks, lm.Waits, lm.Grants, lm.Stripes)
		pi.Close()
	}
}

func runTxnInserts(pi *PiTree, threads, txPerThread int) int {
	done := make(chan int, threads)
	for w := 0; w < threads; w++ {
		go func(w int) {
			n := 0
			for i := 0; i < txPerThread; i++ {
				tx := pi.E.TM.Begin()
				ok := true
				for j := 0; j < 5; j++ {
					k := uint64(w)<<40 | uint64(i*5+j)
					if err := pi.T.Insert(tx, keys.Uint64(k), []byte("v")); err != nil {
						ok = false
						break
					}
				}
				if ok {
					_ = tx.Commit()
					n += 5
				} else {
					_ = tx.Abort()
				}
			}
			done <- n
		}(w)
	}
	total := 0
	for w := 0; w < threads; w++ {
		total += <-done
	}
	return total
}

// T10TSB is experiment T10: the TSB-tree keeps current-version access
// fast by time-splitting history out of current nodes, while as-of
// queries stay exact.
func T10TSB(w io.Writer, p Params) {
	e := engine.New(engine.Options{})
	b := tsb.Register(e.Reg)
	st := e.AddStore(1, tsb.Codec{})
	tree, err := tsb.Create(st, e.TM, e.Locks, b, "t10", tsb.Options{DataCapacity: 32, IndexCapacity: 32, SyncCompletion: true})
	if err != nil {
		panic(err)
	}
	defer tree.Close()

	const nKeys = 2000
	const versionsPerKey = 10
	var sampleTimes []uint64
	for v := 0; v < versionsPerKey; v++ {
		for k := 0; k < nKeys; k++ {
			if err := tree.Put(nil, keys.Uint64(uint64(k)), []byte(fmt.Sprintf("v%d", v))); err != nil {
				panic(err)
			}
		}
		sampleTimes = append(sampleTimes, tree.Now())
		tree.DrainCompletions()
	}
	shape, err := tree.Verify()
	if err != nil {
		panic(err)
	}

	measure := func(asOf uint64, label string) {
		start := time.Now()
		const probes = 20000
		for i := 0; i < probes; i++ {
			k := keys.Uint64(uint64(i % nKeys))
			if _, ok, err := tree.GetAsOf(nil, k, asOf); err != nil || !ok {
				panic(fmt.Sprintf("probe %s key %d: ok=%v err=%v", label, i%nKeys, ok, err))
			}
		}
		el := time.Since(start)
		fmt.Fprintf(w, "%-28s%12.1f kops/s\n", label, float64(probes)/el.Seconds()/1000)
	}

	fmt.Fprintf(w, "\nT10: TSB-tree — %d keys x %d versions\n", nKeys, versionsPerKey)
	fmt.Fprintf(w, "time splits=%d key splits=%d current nodes=%d history nodes=%d height=%d\n",
		tree.Stats.TimeSplits.Load(), tree.Stats.KeySplits.Load(), shape.CurrentNodes, shape.HistoryNodes, shape.Height)
	measure(tree.Now(), "current-version reads")
	measure(sampleTimes[len(sampleTimes)/2], "as-of reads (mid history)")
	measure(sampleTimes[0], "as-of reads (oldest)")
	fmt.Fprintf(w, "current-node versions=%d of %d total (history moved out of the current path)\n",
		shape.CurrentVersions, shape.Versions)
}

// T11Spatial is experiment T11: the multi-attribute Π-tree under random
// points — clipping produces multi-parent children that the §3.3
// consolidation test must reject, and region queries stay exact.
func T11Spatial(w io.Writer, p Params) {
	e := engine.New(engine.Options{})
	b := spatial.Register(e.Reg)
	st := e.AddStore(1, spatial.Codec{})
	tree, err := spatial.Create(st, e.TM, e.Locks, b, "t11", spatial.Options{DataCapacity: 16, IndexCapacity: 8, SyncCompletion: true})
	if err != nil {
		panic(err)
	}
	defer tree.Close()

	rng := newRng(123)
	const n = 20000
	inserted := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		pt := spatial.Point{X: rng.Uint64() % spatial.MaxCoord, Y: rng.Uint64() % spatial.MaxCoord}
		if err := tree.Insert(nil, pt, []byte("v")); err == nil {
			inserted++
		}
	}
	insertElapsed := time.Since(start)
	tree.DrainCompletions()
	shape, err := tree.Verify()
	if err != nil {
		panic(err)
	}
	// Region query probes.
	start = time.Now()
	const queries = 2000
	hits := 0
	for i := 0; i < queries; i++ {
		x := rng.Uint64() % (spatial.MaxCoord / 2)
		y := rng.Uint64() % (spatial.MaxCoord / 2)
		q := spatial.Rect{X0: x, Y0: y, X1: x + spatial.MaxCoord/16, Y1: y + spatial.MaxCoord/16}
		_ = tree.RegionQuery(q, func(pt spatial.Point, v []byte) bool {
			hits++
			return true
		})
	}
	qElapsed := time.Since(start)

	fmt.Fprintf(w, "\nT11: multi-attribute Π-tree — %d random points\n", inserted)
	fmt.Fprintf(w, "inserts: %.1f kops/s; region queries: %.1f q/s (%.1f hits avg)\n",
		float64(inserted)/insertElapsed.Seconds()/1000, float64(queries)/qElapsed.Seconds(), float64(hits)/float64(queries))
	fmt.Fprintf(w, "data nodes=%d index nodes=%d height=%d clipped terms=%d (multi-parent children present: %v)\n",
		shape.DataNodes, shape.IndexNodes, shape.Height, shape.Clipped, shape.Clipped > 0)
	fmt.Fprintf(w, "space partition verified: pairwise disjoint regions covering the full key space\n")
}

// T12Recovery is experiment T12: restart cost vs checkpointing, and the
// log-force savings of relative durability for atomic actions (§4.3.1).
// Quick() sizes it at 20 000 inserts and a checkpoint every 5 000.
func T12Recovery(w io.Writer, p Params) {
	fmt.Fprintf(w, "\nT12: recovery and relative durability\n")
	inserts, every := p.OpsPerThread, p.OpsPerThread/4

	run := func(checkpoint bool) (recovery.Stats, time.Duration, int64) {
		e := engine.New(engine.Options{})
		b := core.Register(e.Reg, false)
		st := e.AddStore(1, core.Codec{})
		tree, err := core.Create(st, e.TM, e.Locks, b, "t12", core.Options{LeafCapacity: 32, IndexCapacity: 32, Consolidation: true, SyncCompletion: true})
		if err != nil {
			panic(err)
		}
		for i := 0; i < inserts; i++ {
			if err := tree.Insert(nil, keys.Uint64(uint64(i)), []byte("v")); err != nil {
				panic(err)
			}
			if checkpoint && i%every == every-1 {
				tree.DrainCompletions()
				if _, err := e.FlushAll(); err != nil {
					panic(err)
				}
				if _, err := e.Checkpoint(); err != nil {
					panic(err)
				}
			}
		}
		tree.DrainCompletions()
		if err := e.Log.ForceAll(); err != nil {
			panic(err)
		}
		_, flushes := e.Log.Stats()
		tree.Close()
		img := e.Crash(nil)

		e2 := engine.Restarted(img, engine.Options{})
		core.Register(e2.Reg, false)
		e2.AddStore(1, core.Codec{})
		start := time.Now()
		stats, err := e2.Recover()
		if err != nil {
			panic(err)
		}
		return stats, time.Since(start), flushes
	}

	noCkpt, dNo, _ := run(false)
	withCkpt, dYes, _ := run(true)
	fmt.Fprintf(w, "%-32s%14s%14s%12s\n", "variant", "redo records", "skipped", "restart")
	fmt.Fprintf(w, "%-32s%14d%14d%12v\n", "no checkpoint", noCkpt.RedoneRecords, noCkpt.RedoSkipped, dNo.Round(time.Millisecond))
	fmt.Fprintf(w, "%-32s%14d%14d%12v\n", fmt.Sprintf("checkpoint every %d inserts", every), withCkpt.RedoneRecords, withCkpt.RedoSkipped, dYes.Round(time.Millisecond))

	// Relative durability: count physical log forces with and without
	// forcing on every atomic-action commit.
	forceCount := func(force bool) int64 {
		e := engine.New(engine.Options{ForceOnAACommit: force})
		b := core.Register(e.Reg, false)
		st := e.AddStore(1, core.Codec{})
		tree, _ := core.Create(st, e.TM, e.Locks, b, "t12b", core.Options{LeafCapacity: 16, IndexCapacity: 16, Consolidation: true, SyncCompletion: true})
		for i := 0; i < every; i++ {
			_ = tree.Insert(nil, keys.Uint64(uint64(i)), []byte("v"))
		}
		tree.DrainCompletions()
		tree.Close()
		_, flushes := e.Log.Stats()
		return flushes
	}
	relForces, aaForces := forceCount(false), forceCount(true)
	fmt.Fprintf(w, "log forces for %d inserts: relative durability=%d, force-per-AA-commit=%d\n",
		every, relForces, aaForces)
}

// tiny deterministic rng without math/rand import gymnastics.
type xorshift struct{ s uint64 }

func newRng(seed uint64) *xorshift { return &xorshift{s: seed | 1} }

func (x *xorshift) Uint64() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}
