package core

import (
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/pitree/pitreetest"
	"repro/internal/storage"
	"repro/internal/wal"
)

// sweepFunc runs the merge sweep under one parent from the pair whose
// contained term is c, with no batch budget.
type sweepFunc func(o *opCtx, c consolidateTask) error

// sweep is consolidate's sweep as a sweepFunc.
func (t *Tree) sweep(o *opCtx, c consolidateTask) error {
	_, err := (&merge{t: t, c: c, capacity: t.capacity(c.level)}).sweep(o, 1<<20)
	return err
}

// sweepLevel runs a merge sweep over every node at level, left to right,
// each from its first pair to its last.
func (fx *fixture) sweepLevel(level int, sweep sweepFunc) error {
	low := keys.Uint64(0)
	for {
		var high keys.Bound
		err := fx.tree.kern.RetryLoop(nil, func(o *opCtx) error {
			parent, err := fx.tree.descendTo(o, low, level, latch.S, false, nil)
			if err != nil {
				return err
			}
			e := parent.N.entry(0)
			c := consolidateTask{level: level - 1, low: keys.Clone(e.Key), pid: e.Child}
			high = keys.Bound{Unbounded: parent.N.High.Unbounded, Key: keys.Clone(parent.N.High.Key)}
			o.Release(&parent)
			return sweep(o, c)
		})
		if errors.Is(err, errLevelGone) || (err == nil && high.Unbounded) {
			return nil
		}
		if err != nil {
			return err
		}
		low = high.Key
	}
}

// freeCase is one configuration of core's free actions.
type freeCase struct {
	name                  string
	pageOriented, dealloc bool
	// forceAA: every atomic-action commit forces the log.
	forceAA bool
}

var freeCases = []freeCase{
	{name: "logical"},
	{name: "logical/dealloc-is-update", dealloc: true},
	{name: "page-oriented", pageOriented: true},
	{name: "page-oriented/dealloc-is-update", pageOriented: true, dealloc: true},
}

// seedFree builds n keys' tree and deletes all but every 25th key, with
// completions off from then on, so nothing merges until a test sweeps.
func seedFree(t *testing.T, tc freeCase, inj *fault.Injector, n int) *fixture {
	t.Helper()
	opts := defaultTestOpts()
	opts.DeallocIsUpdate = tc.dealloc
	fx := newFixture(t, engine.Options{PageOriented: tc.pageOriented, Injector: inj, ForceOnAACommit: tc.forceAA}, opts)
	for k := 0; k < n; k++ {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(k)), val(k)); err != nil {
			t.Fatal(err)
		}
	}
	fx.tree.DrainCompletions()
	fx.tree.opts.NoCompletion = true
	for k := 0; k < n; k++ {
		if k%25 != 0 {
			if err := fx.tree.Delete(nil, keys.Uint64(uint64(k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return fx
}

// consolidateAll sweeps every level and shrinks the root, three times over.
func (fx *fixture) consolidateAll(t *testing.T, sweep sweepFunc, shrink func()) {
	t.Helper()
	for round := 0; round < 3; round++ {
		for level := 1; level <= 3; level++ {
			if err := fx.sweepLevel(level, sweep); err != nil {
				t.Fatal(err)
			}
		}
		shrink()
	}
}

// TestFreeActionLogIdentity: on two copies of one seeded state, the merge
// sweeps and root shrinks that run through the kernel's Absorb log, record
// for record and in order, what the actions written before Absorb logged
// (kept in oracle_test.go) — under logical and page-oriented undo, with
// de-allocation strategy (a) and (b).
func TestFreeActionLogIdentity(t *testing.T) {
	for _, tc := range freeCases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(oracle bool) []wal.Record {
				fx := seedFree(t, tc, nil, 200)
				sweep, shrink := fx.tree.sweep, fx.tree.shrinkRoot
				if oracle {
					sweep, shrink = fx.tree.oracleSweep, fx.tree.oracleShrinkRoot
				}
				from := fx.e.Log.EndLSN()
				fx.consolidateAll(t, sweep, shrink)
				recs := pitreetest.RecordsFrom(t, fx.e.Log, from)
				fx.mustVerify(t)
				return recs
			}
			got, want := run(false), run(true)
			seen := map[wal.Kind]int{}
			for _, r := range got {
				seen[r.Kind]++
			}
			for _, k := range []wal.Kind{KindConsolidateMove, KindRemoveIndexTerm, KindRootShrink, storage.KindMetaFree} {
				if seen[k] == 0 {
					t.Fatalf("the sweeps logged no record of kind %d: the test lost its point (%v)", k, seen)
				}
			}
			if tc.dealloc != (seen[KindMarkDead] > 0) {
				t.Fatalf("%d dead marks with DeallocIsUpdate %v", seen[KindMarkDead], tc.dealloc)
			}
			pitreetest.SameRecords(t, got, want)
		})
	}
}

// TestCrashInsideFree: a crash inside the free — at storage.FPStoreFree,
// with the unlink logged and the page's free record not, and at
// storage.FPConsolidate, with both logged and the commit not — of the first
// merge of a sweep, in every configuration, and of a root shrink. Restart
// leaves a well-formed tree whose free-space map matches the log
// (pitreetest.FinishAudited), in which a page is free if and only if it is
// unlinked, holding every key it held.
func TestCrashInsideFree(t *testing.T) {
	cases := append([]freeCase{}, freeCases...)
	cases = append(cases, freeCase{name: "root shrink"})
	for _, tc := range cases {
		for _, fp := range []string{storage.FPStoreFree, storage.FPConsolidate} {
			t.Run(tc.name+"/"+fp, func(t *testing.T) {
				inj := fault.New(1)
				shrink := tc.name == "root shrink"
				n := 200
				if shrink {
					n = 30 // two levels: the sweep leaves the root one child
				}
				fx := seedFree(t, tc, inj, n)
				if shrink {
					if err := fx.sweepLevel(1, fx.tree.sweep); err != nil {
						t.Fatal(err)
					}
				}
				want := fx.contents(t)
				from := fx.e.Log.EndLSN()
				inj.Arm(fp, fault.Spec{Kind: fault.Transient})
				if shrink {
					fx.tree.shrinkRoot()
				} else if err := fx.sweepLevel(1, fx.tree.sweep); !errors.Is(err, fault.ErrInjected) {
					t.Fatalf("sweep: %v", err)
				}
				if len(inj.Trips()) != 1 {
					t.Fatalf("%s fired %d times", fp, len(inj.Trips()))
				}
				cut, last := pitreetest.CutAtFailure(t, fx.e.Log, from)
				if (last == storage.KindMetaFree) != (fp == storage.FPConsolidate) {
					t.Fatalf("the action's last record before the failure is of kind %d", last)
				}
				fx.e.Opts.Injector = nil
				fx2 := fx.crashRestart(t, &cut)
				fx2.mustVerify(t)
				pitreetest.FreeIffUnlinked(t, fx2.tree.kern, fx2.tree.store)
				sameContents(t, "after restart", fx2.contents(t), want)
			})
		}
	}
}
