package tsb

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/keys"
	"repro/internal/txn"
)

// TestAbortedRoundKeepsCommittedVersions is the torture gate's snapshot
// writer made deterministic (the shape B of its durability family: an
// acked round's key missing after restart). Round N commits a version of
// every snapshot key; round N+1 writes the same keys and aborts, its puts
// undone by undoPut; then the engine crashes — at once, or inside a
// later commit's early lock release (txn.elr). After restart every key must
// hold round N's version, in a bounded pool and an unbounded one.
func TestAbortedRoundKeepsCommittedVersions(t *testing.T) {
	const snapKeys, rounds = 8, 6
	for _, pool := range []int{0, 12} {
		for _, atELR := range []bool{false, true} {
			t.Run(fmt.Sprintf("pool%d/elr=%v", pool, atELR), func(t *testing.T) {
				inj := fault.New(1)
				opts := smallOpts()
				opts.GC = true
				fx := newEngineFixture(t, engine.Options{Injector: inj, PoolCapacity: pool}, opts)
				round := func(r int, commit bool) error {
					tx := fx.e.TM.Begin()
					for i := 0; i < snapKeys; i++ {
						if err := fx.tree.Put(tx, keys.Uint64(1<<40+uint64(i)), []byte(fmt.Sprint("s", r))); err != nil {
							return err
						}
					}
					if !commit {
						return tx.Abort()
					}
					return tx.Commit()
				}
				for r := 0; r < rounds; r++ {
					if err := round(r, true); err != nil {
						t.Fatal(err)
					}
				}
				if err := round(rounds, false); err != nil {
					t.Fatal(err)
				}
				if atELR {
					inj.Arm(txn.FPELR, fault.Spec{Kind: fault.None, Crash: true})
					_ = round(rounds+1, true) // dies after its locks go, before its commit is stable
				} else {
					if err := fx.e.Log.ForceAll(); err != nil {
						t.Fatal(err)
					}
					inj.TripCrash()
				}
				fx.e.Opts.Injector = nil
				fx2 := fx.crashRestart(t)
				fx2.mustVerify(t)
				want := fmt.Sprint("s", rounds-1)
				for i := 0; i < snapKeys; i++ {
					v, ok, err := fx2.tree.Get(nil, keys.Uint64(1<<40+uint64(i)))
					if err != nil || !ok || string(v) != want {
						t.Fatalf("snap key %d = %q ok=%v err=%v after restart, committed %q", i, v, ok, err, want)
					}
				}
			})
		}
	}
}
