package pitree

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/latch"
	"repro/internal/storage"
)

// TestToyDescent proves the Space contract sufficient: the toy tree is
// navigated — through a child edge, a side pointer with its posting
// scheduled, to an index level, and in every latch mode — by the kernel
// alone, on both descents and under both edge rules.
func TestToyDescent(t *testing.T) {
	for _, couple := range []bool{false, true} {
		for _, pessimistic := range []bool{false, true} {
			ty := newToy(t, couple, pessimistic)
			for _, tc := range []struct {
				key, stop int
				mode      latch.Mode
				want      storage.PageID
				sides     int
			}{
				{10, 0, latch.S, toyLeafA, 0},
				{60, 0, latch.U, toyLeafB, 0},
				{80, 0, latch.X, toyLeafC, 1}, // unposted: via leafB's side pointer
				{500, 0, latch.S, toyLeafD, 0},
				{80, 1, latch.U, toyLeft, 0},
				{80, 2, latch.U, toyRoot, 0},
			} {
				ty.sides, ty.posted = 0, 0
				got, err := ty.descend(tc.key, tc.stop, tc.mode)
				if err != nil || got != tc.want {
					t.Fatalf("couple=%v pessimistic=%v key %d level %d: page %d, %v; want page %d", couple, pessimistic, tc.key, tc.stop, got, err, tc.want)
				}
				if ty.sides != tc.sides || ty.posted != tc.sides {
					t.Fatalf("key %d: %d side edges, %d scheduled; want %d", tc.key, ty.sides, ty.posted, tc.sides)
				}
			}
			if _, err := ty.descend(10, 3, latch.S); !errors.Is(err, ErrLevelGone) {
				t.Fatalf("descent above the root: %v, want ErrLevelGone", err)
			}
			if !pessimistic && (ty.hits.Load() == 0 || ty.fallbacks.Load() != 0) {
				t.Fatalf("optimistic descents: %d snapshot hits, %d fallbacks", ty.hits.Load(), ty.fallbacks.Load())
			}
		}
	}
}

// TestStepLatchCount checks the edge rule through the tracker: a coupled
// step holds source and target together, an uncoupled one never holds
// more than one latch.
func TestStepLatchCount(t *testing.T) {
	for _, tc := range []struct {
		couple bool
		want   int
	}{{false, 1}, {true, 2}} {
		ty := newToy(t, tc.couple, true)
		if _, err := ty.descend(80, 0, latch.S); err != nil {
			t.Fatal(err)
		}
		if ty.maxHeld != tc.want {
			t.Fatalf("couple=%v: at most %d latches held, want %d", tc.couple, ty.maxHeld, tc.want)
		}
	}
}

// TestOptimisticSourceRevalidation moves the source's version between the
// target's navLoad and the source re-validation: the pass must abort and
// the next one, reading a refreshed snapshot, succeed — without falling
// back.
func TestOptimisticSourceRevalidation(t *testing.T) {
	ty := newToy(t, true, false)
	left := ty.node(t, toyLeft)
	ty.onClone = func(n *toyNode) {
		if n == left {
			ty.bump(toyRoot) // left is being loaded as the target of root's edge
		}
	}
	got, err := ty.descend(10, 0, latch.S)
	if err != nil || got != toyLeafA {
		t.Fatalf("page %d, %v", got, err)
	}
	if n := ty.clones[ty.node(t, toyRoot)]; n != 2 {
		t.Fatalf("root snapshot taken %d times, want 2 (first pass, refresh after the aborted pass)", n)
	}
	if ty.fallbacks.Load() != 0 || ty.retries.Load() == 0 {
		t.Fatalf("fallbacks=%d retries=%d; want an aborted pass and no fallback", ty.fallbacks.Load(), ty.retries.Load())
	}
}

// TestOptimisticBudgetExhausted invalidates the root under every pass:
// after optRetries restarts the descent falls back to the latched path,
// once, and still arrives.
func TestOptimisticBudgetExhausted(t *testing.T) {
	ty := newToy(t, true, false)
	root := ty.node(t, toyRoot)
	passes := 0
	ty.onRoute = func(n *toyNode) {
		if n != root { // a snapshot of the root: an optimistic pass is reading it
			if n.level == 2 {
				passes++
				ty.bump(toyRoot)
			}
		}
	}
	got, err := ty.descend(10, 0, latch.S)
	if err != nil || got != toyLeafA {
		t.Fatalf("page %d, %v", got, err)
	}
	if passes != optRetries+1 || ty.fallbacks.Load() != 1 {
		t.Fatalf("%d optimistic passes, %d fallbacks; want %d and 1", passes, ty.fallbacks.Load(), optRetries+1)
	}
}

// TestDeadTargetRestarts lands a coupled traversal on a node marked dead
// (§5.2.2(b)): the pointer predates the de-allocation, so the operation
// restarts — on an interior edge, on the final edge, and latched.
func TestDeadTargetRestarts(t *testing.T) {
	for _, pessimistic := range []bool{false, true} {
		for _, victim := range []storage.PageID{toyLeft, toyLeafA} {
			ty := newToy(t, true, pessimistic)
			ty.setDead(t, victim, true)
			if _, err := ty.descend(10, 0, latch.U); !errors.Is(err, ErrRetry) {
				t.Fatalf("pessimistic=%v dead page %d: %v, want ErrRetry", pessimistic, victim, err)
			}
			attempts := 0
			err := ty.kern.RetryLoop(nil, func(o *Op[*toyNode]) error {
				if attempts++; attempts == 3 {
					ty.setDead(t, victim, false)
				}
				r, err := ty.kern.Descend(o, 10, 0, latch.S, false, nil)
				o.Release(&r)
				return err
			})
			if err != nil || attempts != 3 || ty.restarts.Load() != 2 {
				t.Fatalf("RetryLoop: %v after %d attempts, %d restarts counted", err, attempts, ty.restarts.Load())
			}
		}
	}
}

// TestNonNodeFrame points an edge at a page that holds something else:
// the descent reports an error — no panic, no leaked latch — on every
// path, interior edge and final edge alike.
func TestNonNodeFrame(t *testing.T) {
	for _, pessimistic := range []bool{false, true} {
		for _, victim := range []storage.PageID{toyLeft, toyLeafA} {
			ty := newToy(t, true, pessimistic)
			ty.put(t, 99, "not a node")
			if victim == toyLeft {
				ty.node(t, toyRoot).kids[0] = 99
			} else {
				ty.node(t, toyLeft).kids[0] = 99
			}
			_, err := ty.descend(10, 0, latch.S)
			if err == nil || !strings.Contains(err.Error(), "toy: page 99 holds string") {
				t.Fatalf("pessimistic=%v via %d: %v", pessimistic, victim, err)
			}
		}
	}
}

func TestPromoteOfNonUPanics(t *testing.T) {
	ty := newToy(t, false, true)
	for _, mode := range []latch.Mode{latch.S, latch.X} {
		o := ty.kern.NewOp(nil)
		r, err := o.Acquire(toyLeafA, mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("promote of a %v reference did not panic", mode)
				}
			}()
			o.Promote(&r)
		}()
		o.Release(&r)
		o.Done()
	}
}
