package pitree

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/storage"
)

// The toy tree's scans: each leaf delivers its keys with the values in
// toyNode.vals. The toy's pages are never written or read back, so its
// codec only reports which nodes read-ahead warmed.

type toyCodec struct{ ty *toy }

func (toyCodec) AppendPage([]byte, any) ([]byte, error) {
	return nil, errors.New("toy: pages are never written")
}

func (toyCodec) DecodePage([]byte) (any, error) { return nil, errors.New("toy: pages are never read") }

func (c toyCodec) SuccessorHint(data any, _ []byte) storage.PageID {
	if c.ty.warmed != nil {
		c.ty.warmed <- data.(*toyNode)
	}
	return storage.NilPage // a chain of one: only the hinted page is warmed
}

// toyItem is a key and the value a scan read for it.
type toyItem struct{ key, val int }

// toyScan is the toy's Scanner over [cursor, math.MaxInt). Its hooks and
// counters expose the instants the kernel's Scan passes through.
type toyScan struct {
	items    []toyItem // the current leaf's
	got      []toyItem // everything emitted
	succ     storage.PageID
	collects int
	stop     int              // Emit ends the scan once this many are out; 0 never
	onName   func()           // runs in LockName, under the leaf's latch
	onEmit   func(s *toyScan) // runs in Emit, before delivery
}

func (s *toyScan) Collect(leaf Ref[*toyNode], cursor int) (int, int, storage.PageID, bool) {
	s.collects++
	n := leaf.N
	s.items = s.items[:0]
	for _, k := range n.keys {
		if k >= cursor {
			s.items = append(s.items, toyItem{k, n.vals[k]})
		}
	}
	s.succ = n.right
	return len(s.items), n.high, n.right, n.high != math.MaxInt
}

func (s *toyScan) LockName(i int) lock.Name {
	if s.onName != nil {
		s.onName()
	}
	return toyLockName(s.items[i].key)
}

func (s *toyScan) Emit() (bool, error) {
	if s.onEmit != nil {
		s.onEmit(s)
	}
	for _, it := range s.items {
		s.got = append(s.got, it)
		if len(s.got) == s.stop {
			return false, nil
		}
	}
	return true, nil
}

// fill stores keys, each with value 0, in the toy's leaves (quiescent).
func (ty *toy) fill(t *testing.T, leaves map[storage.PageID][]int) {
	t.Helper()
	for pid, ks := range leaves {
		n := ty.node(t, pid)
		n.keys, n.vals = ks, map[int]int{}
	}
}

func fillAll(t *testing.T, ty *toy) []int {
	ty.fill(t, map[storage.PageID][]int{toyLeafA: {10, 20}, toyLeafB: {60}, toyLeafC: {80, 90}, toyLeafD: {100, 200}})
	return []int{10, 20, 60, 80, 90, 100, 200}
}

func keysOf(items []toyItem) []int {
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = it.key
	}
	return out
}

// TestScanCrossesUnpostedSibling: leafC's term is unposted, so the cursor
// at leafB's high bound descends to leafB and side-traverses to leafC —
// scheduling its posting, as every descent that crosses it does.
func TestScanCrossesUnpostedSibling(t *testing.T) {
	ty := newToy(t, false, false)
	want := fillAll(t, ty)
	s := &toyScan{}
	if err := ty.kern.Scan(nil, 0, nil, s); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(keysOf(s.got), want) || s.collects != 4 {
		t.Fatalf("scan delivered %v from %d leaves, want %v from 4", keysOf(s.got), s.collects, want)
	}
	if ty.sides != 1 || ty.posted != 1 {
		t.Fatalf("%d side traversals (%d scheduling), want the one into leafC, scheduling", ty.sides, ty.posted)
	}
}

// TestScanStopsWhenEmitSays: an Emit that returns false ends the scan;
// no further leaf is read.
func TestScanStopsWhenEmitSays(t *testing.T) {
	ty := newToy(t, false, false)
	fillAll(t, ty)
	s := &toyScan{stop: 3}
	if err := ty.kern.Scan(nil, 0, nil, s); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(keysOf(s.got), []int{10, 20, 60}) || s.collects != 2 {
		t.Fatalf("scan delivered %v from %d leaves, want [10 20 60] from 2", keysOf(s.got), s.collects)
	}
}

// TestScanReadsAhead: every leaf but the last hands the successor the tree
// named to read-ahead before its items are emitted.
func TestScanReadsAhead(t *testing.T) {
	ty := newToy(t, false, false)
	fillAll(t, ty)
	ty.warmed = make(chan *toyNode, 8)
	ty.pool.EnablePrefetch(1)
	t.Cleanup(ty.pool.StopPrefetch)
	var warmed []storage.PageID
	s := &toyScan{onEmit: func(s *toyScan) {
		if s.succ == storage.NilPage {
			return
		}
		want := ty.node(t, s.succ)
		for deadline := time.After(toyWaitForBlocking); ; {
			select {
			case n := <-ty.warmed:
				if n != want {
					continue
				}
				warmed = append(warmed, s.succ)
			case <-deadline:
				t.Fatalf("successor %d never reached read-ahead", s.succ)
			}
			return
		}
	}}
	if err := ty.kern.Scan(nil, 0, nil, s); err != nil {
		t.Fatal(err)
	}
	if want := []storage.PageID{toyLeafB, toyLeafC, toyLeafD}; !slices.Equal(warmed, want) {
		t.Fatalf("read-ahead warmed %v, want %v", warmed, want)
	}
}

// TestScanLocksLeafOnce: uncontended, a transactional scan takes each
// leaf's record locks in one lock-manager interaction — the names of a
// leaf are all asked for before any of them is granted — waits for none
// and never restarts.
func TestScanLocksLeafOnce(t *testing.T) {
	ty := newToy(t, false, false)
	want := fillAll(t, ty)
	tx := ty.tm.Begin()
	before := ty.lm.Grants()
	var asked []int64 // the grant count at each LockName
	s := &toyScan{onName: func() { asked = append(asked, ty.lm.Grants()) }}
	s.onEmit = func(s *toyScan) {
		n := len(s.items)
		if leaf := asked[len(asked)-n:]; slices.Min(leaf) != slices.Max(leaf) {
			t.Fatalf("grants moved between the lock names of one leaf: %v", leaf)
		}
		if got := ty.lm.Grants(); got != asked[len(asked)-1]+int64(n) {
			t.Fatalf("leaf of %d keys: grants %d → %d", n, asked[len(asked)-1], got)
		}
	}
	if err := ty.kern.Scan(tx, 0, nil, s); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(keysOf(s.got), want) || len(asked) != len(want) {
		t.Fatalf("scan delivered %v asking %d names", keysOf(s.got), len(asked))
	}
	if waits, _ := ty.lm.Stats(); waits != 0 || ty.restarts.Load() != 0 || ty.lm.Grants()-before != int64(len(want)) {
		t.Fatalf("%d waits, %d restarts, %d grants", waits, ty.restarts.Load(), ty.lm.Grants()-before)
	}
	for _, k := range want {
		if mode, held := ty.lm.HeldMode(tx.ID, toyLockName(k)); !held || mode != lock.S {
			t.Fatalf("key %d: held=%v mode %v, want S", k, held, mode)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestScanRereadsAfterWait: the scan reads key 20's uncommitted value,
// finds its lock held, waits without the latch, and — once the holder has
// written a new value and committed — re-reads the leaf: it delivers the
// new value, never the one read before the wait.
func TestScanRereadsAfterWait(t *testing.T) {
	ty := newToy(t, false, false)
	ty.fill(t, map[storage.PageID][]int{toyLeafA: {10, 20}})
	leafA := ty.node(t, toyLeafA)
	leafA.vals[20] = 1 // the holder's uncommitted write
	holder, tx := ty.tm.Begin(), ty.tm.Begin()
	if err := holder.Lock(toyLockName(20), lock.X); err != nil {
		t.Fatal(err)
	}
	s := &toyScan{}
	done := make(chan error, 1)
	go func() { done <- ty.kern.Scan(tx, 0, nil, s) }()

	deadline := time.Now().Add(toyWaitForBlocking)
	for waits, _ := ty.lm.Stats(); waits == 0; waits, _ = ty.lm.Stats() {
		if time.Now().After(deadline) {
			t.Fatal("the scan never blocked on the held lock")
		}
		time.Sleep(time.Millisecond)
	}
	f, err := ty.pool.Fetch(toyLeafA)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Latch.TryAcquireX() {
		t.Fatal("leaf still latched while its scan waits for a record lock")
	}
	leafA.vals[20] = 2 // the holder's last write, then its commit
	f.Latch.ReleaseX()
	ty.pool.Unpin(f)
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if want := []toyItem{{10, 0}, {20, 2}}; !slices.Equal(s.got, want) {
		t.Fatalf("scan delivered %v, want %v", s.got, want)
	}
	if got := ty.restarts.Load(); got != 1 || s.collects != 5 {
		t.Fatalf("%d restarts, %d collects; want 1, and 5: leafA twice, then the three empty leaves", got, s.collects)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
