package pitree

import (
	"fmt"

	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/storage"
)

// Checker is what a tree supplies to Verify: the clauses of the paper's
// well-formedness definition (§2.1.3) that depend on its space. Nodes come
// S-latched; a checker keeps only summaries of them.
type Checker[N any] interface {
	// Root checks that the root is responsible for the whole space.
	Root(root Ref[N]) error
	// Node checks each reachable node once: its entries are in order and
	// inside its directly contained space.
	Node(r Ref[N]) error
	// Link checks every pointer of every reachable node: to is reached from
	// from through index term term, or through a side pointer when term is
	// -1. An index term's child must be responsible for the term's region.
	Link(from Ref[N], term int, to Ref[N]) error
	// Partition runs last: each level's direct spaces partition the space.
	Partition() error
}

// Verify checks that the tree is well-formed (§2.1.3), at a quiescent
// point. It owns the clauses every Π-tree shares and asks c for the rest:
// every page reachable from the root through side pointers and index
// terms is visited once, under a momentary S latch, and holds an
// allocated, live node of this tree; a side pointer stays on its level
// and an index term's child lies one level down (checked per pointer,
// the target latched behind its source, where c.Link checks it too); each
// node's image fits its page and is as long as Space.EncodedSize says; and
// no reachable page is free (Store.SpaceCheck).
func (k *Kernel[N, K]) Verify(c Checker[N]) error {
	reachable, err := k.walk(0, func(o *Op[N], r *Ref[N]) error {
		pid, level := r.Pid(), k.sp.Level(r.N)
		if pid == k.s.Root {
			if err := c.Root(*r); err != nil {
				return err
			}
		}
		if alloc, err := k.s.Store.IsAllocated(pid); err != nil {
			return err
		} else if !alloc {
			return fmt.Errorf("reachable page %d of level %d is not allocated", pid, level)
		}
		if k.sp.Dead(r.N) {
			return fmt.Errorf("reachable page %d of level %d is marked dead", pid, level)
		}
		if size, img := k.sp.EncodedSize(r.N), len(k.kinds.Image(r.N)); size != img || img > k.room {
			return fmt.Errorf("page %d of level %d: image %dB, encoded size %dB, room %dB", pid, level, img, size, k.room)
		}
		err := c.Node(*r)
		k.sp.Links(r.N, func(to storage.PageID, term int) {
			if err == nil {
				err = k.link(o, c, r, level, to, term)
			}
		})
		return err
	})
	if err == nil {
		err = c.Partition()
	}
	if err == nil {
		err = k.s.Store.SpaceCheck(reachable)
	}
	if err != nil {
		return fmt.Errorf("%s verify: %w", k.s.Name, err)
	}
	return nil
}

// link latches pid, reached from from at level through index term term or
// a side pointer (term -1), checks that it lies one level down or on the
// same level, and hands both ends to c.Link.
func (k *Kernel[N, K]) link(o *Op[N], c Checker[N], from *Ref[N], level int, pid storage.PageID, term int) error {
	what, want := "side pointer", level
	if term >= 0 {
		what, want = fmt.Sprintf("index term %d", term), level-1
	}
	to, err := o.Acquire(pid, latch.S, want)
	if err != nil {
		return fmt.Errorf("%s of page %d: %w", what, from.Pid(), err)
	}
	defer o.Release(&to)
	if got := k.sp.Level(to.N); got != want {
		return fmt.Errorf("%s of page %d reaches page %d at level %d, want %d", what, from.Pid(), pid, got, want)
	}
	return c.Link(*from, term, to)
}

// Span is a node of a one-dimensional chain: its directly contained keys
// and the side pointer to the node holding the keys above them.
type Span struct {
	Low  keys.Key
	High keys.Bound
	Next storage.PageID
}

// Chain checks that the n nodes of one chain — a B-link level, or a TSB
// tree's current data nodes — partition the key space: from leftmost,
// open below, through Next, each node starting where its predecessor
// ends, to one open above, with none of the n off the chain.
func Chain(spans map[storage.PageID]Span, leftmost storage.PageID, n int) error {
	if leftmost == storage.NilPage {
		return fmt.Errorf("no node is open below")
	}
	var prev keys.Bound
	chained := 0
	for pid := leftmost; pid != storage.NilPage; pid = spans[pid].Next {
		s, ok := spans[pid]
		switch {
		case !ok:
			return fmt.Errorf("page %d is not a node of the chain", pid)
		case chained == 0 && s.Low != nil:
			return fmt.Errorf("leftmost node %d has Low=%x", pid, s.Low)
		case chained > 0 && (prev.Unbounded || !keys.Equal(prev.Key, s.Low)):
			return fmt.Errorf("gap/overlap at page %d: prev high %v vs low %x", pid, prev, s.Low)
		case chained == n:
			return fmt.Errorf("chain loops at page %d", pid)
		}
		prev, chained = s.High, chained+1
	}
	if !prev.Unbounded {
		return fmt.Errorf("chain ends bounded at %v", prev)
	} else if chained != n {
		return fmt.Errorf("%d reachable nodes but %d on the chain", n, chained)
	}
	return nil
}

// Walk visits every page reachable from the root once, breadth first
// through Space.Links, and hands fn its node S-latched. Pointers into
// levels below lowest are not followed. One node is latched at a time, so
// the walk runs beside writers, each node as current as its latch.
func (k *Kernel[N, K]) Walk(lowest int, fn func(r Ref[N]) error) error {
	_, err := k.walk(lowest, func(_ *Op[N], r *Ref[N]) error { return fn(*r) })
	return err
}

// walk is Walk handing visit the walk's operation as well, and returning
// the pages it reached.
func (k *Kernel[N, K]) walk(lowest int, visit func(o *Op[N], r *Ref[N]) error) (map[storage.PageID]bool, error) {
	o := k.NewOp(nil)
	defer o.Done()
	type target struct {
		pid   storage.PageID
		level int // the level the pointer to pid expects
	}
	seen := map[storage.PageID]bool{k.s.Root: true}
	for queue := []target{{k.s.Root, MaxLevel}}; len(queue) > 0; queue = queue[1:] {
		r, err := o.Acquire(queue[0].pid, latch.S, queue[0].level)
		if err != nil {
			return seen, err
		}
		if err = visit(o, &r); err == nil {
			level := k.sp.Level(r.N)
			k.sp.Links(r.N, func(pid storage.PageID, term int) {
				next := level
				if term >= 0 {
					next--
				}
				if next >= lowest && !seen[pid] {
					seen[pid] = true
					queue = append(queue, target{pid, next})
				}
			})
		}
		o.Release(&r)
		if err != nil {
			return seen, err
		}
	}
	return seen, nil
}

// Responsible is the child re-test of a posting's Verify step (§5.3), for
// a child named before a consolidation could free its page and the store
// hand the page to another node: with the parent U-latched, it latches pid
// S and reports whether the page is allocated — by an action that has
// committed, so no term names a node whose creation may still be undone —
// and holds a live node at level that covers says is responsible for the
// posting's region.
func (k *Kernel[N, K]) Responsible(o *Op[N], pid storage.PageID, level int, covers func(N) bool) (bool, error) {
	r, err := o.Acquire(pid, latch.S, level)
	if err != nil {
		return false, err
	}
	defer o.Release(&r)
	alloc, err := k.s.Store.IsAllocated(pid)
	return alloc && k.sp.Level(r.N) == level && !k.sp.Dead(r.N) && covers(r.N), err
}
