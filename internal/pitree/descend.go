package pitree

import (
	"repro/internal/latch"
	"repro/internal/storage"
)

// Descend walks from the root to the node at stopLevel whose directly
// contained space includes key, returning it latched in finalMode.
// Interior levels are navigated optimistically (version-validated
// snapshot reads: no latches, no pins held across levels); after bounded
// validation failures the whole descent falls back to the fully latched
// discipline. Every side traversal, and with a non-nil trace every
// parent-to-child edge, is reported to the Space's Edge hook.
func (k *Kernel[N, K]) Descend(o *Op[N], key K, stopLevel int, finalMode latch.Mode, sched bool, trace any) (Ref[N], error) {
	if k.s.Pessimistic {
		return k.descendLatched(o, key, stopLevel, finalMode, sched, trace)
	}
	// Bounded optimistic passes from the root; snapshot-read outcomes are
	// accumulated locally so the hot path touches the shared counters once
	// per operation instead of once per level (on a multicore run those
	// are contended cache lines).
	var (
		c    optCounters
		r    Ref[N]
		err  error
		done bool
	)
	for attempt := 0; attempt <= optRetries && !done; attempt++ {
		r, err, done = k.optPass(o, &c, key, stopLevel, finalMode, sched, trace)
	}
	if c.hits > 0 {
		k.s.OptimisticHits.Add(c.hits)
	}
	if c.retries > 0 {
		k.s.OptimisticRetries.Add(c.retries)
	}
	if done {
		return r, err
	}
	k.s.OptimisticFallbacks.Add(1)
	return k.descendLatched(o, key, stopLevel, finalMode, sched, trace)
}

// Step moves from *cur to pid (expected at level), applying the edge
// rule in force. Coupled (CP): the target is latched before cur is
// released, so the node cannot be freed — and its page recycled —
// between the pointer load and the latch; a target found marked dead was
// de-allocated before the pointer was read and restarts the operation.
// Uncoupled (CNS): cur is released first ("only one latch at a time",
// §5.2.1); the target is immortal. Ranks ascend source to target (same
// level: sequence order; child level: higher rank), so coupling respects
// the latch order. cur is released on every path.
func (k *Kernel[N, K]) Step(o *Op[N], cur *Ref[N], pid storage.PageID, mode latch.Mode, level int) (Ref[N], error) {
	if !k.s.Couple {
		o.Release(cur)
		return o.Acquire(pid, mode, level)
	}
	next, err := o.Acquire(pid, mode, level)
	if err != nil {
		o.Release(cur)
		return Ref[N]{}, err
	}
	dead := k.sp.Dead(next.N)
	o.Release(cur)
	if dead {
		o.Release(&next)
		return Ref[N]{}, ErrRetry
	}
	return next, nil
}

// descendLatched is the fully latched descent.
func (k *Kernel[N, K]) descendLatched(o *Op[N], key K, stopLevel int, finalMode latch.Mode, sched bool, trace any) (Ref[N], error) {
	// The root's level is only known once latched, so it is read under S
	// and, when the root itself is the target, re-acquired in finalMode.
	cur, err := o.Acquire(k.s.Root, latch.S, MaxLevel)
	if err != nil {
		return Ref[N]{}, err
	}
	lvl := k.sp.Level(cur.N)
	if lvl < stopLevel {
		o.Release(&cur)
		return Ref[N]{}, ErrLevelGone
	}
	if lvl == stopLevel && finalMode != latch.S {
		// The root never moves, so dropping the S latch first is safe
		// under both invariants.
		o.Release(&cur)
		if cur, err = k.acquireRoot(o, stopLevel, finalMode); err != nil {
			return Ref[N]{}, err
		}
	}
	return k.DescendFrom(o, cur, key, stopLevel, finalMode, sched, trace)
}

// acquireRoot latches the root, believed to be at level, in mode, and
// restarts the operation if it grew or shrank in the meantime.
func (k *Kernel[N, K]) acquireRoot(o *Op[N], level int, mode latch.Mode) (Ref[N], error) {
	r, err := o.Acquire(k.s.Root, mode, level)
	if err != nil {
		return Ref[N]{}, err
	}
	if k.sp.Level(r.N) != level {
		o.Release(&r)
		return Ref[N]{}, ErrRetry
	}
	return r, nil
}

// DescendFrom continues a latched descent from cur (already latched, at
// or above stopLevel) down to the stopLevel node directly containing
// key. The optimistic descent lands here for the final level's side
// traversals, which always run latched; a tree whose saved state names a
// node it may still trust (§5.2) starts its re-traversal here instead of
// at the root.
func (k *Kernel[N, K]) DescendFrom(o *Op[N], cur Ref[N], key K, stopLevel int, finalMode latch.Mode, sched bool, trace any) (Ref[N], error) {
	// A node's level never changes while it is allocated (only the root's
	// does, and acquireRoot re-checks that), so it is read once and
	// tracked down the edges.
	lvl := k.sp.Level(cur.N)
	for {
		r := k.sp.Route(cur.N, key, lvl == stopLevel)
		mode := cur.Mode
		switch r.Kind {
		case Here:
			return cur, nil
		case Restart:
			o.Release(&cur)
			return Ref[N]{}, ErrRetry
		case Side:
			k.sp.Edge(cur.N, cur.F, r, sched, trace)
		case Child:
			if trace != nil {
				k.sp.Edge(cur.N, cur.F, r, sched, trace)
			}
			lvl--
			mode = latch.S
			if lvl == stopLevel {
				mode = finalMode
			}
		}
		next, err := k.Step(o, &cur, r.Pid, mode, lvl)
		if err != nil {
			return Ref[N]{}, err
		}
		cur = next
	}
}

// --- optimistic descent ------------------------------------------------------

// optRetries bounds full-descent restarts after validation failures
// before the operation falls back to the latched path. Restarting from
// the root is cheap (a handful of atomic loads per level), so a small
// budget absorbs transient SMO interference without risking livelock
// against a write-heavy run.
const optRetries = 3

// navRef is an unlatched, pinned view of a node: an immutable snapshot n
// proved current at latch version v. The pin keeps the frame (and its
// version counter) from being recycled while the reference is live.
type navRef[N any] struct {
	f *storage.Frame
	n N
	v uint64
}

// optCounters accumulates one descent's snapshot-read outcomes.
type optCounters struct {
	hits    int64
	retries int64
}

// navLoad returns a validated snapshot of the pinned frame f. The fast
// path is three atomic loads (published snapshot, version check); when
// the published snapshot is missing or stale a brief S latch refreshes
// it — the only latch traffic an optimistic descent ever generates, paid
// once per node mutation rather than once per visit. ok is false when
// the frame does not hold a node (the caller falls back to the latched
// path, which surfaces the real error).
func (k *Kernel[N, K]) navLoad(f *storage.Frame, c *optCounters) (navRef[N], bool) {
	if data, pub, ok := f.NavSnapshot(); ok {
		if v, quiet := f.Latch.OptimisticRead(); quiet && v == pub {
			n, isNode := data.(N)
			if !isNode {
				return navRef[N]{}, false
			}
			c.hits++
			return navRef[N]{f: f, n: n, v: v}, true
		}
		c.retries++
	}
	f.Latch.AcquireS()
	n, isNode := f.Data.(N)
	if !isNode {
		f.Latch.ReleaseS()
		return navRef[N]{}, false
	}
	snap := k.sp.Clone(n)
	v := f.Latch.Version()
	f.PublishNav(snap, v)
	f.Latch.ReleaseS()
	return navRef[N]{f: f, n: snap, v: v}, true
}

// optPass is one optimistic descent from the root. done is false when a
// validation failure (or non-node frame) aborted the pass; the caller
// restarts or falls back. The protocol per edge, following Lomet &
// Salzberg's well-formedness argument (§3-§4, see DESIGN.md):
//
//  1. read the source node through a validated snapshot (navLoad);
//  2. pin the target frame named by the snapshot;
//  3. load the target's own validated snapshot;
//  4. re-validate the source's version, with the source still pinned.
//
// Step 4 closes the free/re-allocate window: every de-allocation of a
// node is preceded — inside the same atomic action, under X latches — by
// removing the last reference to it (the parent's index term, or the
// sibling's side pointer), so an unchanged source proves the target was
// still live when step 3 read it. A target snapshot so validated is
// exactly what a latched reader could have seen, and side pointers make
// any such well-formed state navigable. Under CNS the target is immortal
// and step 4 is redundant; it is kept — one atomic load — so that every
// tree follows one rule. The stop level is never read optimistically:
// the final node is latched in finalMode (then the source is
// re-validated), keeping the No-Wait rule, move locks and degree-3
// locking untouched, and its side traversals run latched in DescendFrom.
func (k *Kernel[N, K]) optPass(o *Op[N], c *optCounters, key K, stopLevel int, finalMode latch.Mode, sched bool, trace any) (_ Ref[N], _ error, done bool) {
	pool := k.s.Store.Pool
	f, err := k.rootFrame()
	if err != nil {
		return Ref[N]{}, err, true
	}
	cur, ok := k.navLoad(f, c)
	if !ok {
		pool.Unpin(f)
		return Ref[N]{}, nil, false
	}
	lvl := k.sp.Level(cur.n)
	if lvl <= stopLevel {
		pool.Unpin(f)
		if lvl < stopLevel {
			return Ref[N]{}, ErrLevelGone, true
		}
		// The root is the target. It never moves and is never
		// de-allocated, so no source validation is needed — just latch it
		// and re-check the level like the latched path does.
		r, err := k.acquireRoot(o, stopLevel, finalMode)
		if err != nil {
			return Ref[N]{}, err, true
		}
		r, err = k.DescendFrom(o, r, key, stopLevel, finalMode, sched, trace)
		return r, err, true
	}

	var pid storage.PageID
	for { // cur is at lvl: optStep checks every node it hands back
		r := k.sp.Route(cur.n, key, false)
		pid = r.Pid
		switch r.Kind {
		case Side:
			k.sp.Edge(cur.n, cur.f, r, sched, trace)
		case Child:
			if trace != nil {
				k.sp.Edge(cur.n, cur.f, r, sched, trace)
			}
			lvl--
		case Restart:
			pool.Unpin(cur.f)
			return Ref[N]{}, ErrRetry, true
		default:
			// An interior node cannot be the stop; treat a Space that says
			// so as staleness and let the latched path decide.
			pool.Unpin(cur.f)
			return Ref[N]{}, nil, false
		}
		if lvl == stopLevel {
			break
		}
		next, err, done := k.optStep(cur, c, pid, lvl)
		if !done || err != nil {
			return Ref[N]{}, err, done
		}
		cur = next
	}

	// Final edge: latch the stop-level node in finalMode, then prove the
	// source still references it before trusting it.
	r, err := o.Acquire(pid, finalMode, stopLevel)
	fresh := cur.f.Latch.Validate(cur.v)
	pool.Unpin(cur.f)
	if err != nil {
		// The pointer came from a validated snapshot, but the target may
		// have been freed since; a stale source explains the failure, a
		// current one makes it a real error.
		return Ref[N]{}, err, fresh
	}
	if !fresh {
		o.Release(&r)
		return Ref[N]{}, nil, false
	}
	if k.sp.Dead(r.N) {
		o.Release(&r)
		return Ref[N]{}, ErrRetry, true
	}
	if k.sp.Level(r.N) != stopLevel {
		o.Release(&r)
		return Ref[N]{}, nil, false
	}
	r, err = k.DescendFrom(o, r, key, stopLevel, finalMode, sched, trace)
	return r, err, true
}

// optStep follows one validated edge from cur to pid (expected at
// level): pin the target, snapshot it, then re-validate the source (see
// optPass steps 2-4). cur's pin is consumed. done=false aborts the pass
// on validation failure; a non-nil error is terminal for the operation.
func (k *Kernel[N, K]) optStep(cur navRef[N], c *optCounters, pid storage.PageID, level int) (_ navRef[N], _ error, done bool) {
	pool := k.s.Store.Pool
	nf, err := pool.Fetch(pid)
	if err != nil {
		// Distinguish a stale pointer from a real I/O error by
		// re-validating the source, as the final edge does.
		fresh := cur.f.Latch.Validate(cur.v)
		pool.Unpin(cur.f)
		return navRef[N]{}, err, fresh
	}
	next, ok := k.navLoad(nf, c)
	fresh := cur.f.Latch.Validate(cur.v)
	pool.Unpin(cur.f)
	if !ok || !fresh {
		pool.Unpin(nf)
		return navRef[N]{}, nil, false
	}
	if k.sp.Dead(next.n) {
		// Strategy (b) leaves de-allocated nodes marked; a pointer read
		// before the consolidation committed can still land here. Retry
		// from the root, as the latched step does.
		pool.Unpin(nf)
		return navRef[N]{}, ErrRetry, true
	}
	if k.sp.Level(next.n) != level {
		// Defense in depth: a validated chain cannot produce a level
		// mismatch, so treat one as staleness.
		pool.Unpin(nf)
		return navRef[N]{}, nil, false
	}
	return next, nil, true
}
