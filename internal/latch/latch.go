// Package latch implements the short-term node latches of Lomet &
// Salzberg §4.1: share (S), update (U) and exclusive (X) modes, with
// U-to-X promotion and deadlock avoidance by resource ordering.
//
// Latches are semaphores whose usage pattern guarantees freedom from
// deadlock; they never involve the database lock manager (package lock)
// and never conflict with database locks. Deadlock freedom comes from two
// holder-side rules the paper states:
//
//  1. Resources are latched in a fixed order: parents before children,
//     containing nodes before the contained nodes their side pointers
//     reference, and space-management information last.
//  2. S latches are never promoted. U latches may be promoted to X, but
//     only while the holder holds no latch on a higher-ordered resource.
//
// The package enforces rule 2 mechanically (promotion is only available
// through the U handle) and offers an optional per-goroutine order checker
// (see Tracker) that test builds use to assert rule 1.
//
// # Version counter and optimistic reads
//
// Every latch carries a monotonically increasing version counter with
// seqlock parity semantics: the counter is bumped once when exclusive
// access is granted (AcquireX, a successful TryAcquireX, or a U->X
// Promote), making it odd, and once when exclusive access ends (ReleaseX
// or an X->U Demote), making it even again. S and U transitions do not
// touch it — only transitions that change whether the protected data may
// be mutated do. The counter therefore encodes two facts at once:
//
//   - parity: an odd value means a writer holds X right now;
//   - history: any change between two reads means a writer held X in
//     between, so data derived from the first read may be stale.
//
// OptimisticRead returns the current version and whether it is even
// (quiescent); Validate re-reads the counter and reports whether it still
// equals an earlier observation. A reader that captures an immutable
// snapshot of the protected data together with an even version v can
// later prove the snapshot current by Validate(v): the counter is
// monotonic, so an unchanged value means no exclusive grant — and hence
// no mutation — happened in between. Version reads the counter for
// holders of an S or U latch, under which it is stable and even (a
// promotion cannot complete while readers are present, and an X acquire
// cannot complete while any hold exists).
package latch

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Mode is a latch mode.
type Mode int

const (
	// S is share mode: compatible with S and U.
	S Mode = iota
	// U is update mode: compatible with S, incompatible with U and X.
	// Only a U holder may promote to X.
	U
	// X is exclusive mode: incompatible with everything.
	X
)

// String renders the mode for diagnostics.
func (m Mode) String() string {
	switch m {
	case S:
		return "S"
	case U:
		return "U"
	case X:
		return "X"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Latch is an S/U/X latch. The zero value is an unheld latch.
//
// Fairness: a pending X (or promoting U) blocks new S acquisitions, so
// writers cannot starve. A pending U does not block readers, matching the
// "U allows sharing by readers" semantics of Gray et al. cited in §4.1.1.
type Latch struct {
	mu      sync.Mutex
	cond    *sync.Cond
	readers int  // granted S holders
	uHeld   bool // granted U holder exists
	xHeld   bool // granted X holder exists
	// xWait counts goroutines waiting for X or promoting U->X; while
	// non-zero, new S requests queue behind them.
	xWait int

	// version is the seqlock-style counter documented in the package
	// comment: bumped to odd when X is granted, back to even when X ends.
	// All bumps happen while holding mu, but it is read without mu by
	// optimistic readers, hence atomic.
	version atomic.Uint64
}

// sAcquireSpins bounds the AcquireS fast path: a few try-then-yield
// rounds before falling into the blocking (writer-fair) slow path. Spins
// may barge past a pending X while other readers still hold the latch
// (see TryAcquireS); the bound keeps that from starving the writer.
const sAcquireSpins = 3

func (l *Latch) init() {
	if l.cond == nil {
		l.cond = sync.NewCond(&l.mu)
	}
}

// AcquireS takes the latch in share mode. A bounded try-then-yield fast
// path lets short S holds ride out a transient X (or a pending promoter
// that other readers are already holding out) without the full queue
// dance; after sAcquireSpins rounds it blocks in the writer-fair slow
// path, so a pending X still cannot be starved.
func (l *Latch) AcquireS() {
	for i := 0; i < sAcquireSpins; i++ {
		if l.TryAcquireS() {
			return
		}
		runtime.Gosched()
	}
	l.mu.Lock()
	l.init()
	for l.xHeld || l.xWait > 0 {
		l.cond.Wait()
	}
	l.readers++
	l.mu.Unlock()
}

// TryAcquireS takes the latch in share mode if that is possible without
// waiting, and reports whether it did. A pending X (xWait > 0) fails the
// attempt only when it could actually be granted next (no readers
// present): while other readers still hold the latch the writer's drain
// condition is false anyway, so admitting one more S hold does not delay
// the grant it is queued behind — but refusing it would turn one pending
// promoter into a stampede of failed try-latches. Once the last reader
// leaves, pending writers again win over new try-acquires.
func (l *Latch) TryAcquireS() bool {
	l.mu.Lock()
	l.init()
	ok := !l.xHeld && (l.xWait == 0 || l.readers > 0)
	if ok {
		l.readers++
	}
	l.mu.Unlock()
	return ok
}

// ReleaseS releases a share-mode hold.
func (l *Latch) ReleaseS() {
	l.mu.Lock()
	l.init()
	if l.readers <= 0 {
		l.mu.Unlock()
		panic("latch: ReleaseS with no S holders")
	}
	l.readers--
	if l.readers == 0 {
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

// AcquireU takes the latch in update mode. At most one goroutine holds U;
// concurrent S holders are permitted.
func (l *Latch) AcquireU() {
	l.mu.Lock()
	l.init()
	for l.xHeld || l.uHeld || l.xWait > 0 {
		l.cond.Wait()
	}
	l.uHeld = true
	l.mu.Unlock()
}

// TryAcquireU takes the latch in update mode without waiting, and reports
// whether it did.
func (l *Latch) TryAcquireU() bool {
	l.mu.Lock()
	l.init()
	ok := !l.xHeld && !l.uHeld && l.xWait == 0
	if ok {
		l.uHeld = true
	}
	l.mu.Unlock()
	return ok
}

// ReleaseU releases an update-mode hold.
func (l *Latch) ReleaseU() {
	l.mu.Lock()
	l.init()
	if !l.uHeld {
		l.mu.Unlock()
		panic("latch: ReleaseU with no U holder")
	}
	l.uHeld = false
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Promote converts the caller's U hold into an X hold, waiting for current
// readers to drain. Per §4.1.1 the caller must hold no latch on any
// higher-ordered resource when promoting; Tracker-enabled builds assert
// this. Promotion cannot deadlock against another promoter because only
// one U holder exists at a time.
func (l *Latch) Promote() {
	l.mu.Lock()
	l.init()
	if !l.uHeld {
		l.mu.Unlock()
		panic("latch: Promote without U hold")
	}
	l.xWait++
	for l.readers > 0 {
		l.cond.Wait()
	}
	l.xWait--
	l.uHeld = false
	l.xHeld = true
	l.version.Add(1) // even -> odd: exclusive access granted
	l.mu.Unlock()
}

// Demote converts the caller's X hold back into a U hold, readmitting
// readers without releasing the latch entirely.
func (l *Latch) Demote() {
	l.mu.Lock()
	l.init()
	if !l.xHeld {
		l.mu.Unlock()
		panic("latch: Demote without X hold")
	}
	l.xHeld = false
	l.uHeld = true
	l.version.Add(1) // odd -> even: exclusive access over
	l.cond.Broadcast()
	l.mu.Unlock()
}

// AcquireX takes the latch in exclusive mode.
func (l *Latch) AcquireX() {
	l.mu.Lock()
	l.init()
	l.xWait++
	for l.xHeld || l.uHeld || l.readers > 0 {
		l.cond.Wait()
	}
	l.xWait--
	l.xHeld = true
	l.version.Add(1) // even -> odd: exclusive access granted
	l.mu.Unlock()
}

// TryAcquireX takes the latch in exclusive mode without waiting, and
// reports whether it did.
func (l *Latch) TryAcquireX() bool {
	l.mu.Lock()
	l.init()
	ok := !l.xHeld && !l.uHeld && l.readers == 0
	if ok {
		l.xHeld = true
		l.version.Add(1) // even -> odd: exclusive access granted
	}
	l.mu.Unlock()
	return ok
}

// ReleaseX releases an exclusive-mode hold.
func (l *Latch) ReleaseX() {
	l.mu.Lock()
	l.init()
	if !l.xHeld {
		l.mu.Unlock()
		panic("latch: ReleaseX with no X holder")
	}
	l.xHeld = false
	l.version.Add(1) // odd -> even: exclusive access over
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Acquire takes the latch in the given mode.
func (l *Latch) Acquire(m Mode) {
	switch m {
	case S:
		l.AcquireS()
	case U:
		l.AcquireU()
	case X:
		l.AcquireX()
	default:
		panic("latch: unknown mode")
	}
}

// Release releases a hold of the given mode.
func (l *Latch) Release(m Mode) {
	switch m {
	case S:
		l.ReleaseS()
	case U:
		l.ReleaseU()
	case X:
		l.ReleaseX()
	default:
		panic("latch: unknown mode")
	}
}

// OptimisticRead returns the latch's current version and whether it is
// even, i.e. no exclusive holder exists at this instant. A reader that
// goes on to examine data protected by the latch must hold an immutable
// snapshot of it (published by a past holder) and afterwards confirm the
// snapshot with Validate; OptimisticRead itself takes no mutex and
// establishes no exclusion.
func (l *Latch) OptimisticRead() (version uint64, ok bool) {
	v := l.version.Load()
	return v, v&1 == 0
}

// Validate reports whether the latch's version still equals an earlier
// OptimisticRead (or Version) observation. Because the counter is
// monotonic and every exclusive grant bumps it, true means no writer held
// X between the two reads — anything derived from state current at the
// first read is still current.
func (l *Latch) Validate(version uint64) bool {
	return l.version.Load() == version
}

// Version returns the current version counter. Under an S or U hold the
// value is stable and even: no X grant can complete while the hold
// exists, so it identifies the protected data's current state — the
// natural tag for a snapshot taken under that hold.
func (l *Latch) Version() uint64 {
	return l.version.Load()
}
