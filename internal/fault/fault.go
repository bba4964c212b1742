// Package fault is the fault-injection substrate for the storage, WAL,
// and transaction layers. Production code declares named failpoints and
// calls Injector.Check at each one; tests and the torture harness arm a
// subset with counted, probabilistic, or seeded-random triggers. The
// injector is compiled in unconditionally but costs nothing when
// disarmed: Check on a nil or empty injector is two predictable
// branches and an atomic load, with no allocation and no lock.
//
// Faults come in three kinds. A Transient fault models a retryable I/O
// error (the next attempt may succeed). A Permanent fault models a dead
// device; callers are expected to latch it sticky. A Torn fault models
// a partially-persisted multi-part write: the device keeps an old or
// prefix image and the caller must behave as if only that much reached
// stable storage.
//
// Independently of its kind, any armed point may also carry Crash:
// firing it trips a process-wide crash latch that freezes simulated
// stable state (all further stable writes and log syncs fail without
// side effects), which is how the torture harness stops the world at an
// arbitrary instant and then runs recovery against exactly the state a
// real crash would have left behind.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies what an injected fault does to the operation it hits.
type Kind uint8

const (
	// None is used for crash-only trigger points: Check returns nil
	// (the operation itself does not fail) but the crash latch trips.
	None Kind = iota
	// Transient failures may succeed if retried.
	Transient
	// Permanent failures model a dead device and never go away.
	Permanent
	// Torn failures persist only part of the write (for a page, the
	// stale prior image; for a log sync, a prefix ending at a record
	// boundary).
	Torn
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	case Torn:
		return "torn"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ErrInjected is the sentinel wrapped by every injected fault error;
// errors.Is(err, fault.ErrInjected) distinguishes simulated faults from
// genuine bugs anywhere up the stack.
var ErrInjected = errors.New("injected fault")

// Error is the concrete error returned by Check when a fault fires.
type Error struct {
	Point string  // failpoint name
	Kind  Kind    // what flavor of failure
	Hit   int64   // which hit of the point fired (1-based)
	Frac  float64 // seeded uniform [0,1) draw, for partial effects (e.g. where a torn sync tears)
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s fault at %q (hit %d)", e.Kind, e.Point, e.Hit)
}

func (e *Error) Unwrap() error { return ErrInjected }

// AsError extracts the injected *Error from an error chain, or nil.
func AsError(err error) *Error {
	var fe *Error
	if errors.As(err, &fe) {
		return fe
	}
	return nil
}

// IsTransient reports whether err carries an injected transient fault.
func IsTransient(err error) bool {
	fe := AsError(err)
	return fe != nil && fe.Kind == Transient
}

// IsPermanent reports whether err carries an injected permanent fault.
func IsPermanent(err error) bool {
	fe := AsError(err)
	return fe != nil && fe.Kind == Permanent
}

// IsTorn reports whether err carries an injected torn-write fault.
func IsTorn(err error) bool {
	fe := AsError(err)
	return fe != nil && fe.Kind == Torn
}

// Spec describes when an armed failpoint fires and what it does.
// The zero Spec fires once, deterministically, on the first hit, as a
// crash-less None fault (i.e. a no-op) — arm with at least Kind or
// Crash set to make it do something.
type Spec struct {
	Kind Kind
	// After fires the point starting at the After-th hit (1-based).
	// Zero means the first hit.
	After int64
	// Count bounds how many times the point fires once eligible.
	// Zero means once; negative means every eligible hit.
	Count int64
	// Prob, if nonzero, fires each eligible hit with this probability
	// using the injector's seeded RNG instead of deterministically.
	Prob float64
	// Crash additionally trips the injector's crash latch when the
	// point fires.
	Crash bool
	// Delay, if nonzero, stalls the caller for this duration when the
	// point fires, after the trip is recorded and outside the injector's
	// lock (so concurrent probes of other points never queue behind the
	// stall). A Kind None spec with Delay is pure latency injection: the
	// operation succeeds, just late — how tests freeze a WAL sync in
	// flight to observe the flush pipeline's overlap deterministically.
	Delay time.Duration
}

// maxTrips bounds the firing history: a permanent fault probed in a retry
// loop fires without end, and the post-mortem wants the first firings —
// the ones that started the trouble — not the millionth repeat.
const maxTrips = 1024

// Trip records one firing, for post-mortem reporting.
type Trip struct {
	Point string
	Kind  Kind
	Hit   int64
}

func (t Trip) String() string {
	return fmt.Sprintf("%s@%q hit=%d", t.Kind, t.Point, t.Hit)
}

type point struct {
	spec  Spec
	hits  int64
	fired int64
}

// Injector holds a set of armed failpoints. The zero value and the nil
// pointer are both valid, permanently-disarmed injectors.
type Injector struct {
	armed   atomic.Int32 // number of armed points; fast-path gate
	crashed atomic.Bool

	mu     sync.Mutex
	rng    *rand.Rand
	points map[string]*point
	trips  []Trip
}

// New returns an injector whose probabilistic and partial-effect draws
// come from a deterministic seeded source, so every failure schedule is
// reproducible from its seed.
func New(seed int64) *Injector {
	return &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		points: make(map[string]*point),
	}
}

// Arm installs (or replaces) the spec for a named failpoint.
func (i *Injector) Arm(name string, s Spec) {
	if s.After <= 0 {
		s.After = 1
	}
	if s.Count == 0 {
		s.Count = 1
	}
	i.mu.Lock()
	if i.points == nil {
		i.points = make(map[string]*point)
	}
	if _, ok := i.points[name]; !ok {
		i.armed.Add(1)
	}
	i.points[name] = &point{spec: s}
	i.mu.Unlock()
}

// Disarm removes a failpoint; pending hits no longer fire.
func (i *Injector) Disarm(name string) {
	i.mu.Lock()
	if _, ok := i.points[name]; ok {
		delete(i.points, name)
		i.armed.Add(-1)
	}
	i.mu.Unlock()
}

// Check is the failpoint probe called from production code. It returns
// nil unless name is armed and its trigger condition is met on this
// hit, in which case it returns an *Error of the armed Kind (or nil
// for a crash-only point) after recording the trip and, if requested,
// tripping the crash latch.
//
// The fast path — nil receiver or no armed points — takes no lock and
// allocates nothing.
func (i *Injector) Check(name string) error {
	if i == nil || i.armed.Load() == 0 {
		return nil
	}
	return i.check(name)
}

func (i *Injector) check(name string) error {
	i.mu.Lock()
	p := i.points[name]
	if p == nil {
		i.mu.Unlock()
		return nil
	}
	p.hits++
	if p.hits < p.spec.After {
		i.mu.Unlock()
		return nil
	}
	if p.spec.Count >= 0 && p.fired >= p.spec.Count {
		i.mu.Unlock()
		return nil
	}
	if p.spec.Prob > 0 && i.rng.Float64() >= p.spec.Prob {
		i.mu.Unlock()
		return nil
	}
	p.fired++
	frac := i.rng.Float64()
	tr := Trip{Point: name, Kind: p.spec.Kind, Hit: p.hits}
	if len(i.trips) < maxTrips {
		i.trips = append(i.trips, tr)
	}
	if p.spec.Crash {
		i.crashed.Store(true)
	}
	kind := p.spec.Kind
	delay := p.spec.Delay
	i.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if kind == None {
		return nil
	}
	return &Error{Point: name, Kind: kind, Hit: tr.Hit, Frac: frac}
}

// Crashed reports whether a crash-flagged failpoint has fired. The
// stable layers consult this to freeze simulated durable state.
func (i *Injector) Crashed() bool {
	return i != nil && i.crashed.Load()
}

// TripCrash trips the crash latch directly (a "clean" crash with no
// associated I/O fault), freezing stable state from this instant.
func (i *Injector) TripCrash() {
	i.crashed.Store(true)
}

// Trips returns a copy of the first maxTrips firings, in order.
func (i *Injector) Trips() []Trip {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	out := append([]Trip(nil), i.trips...)
	i.mu.Unlock()
	return out
}

// Hits returns how many times the named point has been probed,
// whether or not it fired.
func (i *Injector) Hits(name string) int64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if p := i.points[name]; p != nil {
		return p.hits
	}
	return 0
}
