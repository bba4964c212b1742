package latch

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSharedReaders(t *testing.T) {
	var l Latch
	const n = 8
	var inside atomic.Int32
	var maxInside atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.AcquireS()
			v := inside.Add(1)
			for {
				m := maxInside.Load()
				if v <= m || maxInside.CompareAndSwap(m, v) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inside.Add(-1)
			l.ReleaseS()
		}()
	}
	wg.Wait()
	if maxInside.Load() < 2 {
		t.Fatalf("S latches did not share: max concurrency %d", maxInside.Load())
	}
}

func TestExclusiveExcludes(t *testing.T) {
	var l Latch
	var counter int // intentionally unsynchronized; latch must protect it
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				l.AcquireX()
				counter++
				l.ReleaseX()
			}
		}()
	}
	wg.Wait()
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000", counter)
	}
}

func TestUpdateModeAllowsReaders(t *testing.T) {
	var l Latch
	l.AcquireU()
	done := make(chan struct{})
	go func() {
		l.AcquireS() // must not block on a U holder
		l.ReleaseS()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("S latch blocked by U holder")
	}
	l.ReleaseU()
}

func TestUpdateModeExcludesUpdaters(t *testing.T) {
	var l Latch
	l.AcquireU()
	if l.TryAcquireU() {
		t.Fatal("second U granted")
	}
	if l.TryAcquireX() {
		t.Fatal("X granted while U held")
	}
	l.ReleaseU()
	if !l.TryAcquireU() {
		t.Fatal("U not granted after release")
	}
	l.ReleaseU()
}

func TestPromotionWaitsForReaders(t *testing.T) {
	var l Latch
	l.AcquireS()
	var promoted atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.AcquireU()
		l.Promote()
		promoted.Store(true)
		l.ReleaseX()
	}()
	time.Sleep(10 * time.Millisecond)
	if promoted.Load() {
		t.Fatal("promotion completed while a reader held S")
	}
	l.ReleaseS()
	wg.Wait()
	if !promoted.Load() {
		t.Fatal("promotion never completed")
	}
}

func TestPromotionBlocksNewReaders(t *testing.T) {
	// While the promoter is parked and another reader still holds S, a
	// late reader may barge (its admission cannot delay the promoter,
	// whose drain condition is already false — see TryAcquireS). The
	// promotion must still complete once the readers leave: no lost
	// wakeup, no starvation.
	var l Latch
	l.AcquireS() // reader in place
	var uStarted sync.WaitGroup
	uStarted.Add(1)
	var promoted atomic.Bool
	promoterDone := make(chan struct{})
	go func() {
		l.AcquireU()
		uStarted.Done()
		l.Promote()
		promoted.Store(true)
		l.ReleaseX()
		close(promoterDone)
	}()
	uStarted.Wait()
	time.Sleep(5 * time.Millisecond) // let Promote park in xWait
	if !l.TryAcquireS() {
		t.Fatal("TryAcquireS failed while the latch was only S-held (promoter convoy)")
	}
	if promoted.Load() {
		t.Fatal("promotion completed while readers held S")
	}
	l.ReleaseS() // barged reader
	l.ReleaseS() // original reader; promoter must now win
	<-promoterDone
	if !promoted.Load() {
		t.Fatal("promotion never completed")
	}
	// With the latch free again a plain S acquire must succeed.
	l.AcquireS()
	l.ReleaseS()
}

func TestDemote(t *testing.T) {
	var l Latch
	l.AcquireX()
	l.Demote()
	if !l.TryAcquireS() {
		t.Fatal("reader blocked after demote to U")
	}
	l.ReleaseS()
	if l.TryAcquireX() {
		t.Fatal("X granted while demoted U held")
	}
	l.ReleaseU()
}

func TestTryAcquire(t *testing.T) {
	var l Latch
	if !l.TryAcquireX() {
		t.Fatal("TryAcquireX on free latch failed")
	}
	if l.TryAcquireS() || l.TryAcquireU() || l.TryAcquireX() {
		t.Fatal("acquisition granted while X held")
	}
	l.ReleaseX()
	if !l.TryAcquireS() {
		t.Fatal("TryAcquireS failed on free latch")
	}
	if !l.TryAcquireU() {
		t.Fatal("U must share with S")
	}
	l.ReleaseS()
	l.ReleaseU()
}

func TestWriterNotStarved(t *testing.T) {
	var l Latch
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Continuous stream of readers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.AcquireS()
				l.ReleaseS()
			}
		}()
	}
	acquired := make(chan struct{})
	go func() {
		l.AcquireX()
		l.ReleaseX()
		close(acquired)
	}()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("writer starved by readers")
	}
	close(stop)
	wg.Wait()
}

func TestReleasePanics(t *testing.T) {
	for name, fn := range map[string]func(*Latch){
		"ReleaseS": func(l *Latch) { l.ReleaseS() },
		"ReleaseU": func(l *Latch) { l.ReleaseU() },
		"ReleaseX": func(l *Latch) { l.ReleaseX() },
		"Promote":  func(l *Latch) { l.Promote() },
		"Demote":   func(l *Latch) { l.Demote() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on unheld latch did not panic", name)
				}
			}()
			var l Latch
			fn(&l)
		}()
	}
}

func TestTrackerOrderViolation(t *testing.T) {
	tr := &Tracker{}
	var a, b Latch
	a.AcquireS()
	b.AcquireS()
	tr.Acquired(&b, 10, S)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("descending-rank acquisition did not panic")
			}
		}()
		tr.Acquired(&a, 5, S)
	}()
	tr.Released(&b)
	a.ReleaseS()
	b.ReleaseS()
}

func TestTrackerPromotionRule(t *testing.T) {
	tr := &Tracker{}
	var low, high Latch
	low.AcquireU()
	high.AcquireU()
	tr.Acquired(&low, 1, U)
	tr.Acquired(&high, 2, U)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("promotion under a higher-ranked hold did not panic")
			}
		}()
		tr.Promoted(&low)
	}()
	tr.Released(&high)
	high.ReleaseU()
	// With nothing held above, promotion is permitted; lower-ranked
	// holds do not matter.
	var lower Latch
	lower.AcquireX()
	tr2 := &Tracker{}
	tr2.Acquired(&lower, 0, X)
	tr2.Acquired(&low, 1, U)
	tr2.Promoted(&low) // must not panic
	if m, ok := tr2.Holds(&low); !ok || m != X {
		t.Fatalf("after the promotion the tracker reads %v, %v", m, ok)
	}
	tr2.Released(&low)
	tr2.Released(&lower)
	lower.ReleaseX()
	tr.Released(&low)
	low.ReleaseU()
}

func TestTrackerLeakDetection(t *testing.T) {
	tr := &Tracker{}
	var l Latch
	l.AcquireS()
	tr.Acquired(&l, 1, S)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AssertNoneHeld with a leak did not panic")
			}
		}()
		tr.AssertNoneHeld()
	}()
	tr.Released(&l)
	tr.AssertNoneHeld() // clean now
	l.ReleaseS()
}

func TestHoldTimerPercentile(t *testing.T) {
	var h HoldTimer
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if p := h.Percentile(50); p < 40*time.Microsecond || p > 60*time.Microsecond {
		t.Fatalf("p50 = %v", p)
	}
	if p := h.Percentile(100); p != 100*time.Microsecond {
		t.Fatalf("p100 = %v", p)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	var empty HoldTimer
	if empty.Percentile(99) != 0 {
		t.Fatal("empty timer percentile must be 0")
	}
}
