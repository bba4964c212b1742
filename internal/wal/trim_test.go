package wal

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestReleaseBelowKeepsWhatIsAbove: releasing drops whole segments below
// min(floor, stable point), moves the first readable LSN to the floor,
// and leaves every record at or above it readable, in memory and in the
// images; a record below it is read back from the segment files.
func TestReleaseBelowKeepsWhatIsAbove(t *testing.T) {
	l := New()
	var lsns []LSN
	payload := make([]byte, 1000)
	for i := 0; i < 400; i++ { // ~6 segments
		lsns = append(lsns, l.Append(&Record{Type: RecUpdate, TxnID: 7, Payload: payload}))
	}
	floor := lsns[300]
	l.ReleaseBelow(floor)
	if _, start := l.BufferStats(); start != 1 {
		t.Fatalf("released unforced bytes: buffer starts at %d", start)
	}
	if err := l.Force(lsns[350]); err != nil {
		t.Fatal(err)
	}
	held, _ := l.BufferStats()
	l.ReleaseBelow(floor)
	after, start := l.BufferStats()
	if start != floor || after >= held {
		t.Fatalf("buffer starts at %d holding %d bytes (was %d), want start %d and fewer bytes", start, after, held, floor)
	}
	if rec, err := l.Read(lsns[10]); err != nil || rec.LSN != lsns[10] {
		t.Fatalf("read below the released range: %v", err)
	}
	for _, lsn := range lsns[300:] {
		if rec, err := l.Read(lsn); err != nil || rec.LSN != lsn {
			t.Fatalf("read at %d after release: %v", lsn, err)
		}
	}
	img := l.FullImage()
	if img.StartLSN() != floor || img.EndLSN() != l.EndLSN() {
		t.Fatalf("full image covers [%d,%d), want [%d,%d)", img.StartLSN(), img.EndLSN(), floor, l.EndLSN())
	}
	n := 0
	img.ScanShared(NilLSN, func(*Record) bool { n++; return true })
	if n != 100 {
		t.Fatalf("full image scans %d records, want 100", n)
	}
	// A log continued from the trimmed image keeps its LSNs and its size.
	l2 := NewFromImage(img)
	if rec, err := l2.Read(lsns[399]); err != nil || rec.LSN != lsns[399] {
		t.Fatalf("continued log read: %v", err)
	}
	if held2, start2 := l2.BufferStats(); start2 != floor || held2 > after+segSize {
		t.Fatalf("continued log buffers %d bytes from %d, want about %d from %d", held2, start2, after, floor)
	}

}

// TestReleaseBelowConcurrent races the directory trim against appends
// (which grow the directory), forces, and reads of records above the
// floor; run under -race. Each appender publishes the oldest LSN it may
// still read, as a transaction's begin record does.
func TestReleaseBelowConcurrent(t *testing.T) {
	l := New()
	const appenders, rounds, keep = 4, 4000, 16
	var floors [appenders]atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for a := 0; a < appenders; a++ {
		first := l.Append(&Record{Type: RecBegin, TxnID: TxnID(a + 1)})
		floors[a].Store(uint64(first))
		wg.Add(1)
		go func(a int, last LSN) {
			defer wg.Done()
			payload := make([]byte, 200+a*37)
			recent := []LSN{last}
			for i := 0; i < rounds; i++ {
				lsn := l.Append(&Record{Type: RecUpdate, TxnID: TxnID(a + 1), PrevLSN: recent[len(recent)-1], Payload: payload})
				recent = append(recent, lsn)
				if len(recent) > keep {
					recent = recent[1:]
					floors[a].Store(uint64(recent[0]))
				}
				if i%64 == 0 {
					if err := l.Force(lsn); err != nil {
						t.Error(err)
						return
					}
				}
				if i%512 == 0 {
					// On one CPU nothing else blocks the appenders: yield,
					// or the trim may not run before they are done.
					runtime.Gosched()
				}
				for _, r := range recent {
					rec, err := l.Read(r)
					if err != nil || rec.LSN != r || rec.TxnID != TxnID(a+1) {
						t.Errorf("appender %d read at %d: %+v, %v", a, r, rec.LSN, err)
						return
					}
				}
			}
		}(a, first)
	}
	trimmed := make(chan struct{})
	go func() {
		defer close(trimmed)
		for {
			select {
			case <-stop:
				return
			default:
			}
			floor := ^uint64(0)
			for a := range floors {
				floor = min(floor, floors[a].Load())
			}
			l.ReleaseBelow(LSN(floor))
			l.FullImage().ScanShared(NilLSN, func(*Record) bool { return true })
		}
	}()
	wg.Wait()
	close(stop)
	<-trimmed
	if _, start := l.BufferStats(); start <= 1 {
		t.Fatal("the trim never released anything")
	}
}
