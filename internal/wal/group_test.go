package wal

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestAppendGroupRoundTrip(t *testing.T) {
	l := New()
	pre := l.Append(&Record{Type: RecBegin, TxnID: 1})
	recs := []*Record{
		{Type: RecUpdate, TxnID: 1, Kind: 7, StoreID: 3, PageID: 9, PrevLSN: pre, Payload: []byte("alpha")},
		{Type: RecUpdate, TxnID: 1, Kind: 8, StoreID: 3, PageID: 9, Payload: []byte("")},
		{Type: RecUpdate, TxnID: 1, Kind: 9, StoreID: 3, PageID: 9, Payload: bytes.Repeat([]byte("x"), 300)},
	}
	last := l.AppendGroup(recs)
	if last != recs[2].LSN {
		t.Fatalf("AppendGroup returned %d, last record got %d", last, recs[2].LSN)
	}
	// Records are contiguous, PrevLSN-chained within the group, and each
	// reads back intact.
	for i, r := range recs {
		got, err := l.Read(r.LSN)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got.Kind != r.Kind || !bytes.Equal(got.Payload, r.Payload) {
			t.Fatalf("record %d mismatch: %+v", i, got)
		}
		if i > 0 && got.PrevLSN != recs[i-1].LSN {
			t.Fatalf("record %d PrevLSN = %d, want %d", i, got.PrevLSN, recs[i-1].LSN)
		}
	}
	if recs[0].PrevLSN != pre {
		t.Fatalf("first record PrevLSN = %d, want caller-set %d", recs[0].PrevLSN, pre)
	}
	// A following append lands after the group with no gap or overlap.
	next := l.Append(&Record{Type: RecCommit, TxnID: 1})
	if next <= last {
		t.Fatalf("append after group got %d <= %d", next, last)
	}
	if l.AppendGroup(nil) != NilLSN {
		t.Fatal("empty group should return NilLSN")
	}
}

// TestAppendGroupSegmentStraddle forces groups across segment boundaries
// (segments are 64 KiB of reserved space, a straddling record is encoded
// aside and copied in) and checks every record scans back, with the
// transaction's PrevLSN chain unbroken across and within the groups.
func TestAppendGroupSegmentStraddle(t *testing.T) {
	l := New()
	big := bytes.Repeat([]byte("y"), 7000)
	straddles := 0
	var last LSN
	for l.EndLSN() < 3*(1<<16) {
		recs := make([]*Record, 4)
		for i := range recs {
			recs[i] = &Record{Type: RecUpdate, TxnID: 5, Kind: Kind(i), PageID: uint64(i), Payload: big}
		}
		recs[0].PrevLSN = last
		last = l.AppendGroup(recs)
		prev := recs[0].PrevLSN
		for i, r := range recs {
			got, err := l.Read(r.LSN)
			if err != nil {
				t.Fatalf("read group rec %d at %d: %v", i, r.LSN, err)
			}
			if !bytes.Equal(got.Payload, big) {
				t.Fatalf("payload mismatch at %d", r.LSN)
			}
			if got.PrevLSN != prev {
				t.Fatalf("group rec %d at %d: PrevLSN %d, want %d", i, r.LSN, got.PrevLSN, prev)
			}
			if end := uint64(r.LSN) + uint64(got.Size()); uint64(r.LSN)>>segShift != (end-1)>>segShift {
				straddles++
			}
			prev = r.LSN
		}
	}
	if straddles == 0 {
		t.Fatal("no record straddled a segment boundary")
	}
}

// TestAppendGroupConcurrent interleaves group and single appends from
// many goroutines; every record must read back with its own identity
// (the group reservation must never overlap another writer's space).
func TestAppendGroupConcurrent(t *testing.T) {
	l := New()
	const workers = 8
	const rounds = 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if r%3 == 0 {
					lsn := l.Append(&Record{Type: RecUpdate, TxnID: TxnID(w), PageID: uint64(r), Payload: []byte(fmt.Sprintf("s-%d-%d", w, r))})
					got, err := l.Read(lsn)
					if err != nil || got.PageID != uint64(r) {
						errs <- fmt.Errorf("worker %d single %d: %v %+v", w, r, err, got)
						return
					}
					continue
				}
				recs := make([]*Record, 1+r%5)
				for i := range recs {
					recs[i] = &Record{Type: RecUpdate, TxnID: TxnID(w), Kind: Kind(i), PageID: uint64(r), Payload: []byte(fmt.Sprintf("g-%d-%d-%d", w, r, i))}
				}
				l.AppendGroup(recs)
				for i, rec := range recs {
					got, err := l.Read(rec.LSN)
					if err != nil || got.TxnID != TxnID(w) || got.Kind != Kind(i) ||
						!bytes.Equal(got.Payload, []byte(fmt.Sprintf("g-%d-%d-%d", w, r, i))) {
						errs <- fmt.Errorf("worker %d group %d rec %d: %v %+v", w, r, i, err, got)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
