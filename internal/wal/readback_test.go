package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// TestReadBelowBufferFromFiles: once ReleaseBelow drops the log's oldest
// bytes, Read finds every released record in the segment files, equal
// field for field and payload for payload to what was appended — across
// segment boundaries, at -cpu 1,2,4 beside the appenders that keep
// persisting.
func TestReadBelowBufferFromFiles(t *testing.T) {
	fw, _, err := OpenFileWAL(t.TempDir(), 4096, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	l := New()
	l.SetSink(fw)
	recs := make([]Record, 0, 2000)
	for i := 0; i < 2000; i++ {
		r := Record{Type: RecUpdate, Kind: Kind(i%5 + 1), TxnID: TxnID(i + 1), StoreID: 1, PageID: uint64(i%17 + 2),
			Payload: bytes.Repeat([]byte{byte(i)}, 10+i%300)}
		if i >= 17 {
			r.PagePrev = recs[i-17].LSN
		}
		l.Append(&r)
		recs = append(recs, r)
	}
	if err := l.ForceAll(); err != nil {
		t.Fatal(err)
	}
	l.ReleaseBelow(recs[1500].LSN)
	if _, start := l.BufferStats(); start != recs[1500].LSN {
		t.Fatalf("buffer starts at %d, want %d", start, recs[1500].LSN)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // appenders keep the files moving under the readers
		defer wg.Done()
		for i := 0; i < 200; i++ {
			l.Append(&Record{Type: RecUpdate, Kind: 1, TxnID: 1, StoreID: 1, PageID: 2, Payload: make([]byte, 40)})
			_ = l.ForceAll()
		}
	}()
	for i := 0; i < 1500; i += 7 {
		got, err := l.Read(recs[i].LSN)
		if err != nil {
			t.Fatalf("read %d below the buffer: %v", recs[i].LSN, err)
		}
		want := recs[i]
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("record %d: payload differs", want.LSN)
		}
		got.Payload, want.Payload = nil, nil
		got.chain, want.chain = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d reads back as %+v, want %+v", want.LSN, got, want)
		}
	}
	wg.Wait()
}

// TestReadBelowHorizonFails: a record below the recycle horizon, one
// inside a segment that was retired and reused, and one past the
// persisted end are errors — never stale bytes presented as the record.
func TestReadBelowHorizonFails(t *testing.T) {
	dir := t.TempDir()
	fw, _, err := OpenFileWAL(dir, 4096, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	l := New()
	l.SetSink(fw)
	lsns := fileAppendN(t, l, 6000, 'r') // past the buffer's first 64 KiB segment
	l.ReleaseBelow(l.StableLSN())
	if _, start := l.BufferStats(); start <= lsns[4000] {
		t.Fatalf("the buffer still starts at %d", start)
	}
	if _, err := l.Read(lsns[10]); err != nil {
		t.Fatalf("read before recycling: %v", err)
	}
	horizon := lsns[4000]
	if err := l.Recycle(horizon); err != nil {
		t.Fatal(err)
	}
	for _, lsn := range []LSN{lsns[10], lsns[3999]} {
		if _, err := l.Read(lsn); err == nil {
			t.Fatalf("read of %d below the horizon %d succeeded", lsn, horizon)
		}
	}
	// Reuse the retired segments: their files now hold newer records at
	// the old offsets of other LSNs.
	fileAppendN(t, l, 3000, 's')
	if fw.Stats().SegmentsRecycled == 0 {
		t.Fatal("no retired segment was reused")
	}
	for i := 0; i < 4000; i += 13 {
		if rec, err := fw.AppendFrame(nil, lsns[i]); err == nil {
			if _, _, derr := decodeShared(rec, lsns[i]); derr == nil {
				t.Fatalf("retired record %d read back from the files", lsns[i])
			}
		}
		if _, err := l.Read(lsns[i]); err == nil {
			t.Fatalf("retired record %d read back through the log", lsns[i])
		}
	}
	if _, err := fw.AppendFrame(nil, l.StableLSN()+8); err == nil {
		t.Fatal("a read past the persisted end succeeded")
	}
	// A segment file truncated or removed behind the log is an error too.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.Name() != masterName {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	fw.mu.Lock()
	fw.dropReaders(func(uint64) bool { return true })
	fw.mu.Unlock()
	if _, err := l.Read(lsns[4500]); err == nil {
		t.Fatal("a record of a removed segment read back")
	}
}

// TestReadRacesRelease: a read of a record the buffer still held when the
// read began succeeds while ReleaseBelow moves the buffer's start past it
// — from the buffer generation it loaded, or from the files.
func TestReadRacesRelease(t *testing.T) {
	fw, _, err := OpenFileWAL(t.TempDir(), 4096, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	l := New()
	l.SetSink(fw)
	var mu sync.Mutex
	var lsns []LSN
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20000; i++ {
			lsn := l.Append(&Record{Type: RecUpdate, Kind: 1, TxnID: TxnID(i + 1), StoreID: 1, PageID: 2, Payload: make([]byte, 30+i%50)})
			if err := l.ForceAll(); err != nil {
				t.Error(err)
				break
			}
			l.ReleaseBelow(l.StableLSN())
			mu.Lock()
			lsns = append(lsns, lsn)
			mu.Unlock()
		}
		close(done)
	}()
	for reads := 0; ; reads++ {
		select {
		case <-done:
			wg.Wait()
			return
		default:
		}
		mu.Lock()
		n := len(lsns)
		var lsn LSN
		if n > 0 {
			lsn = lsns[n-1-reads%min(n, 64)]
		}
		mu.Unlock()
		if lsn == NilLSN {
			continue
		}
		if rec, err := l.Read(lsn); err != nil || rec.LSN != lsn {
			t.Fatalf("read %d beside a release: %v", lsn, err)
		}
	}
}
