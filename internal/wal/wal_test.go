package wal

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fsys"
	"testing/quick"
)

func TestAppendReadRoundTrip(t *testing.T) {
	l := New()
	recs := []Record{
		{Type: RecBegin, TxnID: 1},
		{Type: RecUpdate, TxnID: 1, Kind: 7, StoreID: 3, PageID: 9, PrevLSN: 1, Payload: []byte("hello")},
		{Type: RecCLR, TxnID: 1, Kind: 8, UndoNext: 1, Payload: []byte{}},
		{Type: RecCommit, TxnID: 1, Flags: FlagSystem},
		{Type: RecEnd, TxnID: 1},
	}
	var lsns []LSN
	for i := range recs {
		lsns = append(lsns, l.Append(&recs[i]))
	}
	for i, lsn := range lsns {
		got, err := l.Read(lsn)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got.Type != recs[i].Type || got.TxnID != recs[i].TxnID || got.Kind != recs[i].Kind ||
			got.StoreID != recs[i].StoreID || got.PageID != recs[i].PageID ||
			got.PrevLSN != recs[i].PrevLSN || got.UndoNext != recs[i].UndoNext ||
			got.Flags != recs[i].Flags || !bytes.Equal(got.Payload, recs[i].Payload) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got, recs[i])
		}
		if got.LSN != lsn {
			t.Fatalf("record %d LSN %d != %d", i, got.LSN, lsn)
		}
	}
}

func TestPayloadRoundTripProperty(t *testing.T) {
	f := func(payload []byte, txn uint64, kind uint16, page uint64) bool {
		l := New()
		lsn := l.Append(&Record{Type: RecUpdate, TxnID: TxnID(txn), Kind: Kind(kind), PageID: page, Payload: payload})
		got, err := l.Read(lsn)
		if err != nil {
			return false
		}
		if len(payload) == 0 {
			return len(got.Payload) == 0
		}
		return bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFrameRoundTrip: seeded records with every optional field present and
// absent (a page's previous record included), the largest ids each field
// holds and payloads of 0 B to 70 KiB, appended alone and in groups. Each reads back equal field for field, its
// Size is what its append advanced the tail by, and the decoded record's
// Size is the length of its frame.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	pick := func(vals ...uint64) uint64 { return vals[rng.Intn(len(vals))] }
	l := New()
	for i := 0; i < 400; i++ {
		recs := make([]*Record, 1+rng.Intn(3))
		for j := range recs {
			r := &Record{
				Type:     RecType(rng.Intn(int(RecDummyCLR) + 1)),
				Kind:     Kind(pick(0, 15, math.MaxUint16)),
				TxnID:    TxnID(pick(0, 1, 300, math.MaxUint64, rng.Uint64())),
				PrevLSN:  LSN(pick(0, 1, math.MaxUint64, rng.Uint64())),
				UndoNext: LSN(pick(0, 1, math.MaxUint64, rng.Uint64())),
				StoreID:  uint32(pick(0, 1, math.MaxUint32)),
				PageID:   pick(0, 2, math.MaxUint64, rng.Uint64()),
				Payload:  make([]byte, pick(0, 1, 100, 70<<10, uint64(rng.Intn(70<<10)))),
			}
			if rng.Intn(2) == 0 {
				r.Flags = FlagSystem
			}
			if end := l.EndLSN(); r.PageID != 0 && end > 1 && rng.Intn(2) == 0 {
				r.PagePrev = LSN(1 + rng.Int63n(int64(end-1)))
			}
			rng.Read(r.Payload)
			recs[j] = r
		}
		before := l.EndLSN()
		if len(recs) == 1 && rng.Intn(2) == 0 {
			recs[0].LSN = before // the size depends on the distance back to PagePrev
			size := recs[0].Size()
			l.Append(recs[0])
			if adv := l.EndLSN() - before; adv != LSN(size) {
				t.Fatalf("record of Size %d advanced the tail by %d", size, adv)
			}
		} else {
			l.AppendGroup(recs)
		}
		next := before
		for j, want := range recs {
			if want.LSN != next {
				t.Fatalf("record %d of the append at %d, want %d", j, want.LSN, next)
			}
			next += LSN(want.Size())
			got, err := l.Read(want.LSN)
			if err != nil {
				t.Fatalf("read %d: %v", want.LSN, err)
			}
			if got.Size() != want.Size() || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("record at %d: Size %d and %d payload bytes, want %d and %d", want.LSN, got.Size(), len(got.Payload), want.Size(), len(want.Payload))
			}
			got.Payload, want.Payload = nil, nil
			if !reflect.DeepEqual(got, *want) {
				t.Fatalf("record at %d reads back as\n%+v, want\n%+v", want.LSN, got, *want)
			}
		}
		if next != l.EndLSN() {
			t.Fatalf("the append's records end at %d, the tail is %d", next, l.EndLSN())
		}
	}
}

func TestLSNsAreMonotone(t *testing.T) {
	l := New()
	var prev LSN
	for i := 0; i < 100; i++ {
		lsn := l.Append(&Record{Type: RecUpdate, Payload: make([]byte, i)})
		if lsn <= prev {
			t.Fatalf("LSN %d not after %d", lsn, prev)
		}
		prev = lsn
	}
}

func TestForceAndCrashTruncation(t *testing.T) {
	l := New()
	var lsns []LSN
	for i := 0; i < 10; i++ {
		lsns = append(lsns, l.Append(&Record{Type: RecUpdate, TxnID: TxnID(i)}))
	}
	l.Force(lsns[4])
	// Force flushes the whole buffer (group commit): stable covers all.
	img := crashImage(t, l, nil)
	count := 0
	img.Scan(NilLSN, func(r Record) bool { count++; return true })
	if count != 10 {
		t.Fatalf("stable records = %d, want 10 (group write)", count)
	}

	// Unforced tail is lost.
	l2 := New()
	for i := 0; i < 5; i++ {
		l2.Append(&Record{Type: RecUpdate, TxnID: TxnID(i)})
	}
	mid := l2.EndLSN()
	l2.Force(mid - 1)
	for i := 5; i < 10; i++ {
		l2.Append(&Record{Type: RecUpdate, TxnID: TxnID(i)})
	}
	img2 := crashImage(t, l2, nil)
	count = 0
	img2.Scan(NilLSN, func(r Record) bool { count++; return true })
	if count != 5 {
		t.Fatalf("stable records = %d, want 5", count)
	}
}

func TestCrashImageExplicitTruncation(t *testing.T) {
	l := New()
	var lsns []LSN
	for i := 0; i < 10; i++ {
		lsns = append(lsns, l.Append(&Record{Type: RecUpdate, TxnID: TxnID(i)}))
	}
	l.ForceAll()
	img := crashImage(t, l, &lsns[3])
	count := 0
	img.Scan(NilLSN, func(r Record) bool { count++; return true })
	if count != 3 {
		t.Fatalf("truncated image has %d records, want 3", count)
	}
}

func TestBoundaries(t *testing.T) {
	l := New()
	n := 7
	for i := 0; i < n; i++ {
		l.Append(&Record{Type: RecUpdate, Payload: make([]byte, i*3)})
	}
	l.ForceAll()
	b := l.FullImage().Boundaries()
	if len(b) != n+1 {
		t.Fatalf("boundaries = %d, want %d", len(b), n+1)
	}
	if b[0] != 1 || b[len(b)-1] != l.EndLSN() {
		t.Fatalf("boundary endpoints %d..%d, want 1..%d", b[0], b[len(b)-1], l.EndLSN())
	}
}

func TestTornRecordStopsScan(t *testing.T) {
	l := New()
	l.Append(&Record{Type: RecUpdate, TxnID: 1})
	lsn2 := l.Append(&Record{Type: RecUpdate, TxnID: 2, Payload: []byte("payload")})
	l.ForceAll()
	img := crashImage(t, l, nil)
	// Corrupt a byte inside the second record.
	img.from(lsn2)[framePrefix] ^= 0xFF
	count := 0
	img.Scan(NilLSN, func(r Record) bool { count++; return true })
	if count != 1 {
		t.Fatalf("scan past torn record: count = %d, want 1", count)
	}
	if _, err := img.Read(lsn2); err == nil {
		t.Fatal("read of torn record did not fail")
	}
}

func TestNewFromImageContinues(t *testing.T) {
	l := New()
	lsn1 := l.Append(&Record{Type: RecBegin, TxnID: 1})
	l.ForceAll()
	l2 := NewFromImage(crashImage(t, l, nil))
	if l2.EndLSN() != l.EndLSN() {
		t.Fatalf("continuation EndLSN %d != %d", l2.EndLSN(), l.EndLSN())
	}
	got, err := l2.Read(lsn1)
	if err != nil || got.TxnID != 1 {
		t.Fatalf("old record unreadable: %+v %v", got, err)
	}
	lsn2 := l2.Append(&Record{Type: RecCommit, TxnID: 1})
	if lsn2 <= lsn1 {
		t.Fatal("LSN continuity broken")
	}
}

func TestCheckpointAnchor(t *testing.T) {
	l := New()
	l.Append(&Record{Type: RecUpdate})
	ck := l.Append(&Record{Type: RecCheckpoint})
	l.Force(ck)
	l.NoteCheckpoint(ck)
	if l.CheckpointLSN() != ck {
		t.Fatal("anchor not recorded")
	}
	img := crashImage(t, l, nil)
	if img.CheckpointLSN() != ck {
		t.Fatal("anchor lost in crash image")
	}
	// An anchor beyond the truncation point must be dropped.
	cut := ck
	img2 := crashImage(t, l, &cut)
	if img2.CheckpointLSN() != NilLSN {
		t.Fatal("anchor survived truncation before it")
	}
}

func TestStatsCountForces(t *testing.T) {
	l := New()
	lsn := l.Append(&Record{Type: RecCommit})
	l.Force(lsn)
	l.Force(lsn) // second force is a no-op
	a, f := l.Stats()
	if a != 1 || f != 1 {
		t.Fatalf("appends=%d flushes=%d, want 1,1", a, f)
	}
}

func TestConcurrentAppends(t *testing.T) {
	l := New()
	const workers = 8
	const each = 500
	var wg sync.WaitGroup
	lsnCh := make(chan LSN, workers*each)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				lsnCh <- l.Append(&Record{Type: RecUpdate, TxnID: TxnID(w), Payload: []byte{byte(i)}})
			}
		}(w)
	}
	wg.Wait()
	close(lsnCh)
	seen := make(map[LSN]bool)
	for lsn := range lsnCh {
		if seen[lsn] {
			t.Fatalf("duplicate LSN %d", lsn)
		}
		seen[lsn] = true
		if _, err := l.Read(lsn); err != nil {
			t.Fatalf("read %d: %v", lsn, err)
		}
	}
	if len(seen) != workers*each {
		t.Fatalf("records = %d", len(seen))
	}
}

// TestConcurrentAppendForce runs many appenders (each periodically forcing
// its own records) against a verifier that continuously takes crash images
// and walks them end to end. Because Force may only advance the stable
// watermark over fully published records, every crash image must decode
// contiguously up to its end — a hole or torn record below the watermark
// would truncate the walk early. Run under -race this also checks the
// publication protocol's happens-before edges.
func TestConcurrentAppendForce(t *testing.T) {
	l := New()
	const workers = 8
	const perWorker = 400

	stop := make(chan struct{})
	var verifier sync.WaitGroup
	verifier.Add(1)
	go func() {
		defer verifier.Done()
		for {
			img := crashImage(t, l, nil)
			end := img.EndLSN()
			next := LSN(1)
			img.Scan(NilLSN, func(r Record) bool {
				next = r.LSN + LSN(r.Size())
				return true
			})
			if next != end {
				t.Errorf("crash image walk stopped at %d, want %d: unpublished record below stable watermark", next, end)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(w)}, 16+w)
			var prev LSN
			for i := 0; i < perWorker; i++ {
				lsn := l.Append(&Record{
					Type: RecUpdate, TxnID: TxnID(w + 1), PrevLSN: prev,
					StoreID: 1, PageID: uint64(i + 2), Payload: payload,
				})
				prev = lsn
				if i%17 == 0 {
					l.Force(lsn)
					if l.StableLSN() <= lsn {
						t.Errorf("worker %d: stable %d after Force(%d)", w, l.StableLSN(), lsn)
					}
				}
				r, err := l.Read(lsn)
				if err != nil {
					t.Errorf("worker %d: read back %d: %v", w, lsn, err)
					return
				}
				if r.TxnID != TxnID(w+1) || !bytes.Equal(r.Payload, payload) {
					t.Errorf("worker %d: record %d corrupted", w, lsn)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	verifier.Wait()

	l.ForceAll()
	img := crashImage(t, l, nil)
	count := 0
	img.Scan(NilLSN, func(r Record) bool {
		count++
		return true
	})
	if count != workers*perWorker {
		t.Errorf("final image has %d records, want %d", count, workers*perWorker)
	}
	appends, flushes := l.Stats()
	if appends != int64(workers*perWorker) {
		t.Errorf("appends = %d, want %d", appends, workers*perWorker)
	}
	if flushes == 0 {
		t.Error("no forces recorded")
	}
}

// crashImage is what a crash leaves of l: the log its in-memory segment
// files made durable, cut at truncateAt when that is given, as the next
// Open replays it.
func crashImage(t testing.TB, l *Log, truncateAt *LSN) *Reader {
	t.Helper()
	fs := l.sink.fs.(*fsys.Mem).Crash(fsys.DropUnsynced)
	if truncateAt != nil {
		if err := CutDir(fs, l.sink.dir, *truncateAt); err != nil {
			t.Fatal(err)
		}
	}
	_, rd, err := Open(fs, l.sink.dir, int(l.sink.segCap), SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if rd == nil {
		return &Reader{base: 1}
	}
	return rd
}
