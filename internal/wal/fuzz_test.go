package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fsys"
)

// stream appends recs to a fresh log — recs[0] alone, the rest as one
// AppendGroup, so that every frame form is present — and returns the log's
// bytes from LSN 1.
func stream(recs ...Record) []byte {
	l := New()
	l.Append(&recs[0])
	group := make([]*Record, len(recs)-1)
	for i := range group {
		group[i] = &recs[i+1]
	}
	l.AppendGroup(group)
	return l.FullImage().buf
}

// FuzzDecodeRecord feeds arbitrary bytes to the record decoder at an
// arbitrary LSN, and to segment replay as the data of a log's first
// segment. A record is decoded or refused with ErrCorruptRecord — never a
// panic, and nothing is sized by a length the input does not cover (a
// payload aliases the input) — and a decoded record re-encodes at its LSN
// to exactly the bytes it came from. The same bytes one segment further on
// (where a recycled segment puts them) are refused. Replay and the
// read-only scan accept exactly the same prefix of whole records at their
// own positions and cut the rest.
func FuzzDecodeRecord(f *testing.F) {
	valid := stream(
		Record{Type: RecUpdate, Kind: 44, TxnID: 7, StoreID: 1, PageID: 9, Payload: []byte("payload")},
		Record{Type: RecCLR, Flags: FlagSystem, TxnID: 8, PrevLSN: 1, UndoNext: 1, StoreID: 1, PageID: 9},
		Record{Type: RecCommit, TxnID: 1 << 40, Payload: make([]byte, 8)},
	)
	// A page's chain: a record naming the page's previous record, alone
	// and as the second of a group on the same page, where it is the
	// distance back to its predecessor.
	chained := stream(
		Record{Type: RecUpdate, Kind: 44, TxnID: 7, StoreID: 1, PageID: 9, Payload: []byte("first")},
		Record{Type: RecUpdate, Kind: 45, TxnID: 7, StoreID: 1, PageID: 9, PagePrev: 1, Payload: []byte("second")},
		Record{Type: RecUpdate, Kind: 45, TxnID: 7, StoreID: 1, PageID: 9, Payload: []byte("third")},
	)
	// The streams start at LSN 1: their first record decodes there.
	f.Add(chained, uint64(1))
	f.Add(chained[:len(chained)-2], uint64(1))
	f.Add([]byte{}, uint64(0))
	f.Add(valid, uint64(1))
	f.Add(valid, uint64(2))
	f.Add(valid, uint64(1+DefaultSegmentSize))
	f.Add(valid[:len(valid)-3], uint64(1))
	f.Add(append(bytes.Clone(valid), 0xff, 0xff, 0xff, 0x7f), uint64(1))
	flipped := bytes.Clone(valid)
	flipped[framePrefix+1] ^= 1 // the first record's transaction id
	f.Add(flipped, uint64(1))
	f.Fuzz(func(t *testing.T, data []byte, at uint64) {
		var r Record
		n, err := decodeSharedInto(data, LSN(at), &r)
		switch {
		case err != nil && !errors.Is(err, ErrCorruptRecord):
			t.Fatalf("decode: %v, want ErrCorruptRecord", err)
		case err == nil && (r.LSN != LSN(at) || n != r.Size() || n > len(data)):
			t.Fatalf("decoded %d bytes of %d at %d into a record of size %d at %d", n, len(data), at, r.Size(), r.LSN)
		case err == nil:
			again := make([]byte, n)
			encodeInto(again, &r)
			if !bytes.Equal(again, data[:n]) {
				t.Fatalf("%x decoded to %+v, which encodes as %x", data[:n], r, again)
			}
			// A segment's LSNs below 2^52 and the same ones a 1 MiB
			// segment on differ in a burst of at most 32 bits.
			if later := at + DefaultSegmentSize; later < 1<<52 {
				if _, err := decodeSharedInto(data, LSN(later), &r); err == nil {
					t.Fatalf("%x decodes at %d and at %d", data[:n], at, later)
				}
			}
		}

		dir := t.TempDir()
		seg := make([]byte, segHdrLen+1, segHdrLen+1+len(data))
		encodeSegHeader(seg, uint64(max(len(data)+1, minSegmentSz)), 0)
		seg = append(seg, data...) // LSN 0 is no record's: the stream starts at byte 1
		if err := os.WriteFile(filepath.Join(dir, segName(0)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		var scanned []LSN
		if err := ScanDir(fsys.OS, dir, func(r *Record) bool {
			scanned = append(scanned, r.LSN)
			return true
		}); err != nil {
			t.Fatalf("scan: %v", err)
		}
		fw, rd, err := OpenFileWAL(dir, 0, SyncNever)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer fw.Close()
		var replayed []LSN
		end := LSN(1)
		if rd != nil {
			end = rd.EndLSN()
			rd.ScanShared(NilLSN, func(r *Record) bool {
				replayed = append(replayed, r.LSN)
				return true
			})
		}
		st := fw.Stats()
		if int(end)-1+int(st.ReplayTruncated) != len(data) || int(st.ReplayRecords) != len(replayed) {
			t.Fatalf("replay kept %d bytes in %d records and cut %d of %d; its reader holds %d records",
				end-1, st.ReplayRecords, st.ReplayTruncated, len(data), len(replayed))
		}
		if len(scanned) != len(replayed) {
			t.Fatalf("the read-only scan saw %d records, replay %d", len(scanned), len(replayed))
		}
	})
}

// FuzzMasterRecord: arbitrary bytes are a master record — the checkpoint
// anchor and recycle horizon replay starts from — only if they are exactly
// what encodeMaster writes for what they decode to; anything else is no
// record or a record of another version, never a panic.
func FuzzMasterRecord(f *testing.F) {
	good := encodeMaster(4096, 1024)
	f.Add(good[:])
	f.Add(good[:masterLen-1])
	f.Add(append([]byte("PITRMSTR"), make([]byte, 40)...))
	f.Add(withVersion(good[:], 1, 28))
	f.Fuzz(func(t *testing.T, b []byte) {
		ckpt, horizon, err := decodeMaster(b)
		if err != nil {
			if !errors.Is(err, errNoHeader) && !errors.Is(err, ErrLogVersion) {
				t.Fatalf("decode: %v", err)
			}
			return
		}
		if want := encodeMaster(ckpt, horizon); !bytes.Equal(b[:masterLen], want[:]) {
			t.Fatalf("%x accepted as anchor %d horizon %d, which encodes as %x", b, ckpt, horizon, want)
		}
	})
}
