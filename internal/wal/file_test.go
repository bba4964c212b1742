package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fsys"
)

// fileAppendN appends n records with recognizable payloads and forces them.
func fileAppendN(t *testing.T, l *Log, n int, tag byte) []LSN {
	t.Helper()
	var lsns []LSN
	for i := 0; i < n; i++ {
		pl := make([]byte, 10+i%23)
		for j := range pl {
			pl[j] = tag + byte(i%7)
		}
		lsns = append(lsns, l.Append(&Record{
			Type: RecUpdate, Kind: Kind(i % 5), TxnID: TxnID(i + 1),
			StoreID: 1, PageID: uint64(i + 2), Payload: pl,
		}))
	}
	if err := l.ForceAll(); err != nil {
		t.Fatalf("force: %v", err)
	}
	return lsns
}

// replayRecords reopens dir in fs and returns the replayed record LSNs.
func replayRecords(t *testing.T, fs fsys.FS, dir string, segSize int) (*FileWAL, *Reader, []LSN) {
	t.Helper()
	fw, rd, err := Open(fs, dir, segSize, SyncNever)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	var got []LSN
	if rd != nil {
		rd.Scan(NilLSN, func(rec Record) bool {
			got = append(got, rec.LSN)
			return true
		})
	}
	return fw, rd, got
}

// onBoth runs fn over the operating system's file system, in a temporary
// directory, and over an in-memory one. crash returns what a reopen after
// a crash of fs finds: the directory as the operating system holds it, or
// the durable state of the in-memory file system.
func onBoth(t *testing.T, fn func(t *testing.T, fs fsys.FS, dir string, crash func(fsys.FS) fsys.FS)) {
	t.Run("os", func(t *testing.T) {
		fn(t, fsys.OS, t.TempDir(), func(fs fsys.FS) fsys.FS { return fs })
	})
	t.Run("mem", func(t *testing.T) {
		fn(t, fsys.NewMem(), "wal", func(fs fsys.FS) fsys.FS { return fs.(*fsys.Mem).Crash(fsys.DropUnsynced) })
	})
}

func TestFileWALRoundtrip(t *testing.T) { onBoth(t, testFileWALRoundtrip) }

func testFileWALRoundtrip(t *testing.T, fs fsys.FS, dir string, crash func(fsys.FS) fsys.FS) {
	fw, rd, err := Open(fs, dir, 0, SyncAlways)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if rd != nil {
		t.Fatalf("fresh dir produced a reader")
	}
	l := New()
	l.SetSink(fw)
	lsns := fileAppendN(t, l, 100, 'a')
	end := l.StableLSN()
	fw.Close()

	fs = crash(fs)
	fw2, rd2, got := replayRecords(t, fs, dir, 0)
	defer fw2.Close()
	if rd2 == nil {
		t.Fatalf("no reader after replay")
	}
	if rd2.EndLSN() != end {
		t.Fatalf("replay end %d, want %d", rd2.EndLSN(), end)
	}
	if len(got) != len(lsns) {
		t.Fatalf("replayed %d records, want %d", len(got), len(lsns))
	}
	for i, lsn := range lsns {
		if got[i] != lsn {
			t.Fatalf("record %d at %d, want %d", i, got[i], lsn)
		}
	}
	// Payload integrity through the round trip.
	rec, err := rd2.Read(lsns[7])
	if err != nil || len(rec.Payload) == 0 || rec.TxnID != 8 {
		t.Fatalf("read back record 7: %+v err=%v", rec, err)
	}

	// The log continues across the restart: new appends replay too. The
	// replay's log writes under SyncNever, so the second reopen reads
	// the files as they are, crash or not.
	l2 := NewFromImage(rd2)
	l2.SetSink(fw2)
	more := fileAppendN(t, l2, 50, 'b')
	fw2.Close()
	_, _, got2 := replayRecords(t, fs, dir, 0)
	if len(got2) != len(lsns)+len(more) {
		t.Fatalf("after continue: %d records, want %d", len(got2), len(lsns)+len(more))
	}
}

// TestFileWALCorruptTailTruncation flips every byte of the last record
// (and a swath of an interior one) and asserts replay truncates exactly
// at the first corrupt record without panicking — no ghost records, no
// lost intact prefix.
//
// It runs on both file systems; the in-memory one reopens without a
// crash, as a process restart does.
func TestFileWALCorruptTailTruncation(t *testing.T) {
	onBoth(t, func(t *testing.T, fs fsys.FS, dir string, _ func(fsys.FS) fsys.FS) { testCorruptTail(t, fs, dir) })
}

func testCorruptTail(t *testing.T, fs fsys.FS, dir string) {
	fw, _, err := Open(fs, dir, 0, SyncNever)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l := New()
	l.SetSink(fw)
	lsns := fileAppendN(t, l, 40, 'c')
	end := uint64(l.StableLSN())
	fw.Close()

	seg := filepath.Join(dir, segName(0))
	orig, err := fsys.ReadFile(fs, seg)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	last := uint64(lsns[len(lsns)-1])
	for off := last; off < end; off++ {
		mut := append([]byte(nil), orig...)
		mut[segHdrLen+off] ^= 0xA5
		if err := fsys.WriteFile(fs, seg, mut); err != nil {
			t.Fatalf("write mutated segment: %v", err)
		}
		fw2, rd2, got := replayRecords(t, fs, dir, 0)
		fw2.Close()
		if want := len(lsns) - 1; len(got) != want {
			t.Fatalf("flip at %d: replayed %d records, want %d", off, len(got), want)
		}
		if rd2.EndLSN() != LSN(last) {
			t.Fatalf("flip at %d: end %d, want truncation at %d", off, rd2.EndLSN(), last)
		}
		// replay physically truncates; restore the full image for the
		// next offset.
		if err := fsys.WriteFile(fs, seg, orig); err != nil {
			t.Fatalf("restore segment: %v", err)
		}
	}

	// An interior flip truncates there, keeping everything before it.
	mid := uint64(lsns[11])
	for delta := uint64(0); delta < uint64(lsns[12])-mid; delta += 3 {
		mut := append([]byte(nil), orig...)
		mut[segHdrLen+mid+delta] ^= 0xFF
		if err := fsys.WriteFile(fs, seg, mut); err != nil {
			t.Fatalf("write mutated segment: %v", err)
		}
		fw2, rd2, got := replayRecords(t, fs, dir, 0)
		fw2.Close()
		if len(got) != 11 {
			t.Fatalf("interior flip at +%d: replayed %d records, want 11", delta, len(got))
		}
		if rd2.EndLSN() != lsns[11] {
			t.Fatalf("interior flip at +%d: end %d, want %d", delta, rd2.EndLSN(), lsns[11])
		}
		if err := fsys.WriteFile(fs, seg, orig); err != nil {
			t.Fatalf("restore segment: %v", err)
		}
	}
}

func TestFileWALSegmentRollAndRecycle(t *testing.T) {
	dir := t.TempDir()
	const segSz = 4096
	fw, _, err := OpenFileWAL(dir, segSz, SyncNever)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l := New()
	l.SetSink(fw)
	lsns := fileAppendN(t, l, 600, 'd') // ~40KB: spans many 4K segments
	st := fw.Stats()
	if st.SegmentsCreated < 5 {
		t.Fatalf("expected several segments, created %d", st.SegmentsCreated)
	}

	// Recycle below a mid-log record: master first, then retirement.
	anchor := lsns[500]
	horizon := lsns[400]
	if err := fw.NoteCheckpoint(anchor); err != nil {
		t.Fatalf("note checkpoint: %v", err)
	}
	if err := fw.Recycle(horizon); err != nil {
		t.Fatalf("recycle: %v", err)
	}
	st = fw.Stats()
	if st.SegmentsRetired == 0 {
		t.Fatalf("recycle retired no segments (horizon %d)", horizon)
	}

	// More appends must reuse retired files rather than growing the dir.
	fileAppendN(t, l, 600, 'e')
	if got := fw.Stats().SegmentsRecycled; got == 0 {
		t.Fatalf("no segments recycled on continued append")
	}
	end := l.StableLSN()
	fw.Close()

	fw2, rd2, got := replayRecords(t, fsys.OS, dir, segSz)
	defer fw2.Close()
	if rd2 == nil {
		t.Fatalf("no reader after recycled replay")
	}
	if rd2.EndLSN() != end {
		t.Fatalf("replay end %d, want %d", rd2.EndLSN(), end)
	}
	if rd2.StartLSN() != horizon {
		t.Fatalf("replay start %d, want horizon %d", rd2.StartLSN(), horizon)
	}
	if len(rd2.buf) != int(end-horizon) {
		t.Fatalf("replay image holds %d bytes for the live log [%d,%d)", len(rd2.buf), horizon, end)
	}
	if rd2.CheckpointLSN() != anchor {
		t.Fatalf("replay anchor %d, want %d", rd2.CheckpointLSN(), anchor)
	}
	if len(got) == 0 || got[0] != horizon {
		t.Fatalf("scan starts at %v, want %d", got[:min(len(got), 1)], horizon)
	}
	// Reads below the horizon are rejected, at it and above they work.
	if _, err := rd2.Read(lsns[100]); err == nil {
		t.Fatalf("read below horizon succeeded")
	}
	if _, err := rd2.Read(lsns[450]); err != nil {
		t.Fatalf("read above horizon: %v", err)
	}
}

// TestFileWALRecycleVsReplayRace covers the crash window inside Recycle:
// the master (with the advanced horizon) is durable but dead segment
// files still exist. Replay must ignore them and start at the horizon.
func TestFileWALRecycleVsReplayRace(t *testing.T) {
	dir := t.TempDir()
	const segSz = 4096
	fw, _, err := OpenFileWAL(dir, segSz, SyncNever)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l := New()
	l.SetSink(fw)
	lsns := fileAppendN(t, l, 600, 'f')
	end := l.StableLSN()
	anchor, horizon := lsns[500], lsns[400]
	if err := fw.NoteCheckpoint(anchor); err != nil {
		t.Fatalf("note checkpoint: %v", err)
	}
	// Write the master the way Recycle does, then "crash" before any
	// segment is renamed: every dead segment survives on disk.
	fw.mu.Lock()
	fw.horizon = horizon
	err = fw.writeMaster()
	fw.mu.Unlock()
	if err != nil {
		t.Fatalf("write master: %v", err)
	}
	fw.Close()

	fw2, rd2, got := replayRecords(t, fsys.OS, dir, segSz)
	if rd2 == nil || rd2.StartLSN() != horizon || rd2.EndLSN() != end {
		t.Fatalf("replay start/end = %v/%v, want %d/%d", rd2.StartLSN(), rd2.EndLSN(), horizon, end)
	}
	if got[0] != horizon {
		t.Fatalf("first replayed record %d, want %d", got[0], horizon)
	}
	// The dead segments were recognized and pooled for reuse.
	if fw2.Stats().SegmentsRetired == 0 {
		t.Fatalf("replay did not retire dead segments")
	}
	fw2.Close()
}

// TestFileWALReplayPoolsDeadSegmentsBesideFreeFiles: a kill inside
// Recycle, after the master moved and before the dead segments were
// pooled, leaves them beside a free pool. Replay pools them under names
// no free file has, so the pool lists each file once and every one exists.
func TestFileWALReplayPoolsDeadSegmentsBesideFreeFiles(t *testing.T) {
	dir := t.TempDir()
	const segSz = 4096
	fw, _, err := OpenFileWAL(dir, segSz, SyncNever)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l := New()
	l.SetSink(fw)
	lsns := fileAppendN(t, l, 600, 'p')
	fw.mu.Lock()
	fw.ckpt, fw.horizon = lsns[500], lsns[400]
	err = fw.writeMaster()
	fw.mu.Unlock()
	if err != nil {
		t.Fatalf("write master: %v", err)
	}
	fw.Close()
	if err := os.WriteFile(filepath.Join(dir, freePrefix+"1"+segSuffix), make([]byte, segHdrLen), 0o644); err != nil {
		t.Fatal(err)
	}

	fw2, _, _ := replayRecords(t, fsys.OS, dir, segSz)
	defer fw2.Close()
	if fw2.Stats().SegmentsRetired < 2 {
		t.Fatalf("replay retired %d dead segments, want several", fw2.Stats().SegmentsRetired)
	}
	seen := map[string]bool{}
	for _, path := range fw2.free {
		if seen[path] {
			t.Fatalf("free pool lists %s twice: %v", filepath.Base(path), fw2.free)
		}
		seen[path] = true
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("free pool lists %s: %v", filepath.Base(path), err)
		}
	}
}

// withVersion returns a copy of the header b stamped with format version v,
// its CRC32C over [0:crcAt) recomputed: that header as a build of version v
// wrote it.
func withVersion(b []byte, v uint32, crcAt int) []byte {
	out := bytes.Clone(b)
	binary.LittleEndian.PutUint32(out[8:], v)
	binary.LittleEndian.PutUint32(out[crcAt:], crc32.Checksum(out[:crcAt], crcTable))
	return out
}

// TestFileWALRefusesOtherVersions: a directory a build of another format
// version wrote — version 1 (fixed record headers), version 2 (node images
// with both levels' fields in every record), version 3 (no page chain),
// version 4 (update records with both values), version 5 (stored LSNs,
// one-span update deltas) or a later one — a segment,
// with or without a master record, whose magic and checksum hold, opens and
// scans with ErrLogVersion and is left byte for byte as it was: not
// recycled as an unparseable file, not replayed as an empty log.
func TestFileWALRefusesOtherVersions(t *testing.T) {
	hdr := make([]byte, segHdrLen)
	encodeSegHeader(hdr, DefaultSegmentSize, 0)
	master := encodeMaster(1, 1)
	for _, v := range []uint32{1, 2, 3, 4, 5, fileVersion + 1} {
		seg := append(withVersion(hdr, v, 24), bytes.Repeat([]byte{0xa5}, 300)...)
		for _, files := range []map[string][]byte{
			{segName(0): seg, masterName: withVersion(master[:], v, 28)},
			{segName(0): seg},
		} {
			dir := t.TempDir()
			for name, b := range files {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if fw, _, err := OpenFileWAL(dir, 0, SyncNever); !errors.Is(err, ErrLogVersion) {
				if fw != nil {
					fw.Close()
				}
				t.Fatalf("version %d, %d files: open returned %v, want ErrLogVersion", v, len(files), err)
			}
			if err := ScanDir(fsys.OS, dir, func(*Record) bool { return true }); !errors.Is(err, ErrLogVersion) {
				t.Fatalf("version %d, %d files: scan returned %v, want ErrLogVersion", v, len(files), err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil || len(entries) != len(files) {
				t.Fatalf("version %d, %d files: the directory holds %d entries after open (%v)", v, len(files), len(entries), err)
			}
			for name, want := range files {
				if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("version %d, %d files: %s changed by the open (%v)", v, len(files), name, err)
				}
			}
		}
	}
}

func TestFileWALShortSegment(t *testing.T) {
	dir := t.TempDir()
	const segSz = 4096
	fw, _, err := OpenFileWAL(dir, segSz, SyncNever)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l := New()
	l.SetSink(fw)
	fileAppendN(t, l, 600, 'g')
	fw.Close()

	// Remove an interior segment: the chain has a gap.
	ents, _ := os.ReadDir(dir)
	var segs []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), segPrefix) && !strings.HasPrefix(e.Name(), freePrefix) && e.Name() != masterName {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, have %d", len(segs))
	}
	victim := filepath.Join(dir, segs[1])
	blob, _ := os.ReadFile(victim)
	if err := os.Remove(victim); err != nil {
		t.Fatalf("remove: %v", err)
	}
	_, _, err = OpenFileWAL(dir, segSz, SyncNever)
	if !errors.Is(err, ErrShortSegment) {
		t.Fatalf("gap replay error = %v, want ErrShortSegment", err)
	}

	// A truncated interior segment cuts the chain there instead.
	if err := os.WriteFile(victim, blob[:len(blob)-100], 0o644); err != nil {
		t.Fatalf("restore truncated: %v", err)
	}
	fw2, rd2, err := OpenFileWAL(dir, segSz, SyncNever)
	if err != nil {
		t.Fatalf("truncated interior replay: %v", err)
	}
	// The stream must end inside the victim (second) segment: later
	// segments are unreachable without its missing bytes.
	if rd2 == nil || rd2.EndLSN() > LSN(segSz*2+1) {
		t.Fatalf("replay end %v ran past the truncated segment", rd2.EndLSN())
	}
	fw2.Close()
}

// TestFileWALStaleRecycledBytes verifies the LSN-continuity check: a
// recycled segment's stale-but-intact records were checksummed at their
// old LSNs and must not replay at the new position.
func TestFileWALStaleRecycledBytes(t *testing.T) {
	dir := t.TempDir()
	fw, _, err := OpenFileWAL(dir, 0, SyncNever)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l := New()
	l.SetSink(fw)
	lsns := fileAppendN(t, l, 20, 'h')
	end := uint64(l.StableLSN())
	fw.Close()

	// Graft the bytes of records 10.. onto the end of the log at a
	// position they do not belong: intact CRC, wrong position.
	seg := filepath.Join(dir, segName(0))
	blob, _ := os.ReadFile(seg)
	stale := append([]byte(nil), blob[segHdrLen+lsns[10]:]...)
	blob = append(blob, stale...)
	if err := os.WriteFile(seg, blob, 0o644); err != nil {
		t.Fatalf("graft: %v", err)
	}
	fw2, rd2, got := replayRecords(t, fsys.OS, dir, 0)
	fw2.Close()
	if len(got) != len(lsns) {
		t.Fatalf("replayed %d records, want %d (stale bytes accepted?)", len(got), len(lsns))
	}
	if rd2.EndLSN() != LSN(end) {
		t.Fatalf("replay end %d, want %d", rd2.EndLSN(), end)
	}
}

// TestFileWALFreePoolCapped: retiring more segments than one redo window
// can reuse unlinks the excess, so dead segments stop counting against
// the directory; the capped pool still feeds continued appends, and a
// reopen keeps the cap.
func TestFileWALFreePoolCapped(t *testing.T) {
	dir := t.TempDir()
	const segSz = 4096
	fw, _, err := OpenFileWAL(dir, segSz, SyncNever)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l := New()
	l.SetSink(fw)
	lsns := fileAppendN(t, l, 6000, 'f') // ~65 segments
	created := fw.Stats().SegmentsCreated
	if created < 3*RedoWindowSegments {
		t.Fatalf("want several windows of segments, created %d", created)
	}
	if err := fw.NoteCheckpoint(lsns[5990]); err != nil {
		t.Fatal(err)
	}
	if err := fw.Recycle(lsns[5990]); err != nil {
		t.Fatalf("recycle: %v", err)
	}
	countFiles := func() (free, total int) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), freePrefix) {
				free++
			}
		}
		return free, len(entries)
	}
	st := fw.Stats()
	free, total := countFiles()
	if free != RedoWindowSegments || st.SegmentsRemoved != st.SegmentsRetired-RedoWindowSegments {
		t.Fatalf("%d free files, %d retired, %d removed; want the pool capped at %d", free, st.SegmentsRetired, st.SegmentsRemoved, RedoWindowSegments)
	}
	if total > RedoWindowSegments+4 { // the pool, the live tail, the master
		t.Fatalf("%d files left in the WAL directory after recycling", total)
	}
	fileAppendN(t, l, 600, 'g')
	if got := fw.Stats().SegmentsRecycled; got == 0 {
		t.Fatal("the capped pool did not feed continued appends")
	}
	fw.Close()
	fw2, _, _ := replayRecords(t, fsys.OS, dir, segSz)
	defer fw2.Close()
	if free, _ := countFiles(); free > RedoWindowSegments {
		t.Fatalf("%d free files after reopen", free)
	}
}
