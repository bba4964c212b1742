package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/fsys"
)

func mkImage(pid PageID, fill byte, n int) []byte {
	img := make([]byte, n)
	for i := range img {
		img[i] = fill ^ byte(pid)
	}
	return img
}

func TestFileDiskRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(fsys.OS, path, 512)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	want := map[PageID][]byte{}
	for pid := PageID(1); pid <= 20; pid++ {
		// Overwrite several times so slots are retired and reused.
		for v := 0; v < 3; v++ {
			img := mkImage(pid, byte('A'+v), 64+int(pid))
			if err := d.Write(pid, img); err != nil {
				t.Fatalf("write %d: %v", pid, err)
			}
			want[pid] = img
		}
	}
	for pid, img := range want {
		got, ok, err := d.Read(pid)
		if err != nil || !ok || !bytes.Equal(got, img) {
			t.Fatalf("read %d: ok=%v err=%v", pid, ok, err)
		}
	}
	if _, ok, err := d.Read(99); ok || err != nil {
		t.Fatalf("read unwritten page: ok=%v err=%v", ok, err)
	}
	d.Close()

	// Reopen: the scan elects the newest frame of every page.
	d2, err := OpenFileDisk(fsys.OS, path, 512)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if n := len(d2.PageIDs()); n != len(want) {
		t.Fatalf("reopen holds %d pages, want %d", n, len(want))
	}
	for pid, img := range want {
		got, ok, err := d2.Read(pid)
		if err != nil || !ok || !bytes.Equal(got, img) {
			t.Fatalf("reopen read %d: ok=%v err=%v", pid, ok, err)
		}
	}
	if d2.Stats().ChecksumChecks == 0 {
		t.Fatalf("reopen verified no checksums")
	}
}

// corruptContent flips two image bytes of pid's elected frame on disk.
func corruptContent(t *testing.T, d *FileDisk, pid PageID) {
	t.Helper()
	if _, err := d.f.WriteAt([]byte{0xde, 0xad}, d.blockOff(d.pages[pid].start)+frameHdrLen+10); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
}

func TestFileDiskChecksumMismatchRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(fsys.OS, path, 512)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	img1 := mkImage(3, 'x', 100)
	img2 := mkImage(3, 'y', 100)
	if err := d.Write(3, img1); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The Sync gives the second write a durable base: without it the
	// first image's slot would be free the moment it is superseded.
	if err := d.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := d.Write(3, img2); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Corrupt the ELECTED frame under the cache: the live read fails its
	// checksum with the typed sentinel.
	corruptContent(t, d, 3)
	_, _, err = d.Read(3)
	if !errors.Is(err, ErrTornPage) {
		t.Fatalf("read of corrupt slot: %v, want ErrTornPage", err)
	}
	if d.Stats().ChecksumFails == 0 {
		t.Fatalf("no checksum failure counted")
	}
	d.Close()

	// Reopen: careful replacement falls back to the intact durable image
	// the corrupt frame names as its base.
	d2, err := OpenFileDisk(fsys.OS, path, 512)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, ok, err := d2.Read(3)
	if err != nil || !ok || !bytes.Equal(got, img1) {
		t.Fatalf("fallback read: ok=%v err=%v (want prior image)", ok, err)
	}
	// Corrupt the fallback too: now a frame with base > 0 has no intact
	// image behind it, the image is genuinely lost and the page reads as
	// torn — the fatal case.
	corruptContent(t, d2, 3)
	d2.Close()
	d3, err := OpenFileDisk(fsys.OS, path, 512)
	if err != nil {
		t.Fatalf("reopen 2: %v", err)
	}
	defer d3.Close()
	_, _, err = d3.Read(3)
	if !errors.Is(err, ErrTornPage) {
		t.Fatalf("no-intact-image read: %v, want ErrTornPage", err)
	}
	// A complete write brings the page back, and outranks the torn frames
	// still lying in free slots at the next open.
	if err := d3.Write(3, img2); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	d3.Close()
	d4, err := OpenFileDisk(fsys.OS, path, 512)
	if err != nil {
		t.Fatalf("reopen 3: %v", err)
	}
	defer d4.Close()
	if got, ok, err := d4.Read(3); err != nil || !ok || !bytes.Equal(got, img2) {
		t.Fatalf("read after rewrite: ok=%v err=%v", ok, err)
	}
}

// TestFileDiskStaleImageIsNotElected is the second ErrTornPage case: a
// torn write names a durable base newer than the only intact image left
// (an old copy nobody has overwritten yet). Falling back to that copy
// would hand redo a page older than the log still covers.
func TestFileDiskStaleImageIsNotElected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(fsys.OS, path, 512)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	mustWrite := func(pid PageID, fill byte) {
		t.Helper()
		if err := d.Write(pid, mkImage(pid, fill, 100)); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	mustSync := func() {
		t.Helper()
		if err := d.Sync(); err != nil {
			t.Fatalf("sync: %v", err)
		}
	}
	mustWrite(2, 'a')
	mustWrite(1, 'a')
	mustSync()
	stale := d.pages[1].start
	mustWrite(1, 'b')
	mustWrite(2, 'b')
	mustSync()
	// Both first images are now in one free run, intact. Page 1's durable
	// image rots, and its next write (base = 2) is torn after the header;
	// it lands in page 2's old extent, the run's front.
	corruptContent(t, d, 1)
	if err := d.writePartial(1, mkImage(1, 'c', 100), 0.5); err != nil {
		t.Fatalf("partial: %v", err)
	}
	d.Close()

	d2, err := OpenFileDisk(fsys.OS, path, 512)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if h, ok := d2.parseHdr(readFrame(t, d2, stale)); !ok || h.pid != 1 || h.seq != 1 {
		t.Fatalf("test set-up: block %d no longer holds page 1's first image", stale)
	}
	if _, _, err := d2.Read(1); !errors.Is(err, ErrTornPage) {
		t.Fatalf("read with only a stale image left: %v, want ErrTornPage", err)
	}
	if got, ok, err := d2.Read(2); err != nil || !ok || !bytes.Equal(got, mkImage(2, 'b', 100)) {
		t.Fatalf("page 2: ok=%v err=%v", ok, err)
	}
	checkBlocks(t, d2, 0)
}

// TestFileDiskForgedFrameNotElected: a page image may hold, at a block
// boundary, bytes laid out as a frame — a user value can be anything.
// Once the image's extent is freed and its front reused by a shorter
// image, Open's scan reads those bytes as a candidate frame header. The
// header checksum starts from the file's salt, which whoever chose the
// bytes does not know, so the forgery is not elected: the page it names
// keeps its own image.
func TestFileDiskForgedFrameNotElected(t *testing.T) {
	fs := fsys.NewMem()
	d, err := OpenFileDisk(fs, "pages", 2048) // 128-byte blocks
	if err != nil {
		t.Fatal(err)
	}
	// The forgery claims page 1 at a sequence number no real image has
	// reached, with a header checksum computed the only way a forger can:
	// unsalted.
	forged := mkImage(1, 'f', 20)
	fr := make([]byte, frameHdrLen+len(forged))
	binary.LittleEndian.PutUint32(fr[0:], frameMagic)
	binary.LittleEndian.PutUint64(fr[4:], 1<<40)
	binary.LittleEndian.PutUint64(fr[12:], 1)
	binary.LittleEndian.PutUint32(fr[20:], uint32(len(forged)))
	binary.LittleEndian.PutUint32(fr[32:], crc32.Checksum(forged, fdCRCTable))
	binary.LittleEndian.PutUint32(fr[36:], crc32.Checksum(fr[:36], fdCRCTable))
	copy(fr[frameHdrLen:], forged)
	// Page 2's first image, a 440-byte frame in blocks 1 to 4, carries it
	// where block 3 begins.
	carrier := mkImage(2, 'v', 400)
	copy(carrier[2*d.block-frameHdrLen:], fr)
	want := map[PageID][]byte{1: mkImage(1, 'a', 100), 2: mkImage(2, 'w', 400), 3: mkImage(3, 'x', 50)}
	for _, w := range []struct {
		pid  PageID
		img  []byte
		sync bool
	}{{2, carrier, false}, {1, want[1], true}, {2, want[2], true}, {3, want[3], false}} {
		if err := d.Write(w.pid, w.img); err != nil {
			t.Fatal(err)
		}
		if w.sync {
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Page 3's one-block frame took the front of the carrier's freed
	// extent; the forgery still lies at block 3.
	if got := readFrame(t, d, 3); d.pages[3].start != 1 || !bytes.Equal(got[:len(fr)], fr) {
		t.Fatalf("test set-up: page 3 at block %d, block 3 holds %x", d.pages[3].start, got[:len(fr)])
	}
	d.Close()
	d2, err := OpenFileDisk(fs, "pages", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for pid, img := range want {
		if got, ok, err := d2.Read(pid); err != nil || !ok || !bytes.Equal(got, img) {
			t.Fatalf("page %d after reopen: ok=%v err=%v, %d bytes, want its own %d", pid, ok, err, len(got), len(img))
		}
	}
	checkBlocks(t, d2, 0)
}

// readFrame reads a largest frame's worth of bytes from block start.
func readFrame(t *testing.T, d *FileDisk, start int) []byte {
	t.Helper()
	b := make([]byte, d.slotSize)
	n, _ := d.f.ReadAt(b, d.blockOff(start))
	return b[:n]
}

// checkBlocks checks that the free runs, limbo and the elected extents
// partition the file's blocks after block 0, that no two free runs touch,
// that the allocator's counts and lists agree with them, and that the file
// is no larger than its bound or than floor, a size it already had: what
// an open found, or what the file held before an image shrank and took
// the bound down with it.
func checkBlocks(t *testing.T, d *FileDisk, floor int) {
	t.Helper()
	// owner[b] is the page whose extent holds block b, or one of:
	const none, header, free, limbo = 0, -1, -2, -3
	owner := make([]int64, d.nblocks)
	owner[0] = header
	name := func(who int64) string {
		switch who {
		case header:
			return "the header"
		case free:
			return "free"
		case limbo:
			return "limbo"
		}
		return fmt.Sprint("page ", who)
	}
	claim := func(e extent, who int64) {
		if e.n <= 0 || e.start < 1 || e.start+e.n > d.nblocks {
			t.Fatalf("%s holds blocks [%d,%d) of %d", name(who), e.start, e.start+e.n, d.nblocks)
		}
		for b := e.start; b < e.start+e.n; b++ {
			if owner[b] != none {
				t.Fatalf("block %d held by %s and %s", b, name(owner[b]), name(who))
			}
			owner[b] = who
		}
	}
	nfree := 0
	for start, n := range d.free.byStart {
		claim(extent{start, n}, free)
		if _, ok := d.free.byStart[start+n]; ok {
			t.Fatalf("free runs at %d and %d touch", start, start+n)
		}
		if d.free.byEnd[start+n] != start {
			t.Fatalf("free run [%d,%d) missing from the ends", start, start+n)
		}
		nfree += n
	}
	listed := 0
	for n, l := range append(slices.Clone(d.free.bySize), d.free.large) {
		for i, start := range l {
			if m := d.free.byStart[start]; m == 0 || (n < len(d.free.bySize) && m != n) || (n == len(d.free.bySize) && m < n) ||
				i > 0 && l[i-1] >= start {
				t.Fatalf("list %d holds %d (run length %d) out of place: %v", n, start, m, l)
			}
		}
		listed += len(l)
	}
	if runs := len(d.free.byStart); len(d.free.byEnd) != runs || listed != runs || d.free.total != nfree {
		t.Fatalf("%d free runs of %d blocks, but %d ends, %d listed, %d counted", runs, nfree, len(d.free.byEnd), listed, d.free.total)
	}
	nlimbo := 0
	for _, e := range d.limbo {
		claim(e, limbo)
		nlimbo += e.n
	}
	live := 0
	for pid, p := range d.pages {
		if p.start >= 0 {
			claim(extent{p.start, d.blocks(p.n)}, int64(pid))
			live += d.blocks(p.n)
		}
	}
	if b := slices.Index(owner, none); b >= 0 {
		t.Fatalf("block %d is neither free, in limbo nor elected", b)
	}
	if nlimbo != d.limboN || live != d.live {
		t.Fatalf("limbo %d and live %d blocks, counted %d and %d", nlimbo, live, d.limboN, d.live)
	}
	if d.nblocks > max(d.bound(d.live), floor) {
		t.Fatalf("%d blocks for %d live: over the bound %d (limbo %d, free %d in %d runs, floor %d)", d.nblocks, d.live, d.bound(d.live), d.limboN, d.free.total, len(d.free.byStart), floor)
	}
}

// freeAt reports whether block b is free.
func freeAt(d *FileDisk, b int) bool {
	for start, n := range d.free.byStart {
		if start <= b && b < start+n {
			return true
		}
	}
	return false
}

// inLimbo reports whether an extent starting at block b is in limbo.
func inLimbo(d *FileDisk, b int) bool {
	return slices.ContainsFunc(d.limbo, func(e extent) bool { return e.start == b })
}

// TestFileDiskLimbo pins the reuse rule: the extent of a durable image is
// held back until a Sync has covered its replacement; the extent of an
// image written since the last Sync is free at once.
func TestFileDiskLimbo(t *testing.T) {
	d, err := OpenFileDisk(fsys.OS, filepath.Join(t.TempDir(), "pages.db"), 512)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	write := func(fill byte) int {
		t.Helper()
		if err := d.Write(9, mkImage(9, fill, 64)); err != nil {
			t.Fatalf("write: %v", err)
		}
		checkBlocks(t, d, 0)
		return d.pages[9].start
	}
	s1 := write('a')
	s2 := write('b') // 'a' was never synced
	if len(d.limbo) != 0 || !freeAt(d, s1) {
		t.Fatalf("unsynced superseded extent not free: free=%v limbo=%v", d.free.byStart, d.limbo)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	s3 := write('c') // 'b' is durable
	if s3 == s2 || !inLimbo(d, s2) || freeAt(d, s2) {
		t.Fatalf("durable superseded extent %d not in limbo: free=%v limbo=%v", s2, d.free.byStart, d.limbo)
	}
	s4 := write('d') // 'c' is not; 'b' stays the durable image
	if s4 == s2 || !inLimbo(d, s2) || !freeAt(d, s3) {
		t.Fatalf("after a second unsynced write: free=%v limbo=%v", d.free.byStart, d.limbo)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if len(d.limbo) != 0 || !freeAt(d, s2) {
		t.Fatalf("sync did not release limbo: free=%v limbo=%v", d.free.byStart, d.limbo)
	}
	st := d.Stats()
	if st.Blocks != int64(d.nblocks) || st.FreeBlocks != int64(d.free.total) || st.LimboBlocks != 0 || st.DemandSyncs != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFileDiskDemandSyncBoundsFile rewrites durable pages without ever
// calling Sync: the file stops growing at its bound because Write fsyncs
// for itself. First writes never pay that.
func TestFileDiskDemandSyncBoundsFile(t *testing.T) {
	d, err := OpenFileDisk(fsys.OS, filepath.Join(t.TempDir(), "pages.db"), 256)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	const pages = 200
	for pid := PageID(1); pid <= pages; pid++ {
		if err := d.Write(pid, mkImage(pid, 'a', 50)); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	// A 90-byte frame takes three 32-byte blocks.
	if st := d.Stats(); st.DemandSyncs != 0 || st.Blocks != 1+3*pages || st.FreeBlocks != 0 {
		t.Fatalf("set-up writes: %+v, want no demand sync and one three-block extent per page", st)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	for round := 0; round < 3; round++ {
		for pid := PageID(1); pid <= pages; pid++ {
			if err := d.Write(pid, mkImage(pid, byte('b'+round), 50)); err != nil {
				t.Fatalf("write: %v", err)
			}
			checkBlocks(t, d, 0)
		}
	}
	st := d.Stats()
	if st.DemandSyncs == 0 || st.Fsyncs != st.DemandSyncs+1 {
		t.Fatalf("stats %+v: want demand syncs, counted as fsyncs", st)
	}
	for pid := PageID(1); pid <= pages; pid++ {
		if got, ok, err := d.Read(pid); err != nil || !ok || !bytes.Equal(got, mkImage(pid, 'd', 50)) {
			t.Fatalf("read %d: ok=%v err=%v", pid, ok, err)
		}
	}
}

// TestFileDiskShrinkingWriteKeepsBound rewrites durable pages with images
// of a quarter of their blocks, never calling Sync: each write takes the
// bound down as it lowers the live blocks, and a write that extends the
// file must leave it within the bound the write itself leaves.
func TestFileDiskShrinkingWriteKeepsBound(t *testing.T) {
	d, err := OpenFileDisk(fsys.OS, filepath.Join(t.TempDir(), "pages.db"), 256)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	const pages = 200
	for pid := PageID(1); pid <= pages; pid++ {
		if err := d.Write(pid, mkImage(pid, 'a', 200)); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	// A 240-byte frame takes eight 32-byte blocks, a 50-byte one two.
	for pid := PageID(1); pid <= pages; pid++ {
		had := d.nblocks
		if err := d.Write(pid, mkImage(pid, 'b', 10)); err != nil {
			t.Fatalf("write: %v", err)
		}
		checkBlocks(t, d, had)
	}
	if st := d.Stats(); st.DemandSyncs == 0 {
		t.Fatalf("stats %+v: want a demand sync", st)
	}
}

func TestFileDiskPartialWriteKeepsPriorImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(fsys.OS, path, 512)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	prior := mkImage(5, 'p', 120)
	if err := d.Write(5, prior); err != nil {
		t.Fatalf("write: %v", err)
	}
	torn := mkImage(5, 'q', 120)
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.97, 1.0} { // 0.1 cuts the frame header
		if err := d.writePartial(5, torn, frac); err != nil {
			t.Fatalf("partial %v: %v", frac, err)
		}
		got, ok, err := d.Read(5)
		if err != nil || !ok || !bytes.Equal(got, prior) {
			t.Fatalf("after tear %v: ok=%v err=%v (want prior image)", frac, ok, err)
		}
	}
	if d.Stats().PartialWrites == 0 {
		t.Fatalf("no partial writes counted")
	}
	d.Close()

	// A crash after the torn write rescans and still elects the prior
	// image: the partial frame fails its checksum.
	d2, err := OpenFileDisk(fsys.OS, path, 512)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, ok, err := d2.Read(5)
	if err != nil || !ok || !bytes.Equal(got, prior) {
		t.Fatalf("post-crash read: ok=%v err=%v (want prior image)", ok, err)
	}
	d2.Close()

	// A torn FIRST write (no prior version) reads as never-written.
	path2 := filepath.Join(t.TempDir(), "pages2.db")
	d3, err := OpenFileDisk(fsys.OS, path2, 512)
	if err != nil {
		t.Fatalf("open 2: %v", err)
	}
	if err := d3.writePartial(7, mkImage(7, 'z', 80), 0.6); err != nil {
		t.Fatalf("partial first write: %v", err)
	}
	if _, ok, err := d3.Read(7); ok || err != nil {
		t.Fatalf("torn first write visible: ok=%v err=%v", ok, err)
	}
	d3.Close()
	d4, err := OpenFileDisk(fsys.OS, path2, 512)
	if err != nil {
		t.Fatalf("reopen 2: %v", err)
	}
	defer d4.Close()
	if _, ok, err := d4.Read(7); ok || err != nil {
		t.Fatalf("torn first write visible after rescan: ok=%v err=%v", ok, err)
	}
}

// onBoth runs fn on the operating system's file system, in a temporary
// directory, and on a fresh in-memory one.
func onBoth(t *testing.T, fn func(t *testing.T, fs fsys.FS, dir string)) {
	t.Run("os", func(t *testing.T) { fn(t, fsys.OS, t.TempDir()) })
	t.Run("mem", func(t *testing.T) { fn(t, fsys.NewMem(), ".") })
}

// TestFileDiskFaultyTornMapsToPartialWrite checks the injector plumbing:
// a fault.Torn on disk.write produces a genuine partial pwrite (not just
// a dropped write) on both file systems, while the page stays readable at
// its prior version, then and after a reopen.
func TestFileDiskFaultyTornMapsToPartialWrite(t *testing.T) {
	onBoth(t, testTornWrite)
}

func testTornWrite(t *testing.T, fs fsys.FS, dir string) {
	path := filepath.Join(dir, "pages.db")
	d, err := OpenFileDisk(fs, path, 512)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	inj := fault.New(42)
	d.SetInjector(inj)
	fd := d
	prior := mkImage(2, 'm', 90)
	if err := d.Write(2, prior); err != nil {
		t.Fatalf("write: %v", err)
	}
	before, err := fsys.Size(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm(FPDiskWrite, fault.Spec{Kind: fault.Torn})
	err = d.Write(2, mkImage(2, 'n', 90))
	if err == nil || !fault.IsTorn(err) {
		t.Fatalf("torn write error = %v", err)
	}
	if fd.Stats().PartialWrites != 1 {
		t.Fatalf("partial writes = %d, want 1 (real bytes must land)", fd.Stats().PartialWrites)
	}
	got, ok, rerr := d.Read(2)
	if rerr != nil || !ok || !bytes.Equal(got, prior) {
		t.Fatalf("read after torn write: ok=%v err=%v (want prior image)", ok, rerr)
	}
	if size, err := fsys.Size(fs, path); err != nil || size <= before {
		t.Fatalf("file is %d bytes (%v), %d before: the torn frame never reached it", size, err, before)
	}
	d2, err := OpenFileDisk(fs, path, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if got, ok, err := d2.Read(2); err != nil || !ok || !bytes.Equal(got, prior) {
		t.Fatalf("read after reopen: ok=%v err=%v (want prior image)", ok, err)
	}
}

func TestFileDiskImageTooLarge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(fsys.OS, path, 256)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	if err := d.Write(1, make([]byte, 256)); err == nil {
		t.Fatalf("oversized image accepted")
	}
	if err := d.Write(1, make([]byte, 256-frameHdrLen)); err != nil {
		t.Fatalf("max-size image rejected: %v", err)
	}
}

func TestFileDiskHeaderCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(fsys.OS, path, 512)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := d.Write(1, mkImage(1, 'h', 40)); err != nil {
		t.Fatalf("write: %v", err)
	}
	d.Close()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("raw open: %v", err)
	}
	if _, err := f.WriteAt([]byte{0xff}, 3); err != nil {
		t.Fatalf("corrupt header: %v", err)
	}
	f.Close()
	if _, err := OpenFileDisk(fsys.OS, path, 512); !errors.Is(err, ErrTornPage) {
		t.Fatalf("corrupt header open: %v, want ErrTornPage", err)
	}
}

// recFile stands between a FileDisk and its file. It keeps the bytes the
// last Sync made durable and every pwrite since, which is what a crash
// image is built from, and reports a pwrite into a block of an image that
// Sync covered — the one thing careful replacement must never do.
type recFile struct {
	fsys.File
	fs      fsys.FS
	t       *testing.T
	d       *FileDisk
	synced  []byte
	log     []recWrite
	guarded map[int]bool
	failing bool
}

// recWrite is a pwrite of b at off, or with trunc a truncation to off.
type recWrite struct {
	off   int64
	b     []byte
	trunc bool
}

// record wraps d's file in fs. What the file holds now counts as durable.
func record(t *testing.T, fs fsys.FS, d *FileDisk) *recFile {
	r := &recFile{File: d.f, fs: fs, t: t, d: d}
	r.mark()
	d.f = r
	return r
}

func (r *recFile) mark() {
	var err error
	if r.synced, err = fsys.ReadFile(r.fs, r.d.path); err != nil {
		r.t.Fatalf("read page file: %v", err)
	}
	r.log = nil
	r.guarded = make(map[int]bool)
	for _, p := range r.d.pages {
		for b := p.start; p.start >= 0 && b < p.start+r.d.blocks(p.n); b++ {
			r.guarded[b] = true
		}
	}
}

func (r *recFile) WriteAt(b []byte, off int64) (int, error) {
	if r.failing {
		return 0, errors.New("injected pwrite failure")
	}
	bs := int64(r.d.block)
	for blk := off / bs; len(b) > 0 && blk*bs < off+int64(len(b)); blk++ {
		if r.guarded[int(blk)] {
			r.t.Errorf("pwrite into block %d, which holds an image the last Sync covered", blk)
		}
	}
	r.log = append(r.log, recWrite{off: off, b: bytes.Clone(b)})
	return r.File.WriteAt(b, off)
}

func (r *recFile) Truncate(size int64) error {
	r.log = append(r.log, recWrite{off: size, trunc: true})
	return r.File.Truncate(size)
}

// Sync is called with d.mu held, by Sync, by a Write's demand sync or by
// Compact; the model needs no real fsync.
func (r *recFile) Sync() error {
	r.mark()
	return nil
}

// crashImage is the last synced bytes plus a random subset of the later
// pwrites, any of them possibly cut short, and truncations.
func (r *recFile) crashImage(rng *rand.Rand) []byte {
	img := bytes.Clone(r.synced)
	for _, w := range r.log {
		if rng.Intn(2) == 0 {
			continue
		}
		if w.trunc {
			img = img[:min(int64(len(img)), w.off)]
			continue
		}
		b := w.b
		if rng.Intn(4) == 0 {
			b = b[:rng.Intn(len(b))]
		}
		if need := int(w.off) + len(b); need > len(img) {
			img = append(img, make([]byte, need-len(img))...)
		}
		copy(img[w.off:], b)
	}
	return img
}

func TestFileDiskFailedWriteFreesSlot(t *testing.T) {
	d, err := OpenFileDisk(fsys.OS, filepath.Join(t.TempDir(), "pages.db"), 512)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	prior := mkImage(4, 'p', 90)
	if err := d.Write(4, prior); err != nil {
		t.Fatalf("write: %v", err)
	}
	r := record(t, fsys.OS, d)
	r.failing = true
	if err := d.Write(4, mkImage(4, 'q', 90)); err == nil {
		t.Fatalf("write through a failing file succeeded")
	}
	if err := d.Write(5, mkImage(5, 'q', 90)); err == nil {
		t.Fatalf("first write through a failing file succeeded")
	}
	r.failing = false
	checkBlocks(t, d, 0)
	if got, ok, err := d.Read(4); err != nil || !ok || !bytes.Equal(got, prior) {
		t.Fatalf("read after failed write: ok=%v err=%v (want prior image)", ok, err)
	}
	if _, ok, err := d.Read(5); ok || err != nil {
		t.Fatalf("failed first write visible: ok=%v err=%v", ok, err)
	}
	// Every 130-byte frame takes five 32-byte blocks: the header's, the
	// prior image's five and the failed target's five.
	if st := d.Stats(); st.Blocks != 11 || st.FreeBlocks != 5 {
		t.Fatalf("stats %+v: want the failed target back on the free list, and reused", st)
	}
}

// landedFailFile reports every WriteAt failed after writing all of its
// bytes, as a pwrite may whose data reached the file before the error.
type landedFailFile struct{ fsys.File }

func (f landedFailFile) WriteAt(b []byte, off int64) (int, error) {
	if _, err := f.File.WriteAt(b, off); err != nil {
		return 0, err
	}
	return 0, errors.New("pwrite failed after its bytes landed")
}

// TestFileDiskFailedWriteSpendsSeq: a Write whose pwrite fails after its
// frame landed whole leaves an intact frame in the extent it gives back.
// The page's next write must take a higher sequence number than that
// frame's: with the same one, a reopen elects whichever of the two frames
// lies first in the file — here the failed write's, the older content.
func TestFileDiskFailedWriteSpendsSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(fsys.OS, path, 512)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Page 6's first image, rewritten and synced, leaves a two-block hole
	// at the file's front, which the failed write takes.
	for _, w := range []struct {
		pid  PageID
		fill byte
		n    int
	}{{6, 'x', 10}, {4, 'a', 90}, {6, 'y', 10}} {
		if err := d.Write(w.pid, mkImage(w.pid, w.fill, w.n)); err != nil {
			t.Fatal(err)
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	f := d.f
	d.f = landedFailFile{f}
	if err := d.Write(4, mkImage(4, 'b', 10)); err == nil {
		t.Fatal("a write through a failing file succeeded")
	}
	d.f = f
	// The retry's frame outgrows the failed one's extent, so it lands at
	// the file's end and leaves that frame intact.
	want := mkImage(4, 'c', 200)
	if err := d.Write(4, want); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = OpenFileDisk(fsys.OS, path, 512)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d.Close()
	if got, ok, err := d.Read(4); err != nil || !ok || !bytes.Equal(got, want) {
		t.Fatalf("after reopen: %d bytes, ok=%v err=%v; want the retry's %d-byte image", len(got), ok, err, len(want))
	}
}

// legacyHeader builds the header of a page file of format version 1, 2
// or 3: no salt, a checksum over its first 16 bytes.
func legacyHeader(version, slotSize uint32) []byte {
	hdr := make([]byte, fdHdrLen)
	copy(hdr, fdMagic)
	binary.LittleEndian.PutUint32(hdr[8:], version)
	binary.LittleEndian.PutUint32(hdr[12:], slotSize)
	binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(hdr[:16], fdCRCTable))
	return hdr
}

func TestFileDiskOpenRejects(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		hdr  []byte
		want error
	}{
		{"v1", legacyHeader(1, 8192), ErrPageFileVersion},
		{"v2", legacyHeader(2, 8192), ErrPageFileVersion},
		{"v3", legacyHeader(3, 8192), ErrPageFileVersion},
		{"v4", fileHeader(4, 8192, 7), ErrPageFileVersion},
		{"v5", fileHeader(5, 8192, 7), ErrPageFileVersion},
		{"v7", fileHeader(7, 8192, 7), ErrPageFileVersion},
		{"v3-in-v4-layout", fileHeader(3, 8192, 7), ErrTornPage},
		{"slot-small", fileHeader(fdVersion, minSlotSize-1, 7), ErrSlotSize},
		{"slot-huge", fileHeader(fdVersion, 1<<31, 7), ErrSlotSize},
	} {
		path := filepath.Join(dir, c.name)
		// Bytes after the header: a huge slot size must not size a buffer.
		if err := os.WriteFile(path, append(c.hdr, make([]byte, 100)...), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFileDisk(fsys.OS, path, 0); !errors.Is(err, c.want) {
			t.Errorf("%s: open: %v, want %v", c.name, err, c.want)
		}
	}
	for _, size := range []int{minSlotSize - 1, MaxSlotSize + 1} {
		if _, err := OpenFileDisk(fsys.OS, filepath.Join(dir, "new"), size); !errors.Is(err, ErrSlotSize) {
			t.Errorf("create with slot size %d: %v, want ErrSlotSize", size, err)
		}
	}
}

// TestFileDiskRefusesVersion2: a page file a version-2 or version-3 build
// wrote — pages under a header whose magic and checksum hold — opens with
// ErrPageFileVersion and is left byte for byte as it was: the node images
// of version 2 hold records with the fields of both levels, and version 3
// gave every image a whole slot and checksummed frame headers unsalted;
// this build reads neither.
func TestFileDiskRefusesVersion2(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store-1.pages")
	d, err := OpenFileDisk(fsys.OS, path, 128)
	if err != nil {
		t.Fatal(err)
	}
	for pid := PageID(1); pid <= 3; pid++ {
		if err := d.Write(pid, mkImage(pid, byte(pid), 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{2, 3} {
		old := append(legacyHeader(v, 128), b[fdHdrLen:]...)
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if d, err := OpenFileDisk(fsys.OS, path, 0); !errors.Is(err, ErrPageFileVersion) {
			if d != nil {
				d.Close()
			}
			t.Fatalf("open of a version-%d file: %v, want ErrPageFileVersion", v, err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
			t.Fatalf("the version-%d file changed by the open (%v)", v, err)
		}
	}
}

// TestFileDiskRefusesVersion4: a page file of format version 4 — blocks
// of a quarter slot under a salted header whose checksum holds — opens
// with ErrPageFileVersion and is left byte for byte as it was: the version
// fixes the block size, and this build reads only its own.
func TestFileDiskRefusesVersion4(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store-1.pages")
	d, err := OpenFileDisk(fsys.OS, path, 512)
	if err != nil {
		t.Fatal(err)
	}
	for pid := PageID(1); pid <= 3; pid++ {
		if err := d.Write(pid, mkImage(pid, byte(pid), 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	salt := binary.LittleEndian.Uint32(readFrame(t, d, 0)[16:])
	d.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := append(fileHeader(4, 512, salt), b[fdHdrLen:]...)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if d, err := OpenFileDisk(fsys.OS, path, 0); !errors.Is(err, ErrPageFileVersion) {
		if d != nil {
			d.Close()
		}
		t.Fatalf("open of a version-4 file: %v, want ErrPageFileVersion", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("the version-4 file changed by the open (%v)", err)
	}
}

// TestFileDiskCompact: after rewrites and a sync have left every other
// extent free, Compact moves the images at the file's end into those
// holes and truncates: the census finds no free and no stale block, the
// file is (1 + live blocks) × B long, every page reads back its bytes,
// then and after a reopen, and a second Compact writes nothing.
func TestFileDiskCompact(t *testing.T) {
	onBoth(t, func(t *testing.T, fs fsys.FS, dir string) {
		path := filepath.Join(dir, "pages.db")
		d, err := OpenFileDisk(fs, path, 512) // 32-byte blocks
		if err != nil {
			t.Fatal(err)
		}
		const pages = 40
		want := map[PageID][]byte{}
		write := func(pid PageID, fill byte) {
			t.Helper()
			// Frames of 5 and 10 blocks: a hole of 10 takes either two of
			// 5 or one of 10.
			want[pid] = mkImage(pid, fill, 100+180*int(pid%2))
			if err := d.Write(pid, want[pid]); err != nil {
				t.Fatal(err)
			}
		}
		for pid := PageID(1); pid <= pages; pid++ {
			write(pid, 'a')
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		for pid := PageID(1); pid <= pages; pid += 3 {
			write(pid, 'b')
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		before := d.Stats()
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		checkBlocks(t, d, 0)
		after := d.Stats()
		if after.PagesWritten == before.PagesWritten || after.FreeBlocks != 0 || after.LimboBlocks != 0 || after.Blocks != int64(1+d.live) {
			t.Fatalf("after Compact %+v (before %+v), live %d: want images moved and no free block", after, before, d.live)
		}
		if err := d.Compact(); err != nil || d.Stats().PagesWritten != after.PagesWritten {
			t.Fatalf("second Compact: %v, %d pages written (%d before)", err, d.Stats().PagesWritten, after.PagesWritten)
		}
		d.Close()
		c, err := CensusPageFile(fs, path)
		if err != nil {
			t.Fatal(err)
		}
		if c.Free != 0 || c.Stale != 0 || c.Bytes != int64(c.Blocks*c.BlockSize) || c.Blocks != int(after.Blocks) {
			t.Fatalf("census after Compact %+v, want no free or stale block and %d blocks", c, after.Blocks)
		}
		if d, err = OpenFileDisk(fs, path, 0); err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		for pid, img := range want {
			if got, ok, err := d.Read(pid); err != nil || !ok || !bytes.Equal(got, img) {
				t.Fatalf("page %d after Compact and reopen: ok=%v err=%v", pid, ok, err)
			}
		}
		checkBlocks(t, d, 0)
	})
}

// TestFileDiskCompactScrubsUnfilledHoles: a page rewritten with a larger
// image leaves its old frame in a hole no image fits, so Compact moves
// nothing; the closed file still holds no stale frame, and the page
// reads its newer image after a reopen.
func TestFileDiskCompactScrubsUnfilledHoles(t *testing.T) {
	onBoth(t, func(t *testing.T, fs fsys.FS, dir string) {
		path := filepath.Join(dir, "pages.db")
		d, err := OpenFileDisk(fs, path, 512) // 32-byte blocks
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{20, 200} { // 2 blocks, then 8
			if err := d.Write(1, mkImage(1, byte(n), n)); err != nil {
				t.Fatal(err)
			}
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		d.Close()
		c, err := CensusPageFile(fs, path)
		if err != nil {
			t.Fatal(err)
		}
		if c.Stale != 0 || c.Free != 2 || c.Blocks != 1+2+8 {
			t.Fatalf("census after Compact %+v, want the 2-block hole free and no stale block", c)
		}
		if d, err = OpenFileDisk(fs, path, 0); err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if got, ok, err := d.Read(1); err != nil || !ok || !bytes.Equal(got, mkImage(1, 200, 200)) {
			t.Fatalf("page 1 after Compact and reopen: ok=%v err=%v", ok, err)
		}
	})
}

// fuzzSeedFile writes pages of 1 to 4 blocks to a page file on fs,
// syncing now and then and tearing a write after each sync, and returns
// the file's bytes.
func fuzzSeedFile(f *testing.F, fs fsys.FS, slotSize int) []byte {
	d, err := OpenFileDisk(fs, "seed.db", slotSize)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		pid := PageID(1 + i%5)
		n := 30 + i
		if slotSize > 1024 {
			n = (i*slotSize/7)%(slotSize-frameHdrLen) + 1
		}
		if err := d.Write(pid, mkImage(pid, byte(i), n)); err != nil {
			f.Fatal(err)
		}
		if i%4 == 3 {
			if err := d.Sync(); err != nil {
				f.Fatal(err)
			}
			if err := d.writePartial(pid, mkImage(pid, 'z', min(2*n, slotSize-frameHdrLen)), 0.7); err != nil {
				f.Fatal(err)
			}
		}
	}
	d.Close()
	b, err := fsys.ReadFile(fs, "seed.db")
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// FuzzOpenFileDisk feeds OpenFileDisk arbitrary bytes, on an in-memory
// file system. It must return one of its sentinel errors or a disk whose
// blocks are partitioned, every elected page reads back checksum-clean,
// and a write of a small and of a largest image works. It must never
// panic or hang; what it allocates is bounded by the file's size because
// a slot size from the header is range-checked before use and the scan
// buffer is capped at the file's length. Its seeds include a file of
// 16 KiB slots, whose frames take 1 to 4 blocks.
func FuzzOpenFileDisk(f *testing.F) {
	f.Add([]byte{})
	f.Add(legacyHeader(1, 8192))
	f.Add(fileHeader(fdVersion, 1<<20, 7))
	f.Add(append(fileHeader(fdVersion, 128, 7), make([]byte, 300)...))
	valid := fuzzSeedFile(f, fsys.NewMem(), 128)
	f.Add(valid)
	f.Add(valid[:len(valid)-50])
	valid = fuzzSeedFile(f, fsys.NewMem(), 16<<10)
	f.Add(valid)
	f.Add(valid[:len(valid)-5000])
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := fsys.NewMem()
		if err := fsys.WriteFile(fs, "pages.db", data); err != nil {
			t.Fatal(err)
		}
		d, err := OpenFileDisk(fs, "pages.db", 0)
		if err != nil {
			if !errors.Is(err, ErrTornPage) && !errors.Is(err, ErrPageFileVersion) && !errors.Is(err, ErrSlotSize) {
				t.Fatalf("open: %v, want a sentinel error", err)
			}
			return
		}
		defer d.Close()
		checkBlocks(t, d, d.nblocks)
		for pid, p := range d.pages {
			_, ok, err := d.Read(pid)
			if lost := p.start < 0; lost != errors.Is(err, ErrTornPage) || ok == lost {
				t.Fatalf("page %d (block %d): ok=%v err=%v", pid, p.start, ok, err)
			}
		}
		for i, img := range [][]byte{mkImage(1, 'w', 8), mkImage(2, 'w', d.Payload())} {
			pid := PageID(1 + i)
			if err := d.Write(pid, img); err != nil {
				t.Fatalf("write: %v", err)
			}
			if got, ok, err := d.Read(pid); err != nil || !ok || !bytes.Equal(got, img) {
				t.Fatalf("read back: ok=%v err=%v", ok, err)
			}
			checkBlocks(t, d, d.nblocks)
		}
	})
}

// TestFileDiskCrashModel drives the block allocator with seeded sequences
// of Write, WritePartial, Sync, Compact and crash — half the compactions
// crash among their moves — and checks it against a model that knows only
// what careful replacement promises: after a crash every page reads as one
// of its completely written versions no older than the one the last Sync
// covered (a page never synced may be absent), and never as ErrTornPage.
// recFile checks on every pwrite that no block is reused before a Sync has
// covered the image that replaced it; a crash keeps or drops each
// truncation as it does each pwrite. A compaction that completes leaves
// the file ending at its highest image.
//
// It runs with 256-byte slots on the operating system's file system and
// on an in-memory one, and with 16 KiB slots on an in-memory one: frames
// of 1 to 4 blocks either way, of 64 bytes or of 4 KiB.
func TestFileDiskCrashModel(t *testing.T) {
	onBoth(t, func(t *testing.T, fs fsys.FS, dir string) { testFileDiskCrashModel(t, fs, dir, 256) })
	t.Run("mem-16k", func(t *testing.T) { testFileDiskCrashModel(t, fsys.NewMem(), ".", 16<<10) })
}

func testFileDiskCrashModel(t *testing.T, fs fsys.FS, root string, slotSize int) {
	// Limbo holds at most one extent per page, so only a file of more
	// than 8/7 * 64 largest frames of live blocks can reach its bound and
	// sync on demand.
	const (
		pages = 200
		steps = 2500
	)
	demandSyncs := int64(0)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := filepath.Join(root, fmt.Sprint(seed))
		if err := fs.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		d, err := OpenFileDisk(fs, filepath.Join(dir, "pages-0.db"), slotSize)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		r := record(t, fs, d)
		crashes := 0
		cur := map[PageID][]byte{}     // what Read must return now
		durable := map[PageID][]byte{} // what the last Sync covered
		// since holds every image handed to Write or WritePartial after
		// the last Sync; a torn write that lands whole is a version too.
		since := map[PageID][][]byte{}
		randImage := func() []byte {
			img := make([]byte, 1+rng.Intn(slotSize-frameHdrLen))
			rng.Read(img)
			return img
		}
		synced := func() {
			clear(since)
			clear(durable)
			for pid, img := range cur {
				durable[pid] = img
			}
		}
		syncs := d.Stats().Fsyncs
		compactions, partials := 0, int64(0)
		crash := func(step int) {
			crashes++
			path := filepath.Join(dir, fmt.Sprintf("pages-%d.db", crashes))
			if err := fsys.WriteFile(fs, path, r.crashImage(rng)); err != nil {
				t.Fatal(err)
			}
			demandSyncs += d.Stats().DemandSyncs
			partials += d.Stats().PartialWrites
			d.Close()
			if d, err = OpenFileDisk(fs, path, slotSize); err != nil {
				t.Fatalf("seed %d step %d: reopen: %v", seed, step, err)
			}
			for pid := PageID(1); pid <= pages; pid++ {
				got, ok, err := d.Read(pid)
				if err != nil {
					t.Fatalf("seed %d step %d: page %d after crash: %v", seed, step, pid, err)
				}
				legal := !ok && durable[pid] == nil
				for _, img := range append(since[pid], durable[pid]) {
					legal = legal || ok && img != nil && bytes.Equal(got, img)
				}
				if !legal {
					t.Fatalf("seed %d step %d: page %d after crash: ok=%v, not a version written since the last sync (had durable: %v)",
						seed, step, pid, ok, durable[pid] != nil)
				}
				if delete(cur, pid); ok {
					cur[pid] = got
				}
			}
			r = record(t, fs, d)
			syncs = 0
			synced()
		}
		for step := 0; step < steps; step++ {
			pid := PageID(1 + rng.Intn(pages))
			had := d.nblocks
			switch op := rng.Intn(1000); {
			case op < 750:
				img := randImage()
				if err := d.Write(pid, img); err != nil {
					t.Fatalf("seed %d step %d: write: %v", seed, step, err)
				}
				if n := d.Stats().Fsyncs; n != syncs { // demand sync, before the pwrite
					syncs = n
					synced()
				}
				cur[pid] = img
				since[pid] = append(since[pid], img)
			case op < 990:
				img := randImage()
				since[pid] = append(since[pid], img)
				if err := d.writePartial(pid, img, rng.Float64()); err != nil {
					t.Fatalf("seed %d step %d: partial: %v", seed, step, err)
				}
				if n := d.Stats().Fsyncs; n != syncs {
					syncs = n
					synced()
					since[pid] = append(since[pid], img)
				}
			case op < 992:
				if err := d.Sync(); err != nil {
					t.Fatalf("seed %d step %d: sync: %v", seed, step, err)
				}
				syncs = d.Stats().Fsyncs
				synced()
			case op < 997:
				// A move rewrites a page's current image, a version the
				// model already allows.
				compactions++
				inj := fault.New(seed)
				if rng.Intn(2) == 0 {
					inj.Arm(FPDiskCompact, fault.Spec{Crash: true, After: 1 + int64(rng.Intn(8))})
				}
				d.SetInjector(inj)
				err := d.Compact()
				if inj.Crashed() {
					crash(step)
					had = d.nblocks
					break
				}
				if err != nil {
					t.Fatalf("seed %d step %d: compact: %v", seed, step, err)
				}
				d.SetInjector(nil)
				if n := d.Stats().Fsyncs; n != syncs {
					syncs = n
					synced()
				}
				end := 1
				for _, p := range d.pages {
					if p.start >= 0 {
						end = max(end, p.start+d.blocks(p.n))
					}
				}
				if d.nblocks != end {
					t.Fatalf("seed %d step %d: compacted file has %d blocks, its highest image ends at %d", seed, step, d.nblocks, end)
				}
			default:
				crash(step)
				had = d.nblocks
			}
			checkBlocks(t, d, had)
			if got, ok, err := d.Read(pid); err != nil || ok != (cur[pid] != nil) || !bytes.Equal(got, cur[pid]) {
				t.Fatalf("seed %d step %d: page %d: ok=%v err=%v, want the last complete write", seed, step, pid, ok, err)
			}
		}
		st := d.Stats()
		if partials += st.PartialWrites; crashes == 0 || compactions == 0 || partials == 0 {
			t.Fatalf("seed %d: %d crashes, %d compactions, %d partial writes: sequence exercised too little", seed, crashes, compactions, partials)
		}
		demandSyncs += st.DemandSyncs
		d.Close()
	}
	t.Logf("%d demand syncs", demandSyncs)
	if demandSyncs == 0 {
		t.Fatalf("no sequence reached the size bound")
	}
}

// TestFileDiskReadDuringDemandSync reads every page from several
// goroutines while a writer overwrites them without ever calling Sync, so
// that its writes fsync on demand and hand out limbo slots under the
// readers. A reader must always see a whole image of the page it asked
// for.
func TestFileDiskReadDuringDemandSync(t *testing.T) {
	d, err := OpenFileDisk(fsys.OS, filepath.Join(t.TempDir(), "pages.db"), 256)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d.Close()
	const pages = 160
	for pid := PageID(1); pid <= pages; pid++ {
		if err := d.Write(pid, mkImage(pid, 0, 100)); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pid := PageID(1 + g); ; pid = 1 + (pid+2)%pages {
				select {
				case <-stop:
					return
				default:
				}
				img, ok, err := d.Read(pid)
				if err != nil || !ok || len(img) != 100 || !bytes.Equal(img, mkImage(pid, img[0]^byte(pid), 100)) {
					t.Errorf("read %d: ok=%v err=%v len=%d", pid, ok, err, len(img))
					return
				}
			}
		}(g)
	}
	for round := 1; d.Stats().DemandSyncs < 3 && round < 100; round++ {
		for pid := PageID(1); pid <= pages; pid++ {
			if err := d.Write(pid, mkImage(pid, byte(round), 100)); err != nil {
				t.Errorf("write: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if st := d.Stats(); st.DemandSyncs < 3 {
		t.Fatalf("stats %+v: writer never had to sync on demand", st)
	}
	checkBlocks(t, d, 0)
}

// TestCensusPageFile: a read-only scan of a page file counts its blocks,
// its pages with their image lengths and extents, its free blocks and its
// stale ones (the synced images that newer writes superseded), and leaves
// the file's bytes as they were.
func TestCensusPageFile(t *testing.T) {
	fs := fsys.NewMem()
	d, err := OpenFileDisk(fs, "pages", 512)
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for pid := PageID(1); pid <= 10; pid++ {
		if err := d.Write(pid, mkImage(pid, 'A', 64+int(pid))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	for pid := PageID(1); pid <= 10; pid++ {
		n := 64 + int(pid)
		if pid <= 3 {
			n = 200
			if err := d.Write(pid, mkImage(pid, 'B', n)); err != nil {
				t.Fatal(err)
			}
		}
		want = append(want, n)
	}
	blocks := int(d.Stats().Blocks)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := fsys.ReadFile(fs, "pages")
	if err != nil {
		t.Fatal(err)
	}
	c, err := CensusPageFile(fs, "pages")
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(want)
	slices.Sort(c.Images)
	// Frames of 105 to 114 bytes take four 32-byte blocks, of 240 eight.
	extents := make([]int, 17)
	extents[4], extents[8] = 7, 3
	if c.SlotSize != 512 || c.BlockSize != 32 || c.Payload != 512-frameHdrLen || c.Blocks != blocks || c.Bytes != int64(len(before)) ||
		!slices.Equal(c.Images, want) || !slices.Equal(c.Extents, extents) || c.Stale != 3*4 ||
		c.Free+c.Stale+7*4+3*8 != c.Blocks-1 || c.Torn != 0 {
		t.Fatalf("census %+v; want %d blocks of 32 B, images %v, 12 stale blocks", c, blocks, want)
	}
	if after, err := fsys.ReadFile(fs, "pages"); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the census changed the file (err %v)", err)
	}
}
