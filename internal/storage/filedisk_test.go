package storage

import (
	"bytes"
	"errors"
	"fmt"
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
	if _, err := d.f.WriteAt([]byte{0xde, 0xad}, d.slotOff(d.pages[pid].slot)+slotHdrLen+10); err != nil {
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
	mustWrite(1, 'a')
	mustWrite(2, 'a')
	mustSync()
	stale := d.pages[1].slot
	mustWrite(1, 'b')
	mustWrite(2, 'b')
	mustSync()
	// Both first images are now in free slots, intact. Page 1's durable
	// image rots, and its next write (base = 2) is torn after the header;
	// it lands in page 2's old slot, the free list being a stack.
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
	if h, ok := d2.parseHdr(readSlot(t, d2, stale)); !ok || h.pid != 1 || h.seq != 1 {
		t.Fatalf("test set-up: slot %d no longer holds page 1's first image", stale)
	}
	if _, _, err := d2.Read(1); !errors.Is(err, ErrTornPage) {
		t.Fatalf("read with only a stale image left: %v, want ErrTornPage", err)
	}
	if got, ok, err := d2.Read(2); err != nil || !ok || !bytes.Equal(got, mkImage(2, 'b', 100)) {
		t.Fatalf("page 2: ok=%v err=%v", ok, err)
	}
	checkSlots(t, d2, 0)
}

func readSlot(t *testing.T, d *FileDisk, slot int) []byte {
	t.Helper()
	b := make([]byte, d.slotSize)
	n, _ := d.f.ReadAt(b, d.slotOff(slot))
	return b[:n]
}

// checkSlots checks that free, limbo and the elected images partition the
// file's slots, and that the file is no larger than its bound (or than
// floor, the size it was opened at).
func checkSlots(t *testing.T, d *FileDisk, floor int) {
	t.Helper()
	owner := make([]string, d.nslots)
	claim := func(slot int, who string) {
		if slot < 0 || slot >= d.nslots {
			t.Fatalf("%s holds slot %d of %d", who, slot, d.nslots)
		}
		if owner[slot] != "" {
			t.Fatalf("slot %d held by %s and %s", slot, owner[slot], who)
		}
		owner[slot] = who
	}
	for _, s := range d.free {
		claim(s, "free")
	}
	for _, s := range d.limbo {
		claim(s, "limbo")
	}
	for pid, p := range d.pages {
		if p.slot >= 0 {
			claim(p.slot, fmt.Sprintf("page %d", pid))
		}
	}
	for s, who := range owner {
		if who == "" {
			t.Fatalf("slot %d is neither free, in limbo nor elected", s)
		}
	}
	if d.nslots > max(d.bound(), floor) {
		t.Fatalf("%d slots for %d pages: over the bound %d", d.nslots, len(d.pages), d.bound())
	}
}

// TestFileDiskLimbo pins the reuse rule: the slot of a durable image is
// held back until a Sync has covered its replacement; the slot of an
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
		checkSlots(t, d, 0)
		return d.pages[9].slot
	}
	s1 := write('a')
	s2 := write('b') // 'a' was never synced
	if len(d.limbo) != 0 || !slices.Contains(d.free, s1) {
		t.Fatalf("unsynced superseded slot not free: free=%v limbo=%v", d.free, d.limbo)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	s3 := write('c') // 'b' is durable
	if s3 == s2 || !slices.Contains(d.limbo, s2) || slices.Contains(d.free, s2) {
		t.Fatalf("durable superseded slot %d not in limbo: free=%v limbo=%v", s2, d.free, d.limbo)
	}
	s4 := write('d') // 'c' is not; 'b' stays the durable image
	if s4 == s2 || !slices.Contains(d.limbo, s2) || !slices.Contains(d.free, s3) {
		t.Fatalf("after a second unsynced write: free=%v limbo=%v", d.free, d.limbo)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if len(d.limbo) != 0 || !slices.Contains(d.free, s2) {
		t.Fatalf("sync did not release limbo: free=%v limbo=%v", d.free, d.limbo)
	}
	st := d.Stats()
	if st.Slots != int64(d.nslots) || st.FreeSlots != int64(len(d.free)) || st.LimboSlots != 0 || st.DemandSyncs != 0 {
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
	if st := d.Stats(); st.DemandSyncs != 0 || st.Slots != pages {
		t.Fatalf("set-up writes: %+v, want no demand sync and one slot per page", st)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	for round := 0; round < 3; round++ {
		for pid := PageID(1); pid <= pages; pid++ {
			if err := d.Write(pid, mkImage(pid, byte('b'+round), 50)); err != nil {
				t.Fatalf("write: %v", err)
			}
			checkSlots(t, d, 0)
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
	if size, err := fsys.Size(fs, path); err != nil || size <= fdHdrLen+512 {
		t.Fatalf("file is %d bytes (%v): the torn frame never reached it", size, err)
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
	if err := d.Write(1, make([]byte, 256-slotHdrLen)); err != nil {
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
// image is built from, and reports a pwrite into a slot whose image that
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

type recWrite struct {
	off int64
	b   []byte
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
		if p.slot >= 0 {
			r.guarded[p.slot] = true
		}
	}
}

func (r *recFile) WriteAt(b []byte, off int64) (int, error) {
	if r.failing {
		return 0, errors.New("injected pwrite failure")
	}
	if slot := int((off - fdHdrLen) / int64(r.d.slotSize)); r.guarded[slot] {
		r.t.Errorf("pwrite into slot %d, which holds an image the last Sync covered", slot)
	}
	r.log = append(r.log, recWrite{off, bytes.Clone(b)})
	return r.File.WriteAt(b, off)
}

// Sync is called with d.mu held, by Sync or by a Write's demand sync; the
// model needs no real fsync.
func (r *recFile) Sync() error {
	r.mark()
	return nil
}

// crashImage is the last synced bytes plus a random subset of the later
// pwrites, any of them possibly cut short.
func (r *recFile) crashImage(rng *rand.Rand) []byte {
	img := bytes.Clone(r.synced)
	for _, w := range r.log {
		if rng.Intn(2) == 0 {
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
	checkSlots(t, d, 0)
	if got, ok, err := d.Read(4); err != nil || !ok || !bytes.Equal(got, prior) {
		t.Fatalf("read after failed write: ok=%v err=%v (want prior image)", ok, err)
	}
	if _, ok, err := d.Read(5); ok || err != nil {
		t.Fatalf("failed first write visible: ok=%v err=%v", ok, err)
	}
	if st := d.Stats(); st.Slots != 2 || st.FreeSlots != 1 {
		t.Fatalf("stats %+v: want the failed target back on the free list, and reused", st)
	}
}

func TestFileDiskOpenRejects(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		hdr  []byte
		want error
	}{
		{"v1", fileHeader(1, 8192), ErrPageFileVersion},
		{"v2", fileHeader(2, 8192), ErrPageFileVersion},
		{"v4", fileHeader(4, 8192), ErrPageFileVersion},
		{"slot-small", fileHeader(fdVersion, minSlotSize-1), ErrSlotSize},
		{"slot-huge", fileHeader(fdVersion, 1<<31), ErrSlotSize},
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
	for _, size := range []int{minSlotSize - 1, maxSlotSize + 1} {
		if _, err := OpenFileDisk(fsys.OS, filepath.Join(dir, "new"), size); !errors.Is(err, ErrSlotSize) {
			t.Errorf("create with slot size %d: %v, want ErrSlotSize", size, err)
		}
	}
}

// TestFileDiskRefusesVersion2: a page file a version-2 build wrote — pages
// in their slots under a header whose magic and checksum hold — opens with
// ErrPageFileVersion and is left byte for byte as it was: its node images
// hold records with the fields of both levels, which this build does not
// read.
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
	v2 := append(fileHeader(2, 128), b[fdHdrLen:]...)
	if err := os.WriteFile(path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	if d, err := OpenFileDisk(fsys.OS, path, 0); !errors.Is(err, ErrPageFileVersion) {
		if d != nil {
			d.Close()
		}
		t.Fatalf("open of a version-2 file: %v, want ErrPageFileVersion", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("the version-2 file changed by the open (%v)", err)
	}
}

// FuzzOpenFileDisk feeds OpenFileDisk arbitrary bytes. It must return one
// of its sentinel errors or a disk on which the slots are partitioned,
// every elected page reads back checksum-clean and a write works. It must
// never panic or hang; what it allocates is bounded by the file's size
// because a slot size from the header is range-checked before use and the
// scan buffer is capped at the file's length.
func FuzzOpenFileDisk(f *testing.F) {
	f.Add([]byte{})
	f.Add(fileHeader(1, 8192))
	f.Add(fileHeader(fdVersion, 1<<20))
	f.Add(append(fileHeader(fdVersion, 64), make([]byte, 300)...))
	{
		path := filepath.Join(f.TempDir(), "seed.db")
		d, err := OpenFileDisk(fsys.OS, path, 128)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			pid := PageID(1 + i%5)
			if err := d.Write(pid, mkImage(pid, byte(i), 30+i)); err != nil {
				f.Fatal(err)
			}
			if i%4 == 3 {
				if err := d.Sync(); err != nil {
					f.Fatal(err)
				}
				if err := d.writePartial(pid, mkImage(pid, 'z', 60), 0.7); err != nil {
					f.Fatal(err)
				}
			}
		}
		d.Close()
		valid, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(valid)
		f.Add(valid[:len(valid)-50])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "pages.db")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenFileDisk(fsys.OS, path, 0)
		if err != nil {
			if !errors.Is(err, ErrTornPage) && !errors.Is(err, ErrPageFileVersion) && !errors.Is(err, ErrSlotSize) {
				t.Fatalf("open: %v, want a sentinel error", err)
			}
			return
		}
		defer d.Close()
		checkSlots(t, d, d.nslots)
		for pid, p := range d.pages {
			_, ok, err := d.Read(pid)
			if lost := p.slot < 0; lost != errors.Is(err, ErrTornPage) || ok == lost {
				t.Fatalf("page %d (slot %d): ok=%v err=%v", pid, p.slot, ok, err)
			}
		}
		img := mkImage(1, 'w', 8)
		if err := d.Write(1, img); err != nil {
			t.Fatalf("write: %v", err)
		}
		if got, ok, err := d.Read(1); err != nil || !ok || !bytes.Equal(got, img) {
			t.Fatalf("read back: ok=%v err=%v", ok, err)
		}
		checkSlots(t, d, d.nslots)
	})
}

// TestFileDiskCrashModel drives the slot allocator with seeded sequences
// of Write, WritePartial, Sync and crash, and checks it against a model
// that knows only what careful replacement promises: after a crash every
// page reads as one of its completely written versions no older than the
// one the last Sync covered (a page never synced may be absent), and
// never as ErrTornPage. recFile checks on every pwrite that no slot is
// reused before a Sync has covered the image that replaced it.
//
// It runs on the operating system's file system and on an in-memory one.
func TestFileDiskCrashModel(t *testing.T) {
	onBoth(t, testFileDiskCrashModel)
}

func testFileDiskCrashModel(t *testing.T, fs fsys.FS, root string) {
	// Limbo holds at most one slot per page, so only a file of more than
	// 8/7 * 64 pages can reach its bound and sync on demand.
	const (
		pages    = 120
		slotSize = 256
		steps    = 2500
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
		floor, crashes := 0, 0
		cur := map[PageID][]byte{}     // what Read must return now
		durable := map[PageID][]byte{} // what the last Sync covered
		// since holds every image handed to Write or WritePartial after
		// the last Sync; a torn write that lands whole is a version too.
		since := map[PageID][][]byte{}
		randImage := func() []byte {
			img := make([]byte, 1+rng.Intn(slotSize-slotHdrLen))
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
		for step := 0; step < steps; step++ {
			pid := PageID(1 + rng.Intn(pages))
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
			case op < 995:
				if err := d.Sync(); err != nil {
					t.Fatalf("seed %d step %d: sync: %v", seed, step, err)
				}
				syncs = d.Stats().Fsyncs
				synced()
			default:
				crashes++
				path := filepath.Join(dir, fmt.Sprintf("pages-%d.db", crashes))
				if err := fsys.WriteFile(fs, path, r.crashImage(rng)); err != nil {
					t.Fatal(err)
				}
				demandSyncs += d.Stats().DemandSyncs
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
				floor, syncs = d.nslots, 0
				synced()
			}
			checkSlots(t, d, floor)
			if got, ok, err := d.Read(pid); err != nil || ok != (cur[pid] != nil) || !bytes.Equal(got, cur[pid]) {
				t.Fatalf("seed %d step %d: page %d: ok=%v err=%v, want the last complete write", seed, step, pid, ok, err)
			}
		}
		st := d.Stats()
		if crashes == 0 || st.PartialWrites == 0 {
			t.Fatalf("seed %d: %d crashes, %+v: sequence exercised too little", seed, crashes, st)
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
	checkSlots(t, d, 0)
}

// TestCensusPageFile: a read-only scan of a page file counts its slots,
// its pages with their image lengths, its free slots and its stale ones
// (the synced images that newer writes superseded), and leaves the file's
// bytes as they were.
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
	slots := int(d.Stats().Slots)
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
	if c.SlotSize != 512 || c.Payload != 512-slotHdrLen || c.Slots != slots || c.Bytes != int64(len(before)) ||
		!slices.Equal(c.Images, want) || c.Stale != 3 || c.Free+c.Stale+len(c.Images) != c.Slots || c.Torn != 0 {
		t.Fatalf("census %+v; want %d slots of 512 B, images %v, 3 stale", c, slots, want)
	}
	if after, err := fsys.ReadFile(fs, "pages"); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the census changed the file (err %v)", err)
	}
}
