// FileDisk: a page-addressed data file with per-page checksums, torn-page
// detection, and careful replacement.
//
// The file is an array of fixed-size slots and every page image lives in
// exactly one of them. A write never lands on the image it replaces: it
// takes a free slot and carries a sequence number one higher, so the
// prior image stays intact until the new one is completely on disk — the
// paper's careful replacement discipline (§2.2) realized at the file
// layer. A torn write therefore leaves the page readable at its previous
// version.
//
// A superseded slot that holds a page's durable image (the one the last
// Sync covered) waits in limbo until the next Sync has made its
// replacement durable, and only then becomes free. A superseded slot whose
// image was itself written since the last Sync is free at once: the
// durable image behind it is the one in limbo. The file is kept at
//
//	slots <= pages + pages/8 + 64
//
// by one rule: a write that finds no free slot while the file is at that
// bound fsyncs the file itself — always legal, the log was forced before
// the pool called Write — and takes what limbo releases.
//
// On-disk format (little-endian):
//
//	file header (32 bytes):
//	  [0:8)   magic "PITRPAGE"
//	  [8:12)  format version (3)
//	  [12:16) slot size in bytes
//	  [16:20) CRC32C over bytes [0:16)
//	  [20:32) zero pad
//
//	slot i (i >= 0) is at off(i) = 32 + i*slotSize
//
//	slot frame (40-byte header + content):
//	  [0:4)   magic "PGSL"
//	  [4:12)  sequence number (monotone per page; higher wins)
//	  [12:20) page ID
//	  [20:24) content length
//	  [24:32) base: sequence number of the durable image this write
//	          supersedes, 0 if no image of the page was ever synced
//	  [32:36) CRC32C over the content
//	  [36:40) CRC32C over bytes [0:36)
//	  [40:..) page image (pageLSN header + tag + codec content)
//
// Reads verify the elected slot's checksums. Open scans every slot and
// elects each page's intact frame of highest sequence number; all other
// slots are free. A frame whose header verifies but whose content does not
// is a torn (or rotted) write of a known page: with base > 0 and no intact
// image of that page at sequence >= base, the durable image the write was
// replacing is gone — ErrTornPage, fatal, because redo needs an intact
// base image. With base == 0 nothing of the page was ever synced, so the
// log still holds its whole history: it reads as never-written (ok=false)
// and redo recreates it. A frame whose header does not verify cannot be
// attributed to any page and is ignored.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/fsys"
)

const (
	fdHdrLen   = 32
	fdMagic    = "PITRPAGE"
	fdVersion  = 3
	slotHdrLen = 40
	slotMagic  = 0x4c534750 // "PGSL"
	// DefaultSlotSize is the default per-slot size; an image must fit in
	// slotSize-slotHdrLen bytes.
	DefaultSlotSize = 8192
	minSlotSize     = slotHdrLen + 16
	maxSlotSize     = 1 << 20
	// slotReserve is the constant term of the file-size bound: the spare
	// slots a small file may hold between two fsyncs.
	slotReserve = 64
	// scanChunk is how much of the file Open reads at a time.
	scanChunk = 256 << 10
)

// ErrPageFileVersion reports a page file written in a format this build
// does not read: version 1 gave every page a fixed pair of slots, and the
// node images of version 2 gave every record the fields of both levels.
var ErrPageFileVersion = errors.New("storage: unsupported page file format version")

// ErrSlotSize reports a slot size, passed in or read from a page file's
// header, outside [56, 1 MiB].
var ErrSlotSize = errors.New("storage: page file slot size out of range")

var fdCRCTable = crc32.MakeTable(crc32.Castagnoli)

// FileDiskStats counts the data file's physical work and reports its slot
// occupancy.
type FileDiskStats struct {
	PagesWritten   int64
	BytesWritten   int64
	PartialWrites  int64
	ChecksumChecks int64 // slot checksum verifications (reads + open scan)
	ChecksumFails  int64
	Fsyncs         int64 // Sync calls plus DemandSyncs
	DemandSyncs    int64 // fsyncs a Write issued to reuse limbo at the size bound
	Slots          int64 // slots in the file; <= pages + pages/8 + 64
	FreeSlots      int64
	LimboSlots     int64 // superseded durable images awaiting the next fsync
}

// fdPage is one page's elected image.
type fdPage struct {
	slot  int    // slot holding it; -1 when the image is lost (torn)
	n     int    // frame length, header included
	seq   uint64 // its sequence number (torn: the highest one seen)
	base  uint64 // durable sequence number it superseded when written
	epoch uint64 // FileDisk.epoch at the time it was written
}

// slotHdr is a frame header whose checksum verified.
type slotHdr struct {
	seq  uint64
	pid  PageID
	n    int // content length
	base uint64
	crc  uint32 // content checksum
}

// FileDisk is the stable layer under one store: page ID to last written
// image, in a page file. Images include an 8-byte pageLSN header followed
// by a type tag and the codec-encoded content. Write is a single pwrite
// with no fsync — data-page durability rides on Sync(), which the engine
// calls at checkpoints before recycling log segments (write-ahead
// ordering: a page's log records are always forced before the page is
// flushed, and its segments are only recycled after the page is synced).
// It is safe for concurrent use; Write and Read may fail, and the pool
// retries transient errors and propagates the rest.
//
// With an injector (SetInjector) it probes disk.write and disk.read, and
// keeps two latches: a permanent write fault breaks it for good, and once
// the injector's crash latch trips no write or sync reaches the file.
type FileDisk struct {
	path     string
	slotSize int
	inj      *fault.Injector
	broken   atomic.Bool

	mu     sync.RWMutex
	f      fsys.File
	pages  map[PageID]*fdPage
	nslots int
	free   []int
	limbo  []int
	// stale counts the intact frames Open's scan found superseded by a
	// newer image of their page.
	stale int
	// epoch counts fsyncs; an image written in an earlier epoch is durable.
	epoch uint64
	frame []byte // Write's framing buffer

	checks  atomic.Int64
	fails   atomic.Int64
	writes  atomic.Int64
	bytes   atomic.Int64
	parts   atomic.Int64
	syncs   atomic.Int64
	demands atomic.Int64
}

// OpenFileDisk opens or creates the page file at path in fs. slotSize <= 0
// means DefaultSlotSize; an existing file keeps the slot size it was
// created with. An existing file is scanned: every page's newest intact
// frame becomes its stable image, and what the scan finds is taken as
// durable. A new file's header and name are made durable before it
// returns, so a later Sync covers a file a crash keeps.
func OpenFileDisk(fs fsys.FS, path string, slotSize int) (*FileDisk, error) {
	if slotSize <= 0 {
		slotSize = DefaultSlotSize
	}
	if slotSize < minSlotSize || slotSize > maxSlotSize {
		return nil, fmt.Errorf("storage: slot size %d: %w", slotSize, ErrSlotSize)
	}
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR)
	if err != nil {
		return nil, err
	}
	d := &FileDisk{path: path, slotSize: slotSize, f: f, pages: make(map[PageID]*fdPage), epoch: 1}
	if err := d.load(fs); err != nil {
		f.Close()
		return nil, err
	}
	d.frame = make([]byte, d.slotSize)
	return d, nil
}

// SetInjector makes d probe disk.write and disk.read and honor inj's
// crash latch. Call it before d is used concurrently.
func (d *FileDisk) SetInjector(inj *fault.Injector) { d.inj = inj }

// fileHeader builds a page file's header.
func fileHeader(version, slotSize uint32) []byte {
	hdr := make([]byte, fdHdrLen)
	copy(hdr, fdMagic)
	binary.LittleEndian.PutUint32(hdr[8:], version)
	binary.LittleEndian.PutUint32(hdr[12:], slotSize)
	binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(hdr[:16], fdCRCTable))
	return hdr
}

// load writes the header of a new file, or checks the header of an
// existing one and scans its slots.
func (d *FileDisk) load(fs fsys.FS) error {
	size, err := d.f.Size()
	if err != nil {
		return err
	}
	if size == 0 {
		if _, err := d.f.WriteAt(fileHeader(fdVersion, uint32(d.slotSize)), 0); err != nil {
			return err
		}
		if err := d.f.Sync(); err != nil {
			return err
		}
		return fs.SyncDir(filepath.Dir(d.path))
	}
	var hdr [fdHdrLen]byte
	if _, err := d.f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("storage: page file %s: %w", d.path, ErrTornPage)
	}
	if string(hdr[0:8]) != fdMagic ||
		binary.LittleEndian.Uint32(hdr[16:]) != crc32.Checksum(hdr[0:16], fdCRCTable) {
		return fmt.Errorf("storage: page file %s header corrupt: %w", d.path, ErrTornPage)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != fdVersion {
		return fmt.Errorf("storage: page file %s has format version %d, want %d: %w", d.path, v, fdVersion, ErrPageFileVersion)
	}
	// The slot size sizes what scan allocates; nothing outside the range
	// a FileDisk can create is taken from a file.
	ss := binary.LittleEndian.Uint32(hdr[12:])
	if ss < minSlotSize || ss > maxSlotSize {
		return fmt.Errorf("storage: page file %s slot size %d: %w", d.path, ss, ErrSlotSize)
	}
	d.slotSize = int(ss)
	return d.scan(size)
}

// scan elects each page's newest intact frame, frees every other slot,
// and marks as torn the pages whose durable image a torn write outlived.
func (d *FileDisk) scan(size int64) error {
	ss := int64(d.slotSize)
	// A trailing partial slot is a write cut short while extending the
	// file; it counts as a slot so the next extension lands on its offset.
	d.nslots = int((size - fdHdrLen + ss - 1) / ss)
	per := max(1, scanChunk/d.slotSize)
	buf := make([]byte, min(int64(per)*ss, size-fdHdrLen))
	// lost is, per page, the highest base (and sequence number) among its
	// content-torn frames with base > 0.
	type tornFrame struct{ base, seq uint64 }
	lost := make(map[PageID]tornFrame)
	for first := 0; first < d.nslots; first += per {
		n, err := d.f.ReadAt(buf, d.slotOff(first))
		if err != nil && err != io.EOF {
			return fmt.Errorf("storage: page file %s: scan: %w", d.path, err)
		}
		for i := 0; i < per && first+i < d.nslots; i++ {
			slot := first + i
			b := buf[min(i*d.slotSize, n):min((i+1)*d.slotSize, n)]
			h, ok := d.parseHdr(b)
			if !ok {
				d.free = append(d.free, slot)
				continue
			}
			if _, ok := d.content(b, h); !ok {
				if t := lost[h.pid]; h.base > 0 {
					lost[h.pid] = tornFrame{max(t.base, h.base), max(t.seq, h.seq)}
				}
				d.free = append(d.free, slot)
				continue
			}
			p := d.pages[h.pid]
			switch {
			case p == nil:
				p = &fdPage{}
				d.pages[h.pid] = p
			case h.seq <= p.seq:
				d.free = append(d.free, slot)
				d.stale++
				continue
			default:
				d.free = append(d.free, p.slot)
				d.stale++
			}
			*p = fdPage{slot: slot, n: slotHdrLen + h.n, seq: h.seq}
		}
	}
	for pid, t := range lost {
		p := d.pages[pid]
		if p != nil && p.seq >= t.base {
			continue
		}
		// No intact image as new as the durable one a torn write was
		// replacing: whatever older copy survives is stale.
		if p != nil {
			d.free = append(d.free, p.slot)
			d.stale++
		}
		d.pages[pid] = &fdPage{slot: -1, seq: max(t.base, t.seq)}
	}
	return nil
}

// parseHdr checks a frame header against its own checksum. An all-zero or
// foreign slot fails without counting as a checksum failure.
func (d *FileDisk) parseHdr(b []byte) (slotHdr, bool) {
	d.checks.Add(1)
	if len(b) < slotHdrLen || binary.LittleEndian.Uint32(b[0:]) != slotMagic {
		return slotHdr{}, false
	}
	h := slotHdr{
		seq:  binary.LittleEndian.Uint64(b[4:]),
		pid:  PageID(binary.LittleEndian.Uint64(b[12:])),
		n:    int(binary.LittleEndian.Uint32(b[20:])),
		base: binary.LittleEndian.Uint64(b[24:]),
		crc:  binary.LittleEndian.Uint32(b[32:]),
	}
	if binary.LittleEndian.Uint32(b[36:]) != crc32.Checksum(b[0:36], fdCRCTable) || h.pid == NilPage {
		d.fails.Add(1)
		return slotHdr{}, false
	}
	return h, true
}

// content returns the image of the frame in b, whose header is h, if it
// is all there and matches its checksum.
func (d *FileDisk) content(b []byte, h slotHdr) ([]byte, bool) {
	if h.n > len(b)-slotHdrLen {
		d.fails.Add(1)
		return nil, false
	}
	img := b[slotHdrLen : slotHdrLen+h.n]
	if crc32.Checksum(img, fdCRCTable) != h.crc {
		d.fails.Add(1)
		return nil, false
	}
	return img, true
}

func (d *FileDisk) slotOff(slot int) int64 {
	return fdHdrLen + int64(slot)*int64(d.slotSize)
}

// bound is the number of slots the file may grow to.
func (d *FileDisk) bound() int {
	return len(d.pages) + len(d.pages)/8 + slotReserve
}

// takeSlot returns a slot no elected or durable image lives in: a free
// one, else a new one at the end of the file, else — at the size bound —
// one of those an fsync releases from limbo.
func (d *FileDisk) takeSlot() (int, error) {
	if len(d.free) == 0 && len(d.limbo) > 0 && d.nslots >= d.bound() {
		if err := d.syncLocked(); err != nil {
			return 0, err
		}
		d.demands.Add(1)
	}
	if n := len(d.free); n > 0 {
		slot := d.free[n-1]
		d.free = d.free[:n-1]
		return slot, nil
	}
	d.nslots++
	return d.nslots - 1, nil
}

// stage takes the slot pid's next image goes to and frames img for it in
// d.frame. It runs after takeSlot because a demand sync there makes the
// current image durable, which changes the base the frame must carry.
func (d *FileDisk) stage(pid PageID, img []byte) (b []byte, next fdPage, err error) {
	if len(img) > d.slotSize-slotHdrLen {
		return nil, next, fmt.Errorf("storage: page %d image %dB exceeds slot capacity %dB", pid, len(img), d.slotSize-slotHdrLen)
	}
	slot, err := d.takeSlot()
	if err != nil {
		return nil, next, err
	}
	next = fdPage{slot: slot, n: slotHdrLen + len(img), seq: 1, epoch: d.epoch}
	if p := d.pages[pid]; p != nil {
		next.seq = p.seq + 1
		switch {
		case p.slot < 0: // lost: nothing durable to supersede
		case p.epoch < d.epoch:
			next.base = p.seq
		default:
			next.base = p.base
		}
	}
	b = d.frame[:next.n]
	binary.LittleEndian.PutUint32(b[0:], slotMagic)
	binary.LittleEndian.PutUint64(b[4:], next.seq)
	binary.LittleEndian.PutUint64(b[12:], uint64(pid))
	binary.LittleEndian.PutUint32(b[20:], uint32(len(img)))
	binary.LittleEndian.PutUint64(b[24:], next.base)
	binary.LittleEndian.PutUint32(b[32:], crc32.Checksum(img, fdCRCTable))
	binary.LittleEndian.PutUint32(b[36:], crc32.Checksum(b[0:36], fdCRCTable))
	copy(b[slotHdrLen:], img)
	return b, next, nil
}

// Write replaces the stable image of pid via careful replacement: the
// frame lands in a slot of its own and only then does the in-memory
// election move to it. The slot it leaves is free at once if its image
// was never synced, and otherwise waits in limbo for the next fsync.
// Write does not retain img: the pool builds the next image in the same
// buffer.
func (d *FileDisk) Write(pid PageID, img []byte) error {
	if pid == NilPage {
		return errors.New("storage: write to nil page")
	}
	if d.inj.Crashed() {
		return fmt.Errorf("storage: write page %d after crash: %w", pid, ErrDiskFailed)
	}
	if d.broken.Load() {
		return fmt.Errorf("storage: write page %d: %w", pid, ErrDiskFailed)
	}
	if err := d.inj.Check(FPDiskWrite); err != nil {
		if fault.IsPermanent(err) {
			d.broken.Store(true)
		}
		if fault.IsTorn(err) {
			// The write the fault tore lands in part, in a slot of its
			// own; the prior image stays the page's stable one.
			_ = d.writePartial(pid, img, fault.AsError(err).Frac)
		}
		return fmt.Errorf("storage: write page %d: %w", pid, err)
	}
	if d.inj.Crashed() {
		// A crash-only trip on this very write: the machine died before
		// the image landed.
		return fmt.Errorf("storage: write page %d after crash: %w", pid, ErrDiskFailed)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	b, next, err := d.stage(pid, img)
	if err != nil {
		return err
	}
	if _, err := d.f.WriteAt(b, d.slotOff(next.slot)); err != nil {
		d.free = append(d.free, next.slot)
		return err
	}
	d.writes.Add(1)
	d.bytes.Add(int64(len(b)))
	p := d.pages[pid]
	switch {
	case p == nil:
		p = &fdPage{}
		d.pages[pid] = p
	case p.slot < 0:
	case p.epoch < d.epoch:
		d.limbo = append(d.limbo, p.slot)
	default:
		d.free = append(d.free, p.slot)
	}
	*p = next
	return nil
}

// writePartial writes only a seeded prefix of the framed image into the
// slot a Write would have taken — a genuine torn pwrite. The in-memory
// election is NOT updated and the slot stays free: the prior image (or
// never-written state) remains the page's stable version, and a
// post-crash rescan elects the same way because the partial frame fails
// its header or content checksum.
func (d *FileDisk) writePartial(pid PageID, img []byte, frac float64) error {
	if pid == NilPage {
		return nil
	}
	// A complete frame would not be torn.
	n := min(int(frac*float64(slotHdrLen+len(img))), slotHdrLen+len(img)-1)
	if n <= 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	b, next, err := d.stage(pid, img)
	if err != nil {
		return err
	}
	d.free = append(d.free, next.slot)
	if _, err := d.f.WriteAt(b[:n], d.slotOff(next.slot)); err != nil {
		return err
	}
	d.parts.Add(1)
	return nil
}

// Read returns the stable image of pid, verifying its checksum, in a
// buffer allocated for this call: it is the caller's, and the page
// decoded from it may keep and change it (Codec.DecodePage). ok=false
// means the page was never written (not an error).
func (d *FileDisk) Read(pid PageID) ([]byte, bool, error) {
	if err := d.inj.Check(FPDiskRead); err != nil {
		return nil, false, fmt.Errorf("storage: read page %d: %w", pid, err)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.readLocked(pid)
}

func (d *FileDisk) readLocked(pid PageID) ([]byte, bool, error) {
	p := d.pages[pid]
	if p == nil {
		return nil, false, nil
	}
	if p.slot < 0 {
		return nil, false, fmt.Errorf("storage: page %d: durable image lost: %w", pid, ErrTornPage)
	}
	b := make([]byte, p.n)
	n, err := d.f.ReadAt(b, d.slotOff(p.slot))
	if err != nil && err != io.EOF {
		return nil, false, fmt.Errorf("storage: read page %d: %w", pid, err)
	}
	if h, ok := d.parseHdr(b[:n]); ok {
		if h.pid != pid || h.seq != p.seq {
			d.fails.Add(1)
		} else if img, ok := d.content(b[:n], h); ok {
			return img, true, nil
		}
	}
	return nil, false, fmt.Errorf("storage: page %d slot %d checksum mismatch: %w", pid, p.slot, ErrTornPage)
}

// PageIDs returns the IDs of all stable pages.
func (d *FileDisk) PageIDs() []PageID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]PageID, 0, len(d.pages))
	for pid := range d.pages {
		out = append(out, pid)
	}
	return out
}

// Sync fsyncs the page file. The engine calls this at checkpoints,
// before log segments below the new horizon are recycled.
func (d *FileDisk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncLocked()
}

// syncLocked fsyncs and starts a new epoch: every image written so far is
// durable, so the images they superseded are no longer needed.
func (d *FileDisk) syncLocked() error {
	if d.inj.Crashed() {
		return fmt.Errorf("storage: sync after crash: %w", ErrDiskFailed)
	}
	if err := d.f.Sync(); err != nil {
		return err
	}
	d.syncs.Add(1)
	d.epoch++
	d.free = append(d.free, d.limbo...)
	d.limbo = d.limbo[:0]
	return nil
}

// Close closes the page file without syncing.
func (d *FileDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.f.Close()
}

// Payload returns the largest page image a slot holds: the slot size less
// the frame header.
func (d *FileDisk) Payload() int { return d.slotSize - slotHdrLen }

// PageFileCensus is what a read-only scan of a page file finds.
type PageFileCensus struct {
	// SlotSize is the file's slot size, Payload the image bytes a slot
	// holds (FileDisk.Payload).
	SlotSize, Payload int
	Slots             int
	Bytes             int64 // the file's length
	// Free slots hold no intact frame; Stale ones an intact frame of a
	// page that a newer frame supersedes — in the process that wrote the
	// file, limbo or free slots not yet reused.
	Free, Stale int
	// Images are the elected pages' image lengths; Torn counts the pages
	// whose durable image a torn write outlived.
	Images []int
	Torn   int
}

// CensusPageFile scans the page file at path in fs as OpenFileDisk would,
// and reports what it holds. It opens the file read-only and writes
// nothing.
func CensusPageFile(fs fsys.FS, path string) (PageFileCensus, error) {
	var c PageFileCensus
	f, err := fs.OpenFile(path, os.O_RDONLY)
	if err != nil {
		return c, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return c, err
	} else if size == 0 {
		return c, fmt.Errorf("storage: page file %s is empty", path)
	}
	d := &FileDisk{path: path, f: f, pages: make(map[PageID]*fdPage), epoch: 1}
	if err := d.load(fs); err != nil {
		return c, err
	}
	c = PageFileCensus{SlotSize: d.slotSize, Payload: d.Payload(), Slots: d.nslots, Bytes: size, Free: len(d.free) - d.stale, Stale: d.stale}
	for _, p := range d.pages {
		if p.slot < 0 {
			c.Torn++
			continue
		}
		c.Images = append(c.Images, p.n-slotHdrLen)
	}
	return c, nil
}

// Stats returns a snapshot of the physical-work counters and the slot
// occupancy.
func (d *FileDisk) Stats() FileDiskStats {
	d.mu.RLock()
	slots, free, limbo := d.nslots, len(d.free), len(d.limbo)
	d.mu.RUnlock()
	return FileDiskStats{
		PagesWritten:   d.writes.Load(),
		BytesWritten:   d.bytes.Load(),
		PartialWrites:  d.parts.Load(),
		ChecksumChecks: d.checks.Load(),
		ChecksumFails:  d.fails.Load(),
		Fsyncs:         d.syncs.Load(),
		DemandSyncs:    d.demands.Load(),
		Slots:          int64(slots),
		FreeSlots:      int64(free),
		LimboSlots:     int64(limbo),
	}
}
