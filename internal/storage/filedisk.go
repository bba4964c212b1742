// FileDisk: a page-addressed data file with per-page checksums, torn-page
// detection, and careful replacement.
//
// The file is an array of blocks, and every page image lives in one
// extent of them: its frame (header and image) takes ceil(frame/B)
// contiguous blocks, B being a sixteenth of the slot size (the largest
// frame), from 32 bytes (the file header) to 4 KiB. A write never lands on
// the image it replaces: it takes a free extent and carries a sequence
// number one higher, so the prior image stays intact until the new one is
// completely on disk — the paper's careful replacement discipline (§2.2)
// realized at the file layer. A torn write therefore leaves the page
// readable at its previous version.
//
// A superseded extent that holds a page's durable image (the one the last
// Sync covered) waits in limbo until the next Sync has made its
// replacement durable, and only then becomes free. A superseded extent
// whose image was itself written since the last Sync is free at once: the
// durable image behind it is the one in limbo. Free blocks are kept in
// coalesced runs and allocated best fit. The file is kept at
//
//	blocks <= live + live/8 + 64 largest frames
//
// (blocks: the file's, block 0 included; live: those of the elected
// images) by one rule: a write that finds no free run to hold it, would
// extend the file past that bound — the lower of the one before the write
// and the one after it — and finds limbo non-empty fsyncs the file itself
// — always legal, the log was forced before the pool called Write — and
// takes what limbo releases.
//
// The spare extents careful replacement needs are needed only while the
// file is written. Compact, which the engine runs when it closes a store
// after its shutdown checkpoint, packs the file down: it moves the images
// at the file's end into the free runs below them, each move an ordinary
// careful replacement, fsyncs, and truncates the file after its last
// image.
//
// On-disk format (little-endian):
//
//	block 0, the file header (32 bytes):
//	  [0:8)   magic "PITRPAGE"
//	  [8:12)  format version (5)
//	  [12:16) slot size in bytes: the largest frame
//	  [16:20) salt, drawn at random when the file is made
//	  [20:24) CRC32C over bytes [0:20)
//	  [24:32) zero pad
//
//	block b is at off(b) = b*B, B = min(max(slot size / 16, 32), 4096)
//
//	frame, at the first block of its extent (40-byte header + content):
//	  [0:4)   magic "PGSL"
//	  [4:12)  sequence number (monotone per page; higher wins)
//	  [12:20) page ID
//	  [20:24) content length
//	  [24:32) base: sequence number of the durable image this write
//	          supersedes, 0 if no image of the page was ever synced
//	  [32:36) CRC32C over the content
//	  [36:40) CRC32C over the salt, then bytes [0:36)
//	  [40:..) page image (pageLSN header + tag + codec content)
//
// Reads verify the elected frame's checksums. Open checks every block
// boundary: an intact frame is an image, and the scan resumes after its
// extent; anything else moves it one block on. It elects each page's
// intact frame of highest sequence number; every block outside an elected
// extent is free. A freed extent that is later partly reused leaves old
// image bytes — user values among them — at block boundaries the scan
// reads; the salt, unknown to whoever chose those bytes, keeps any of them
// from passing for a frame header. A frame whose header verifies but
// whose content does not is a torn (or rotted) write of a known page, or
// an old image of it whose extent was partly reused: with base > 0 and no
// intact image of that page at sequence >= base, the durable image the
// write was replacing is gone — ErrTornPage, fatal, because redo needs an
// intact base image. With base == 0 nothing of the page was ever synced,
// so the log still holds its whole history: it reads as never-written
// (ok=false) and redo recreates it. A frame whose header does not verify
// cannot be attributed to any page and is ignored.
package storage

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/fsys"
)

const (
	fdHdrLen    = 32
	fdMagic     = "PITRPAGE"
	fdVersion   = 6
	frameHdrLen = 40
	frameMagic  = 0x4c534750 // "PGSL"
	// DefaultSlotSize is the default slot size, the largest frame: an
	// image must fit in slotSize-frameHdrLen bytes.
	DefaultSlotSize = 8192
	// minSlotSize is four of the smallest block, which holds the file
	// header.
	minSlotSize  = 4 * fdHdrLen
	maxBlockSize = 4 << 10
	// reserveFrames is the constant term of the file-size bound: the spare
	// largest frames a small file may hold between two fsyncs.
	reserveFrames = 64
	// scanChunk is how much of the file Open reads at a time.
	scanChunk = 256 << 10
)

// MaxSlotSize is the largest slot size a page file takes, and so the
// largest page image of any store.
const MaxSlotSize = 1 << 20

// ErrPageFileVersion reports a page file written in a format this build
// does not read: version 1 gave every page a fixed pair of slots, the node
// images of version 2 gave every record the fields of both levels, version
// 3 gave every image a whole slot, version 4 made a block a quarter of
// the slot, and the node images of version 5 prefixed every byte string
// with a 4-byte length where version 6 has a uvarint.
var ErrPageFileVersion = errors.New("storage: unsupported page file format version")

// ErrSlotSize reports a slot size, passed in or read from a page file's
// header, outside [128, 1 MiB].
var ErrSlotSize = errors.New("storage: page file slot size out of range")

var fdCRCTable = crc32.MakeTable(crc32.Castagnoli)

// FileDiskStats counts the data file's physical work and reports its
// block occupancy.
type FileDiskStats struct {
	PagesWritten   int64
	BytesWritten   int64
	PartialWrites  int64
	ChecksumChecks int64 // frame checksum verifications (reads + open scan)
	ChecksumFails  int64
	Fsyncs         int64 // Sync calls plus DemandSyncs
	DemandSyncs    int64 // fsyncs a Write issued to reuse limbo at the size bound
	Blocks         int64 // blocks in the file, block 0 included
	FreeBlocks     int64
	LimboBlocks    int64 // superseded durable images awaiting the next fsync
	Bound          int64 // blocks the file may grow to: live + live/8 + 64 largest frames
}

// fdPage is one page's elected image.
type fdPage struct {
	start int    // first block of its extent; -1 when the image is lost (torn)
	n     int    // frame length, header included
	seq   uint64 // its sequence number (torn: the highest one seen)
	base  uint64 // durable sequence number it superseded when written
	epoch uint64 // FileDisk.epoch at the time it was written
}

// extent is a run of n blocks from start.
type extent struct{ start, n int }

// frameHdr is a frame header whose checksum verified.
type frameHdr struct {
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
	block    int
	// seed is the CRC32C of the salt, where every frame header's
	// checksum starts.
	seed   uint32
	inj    *fault.Injector
	broken atomic.Bool

	mu      sync.RWMutex
	f       fsys.File
	pages   map[PageID]*fdPage
	nblocks int // block 0 included
	live    int // blocks of the elected images
	free    freeRuns
	limbo   []extent
	limboN  int // blocks in limbo
	// stale counts the blocks of the intact frames Open's scan found
	// superseded by a newer image of their page.
	stale int
	// epoch counts fsyncs; an image written in an earlier epoch is durable.
	epoch uint64
	frame []byte // Write's framing buffer
	// spent is, per page, the sequence number of a write whose pwrite
	// failed: its frame may have landed whole all the same, so the page's
	// next write takes a higher one and a reopen cannot elect the failed
	// frame over it.
	spent map[PageID]uint64

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
	if slotSize < minSlotSize || slotSize > MaxSlotSize {
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
func fileHeader(version, slotSize, salt uint32) []byte {
	hdr := make([]byte, fdHdrLen)
	copy(hdr, fdMagic)
	binary.LittleEndian.PutUint32(hdr[8:], version)
	binary.LittleEndian.PutUint32(hdr[12:], slotSize)
	binary.LittleEndian.PutUint32(hdr[16:], salt)
	binary.LittleEndian.PutUint32(hdr[20:], crc32.Checksum(hdr[:20], fdCRCTable))
	return hdr
}

// setLayout derives the block geometry and the frame checksum's seed from
// the slot size and the salt, and starts an empty free space.
func (d *FileDisk) setLayout(slotSize int, salt uint32) {
	d.slotSize, d.block = slotSize, min(max(slotSize/16, fdHdrLen), maxBlockSize)
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], salt)
	d.seed = crc32.Checksum(b[:], fdCRCTable)
	d.free = newFreeRuns(d.blocks(slotSize))
}

// load writes the header of a new file, or checks the header of an
// existing one and scans its blocks.
func (d *FileDisk) load(fs fsys.FS) error {
	size, err := d.f.Size()
	if err != nil {
		return err
	}
	if size == 0 {
		salt := rand.Uint32()
		d.setLayout(d.slotSize, salt)
		d.nblocks = 1
		if _, err := d.f.WriteAt(fileHeader(fdVersion, uint32(d.slotSize), salt), 0); err != nil {
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
	v := binary.LittleEndian.Uint32(hdr[8:])
	// Versions 1 to 3 had no salt: their checksum covered 16 bytes.
	sum := 20
	if v < 4 {
		sum = 16
	}
	if string(hdr[0:8]) != fdMagic ||
		binary.LittleEndian.Uint32(hdr[sum:]) != crc32.Checksum(hdr[0:sum], fdCRCTable) {
		return fmt.Errorf("storage: page file %s header corrupt: %w", d.path, ErrTornPage)
	}
	if v != fdVersion {
		return fmt.Errorf("storage: page file %s has format version %d, want %d: %w", d.path, v, fdVersion, ErrPageFileVersion)
	}
	// The slot size sizes what scan allocates; nothing outside the range
	// a FileDisk can create is taken from a file.
	ss := binary.LittleEndian.Uint32(hdr[12:])
	if ss < minSlotSize || ss > MaxSlotSize {
		return fmt.Errorf("storage: page file %s slot size %d: %w", d.path, ss, ErrSlotSize)
	}
	d.setLayout(int(ss), binary.LittleEndian.Uint32(hdr[16:]))
	return d.scan(size)
}

// scanWindow is Open's view of the file: a chunk of it, read again
// wherever the scan moves past it.
type scanWindow struct {
	f    fsys.File
	size int64
	off  int64
	buf  []byte
	n    int
}

// at returns the file's bytes from off, up to want of them or the end of
// the file.
func (w *scanWindow) at(off int64, want int) ([]byte, error) {
	end := min(off+int64(want), w.size)
	if off < w.off || end > w.off+int64(w.n) {
		n, err := w.f.ReadAt(w.buf[:min(int64(len(w.buf)), w.size-off)], off)
		if err != nil && err != io.EOF {
			return nil, err
		}
		w.off, w.n = off, n
		end = min(end, off+int64(n))
	}
	return w.buf[off-w.off : end-w.off], nil
}

// scan elects each page's newest intact frame, frees every block outside
// the elected extents, and marks as torn the pages whose durable image a
// torn write outlived.
func (d *FileDisk) scan(size int64) error {
	bs := int64(d.block)
	// A trailing partial block is a write cut short while extending the
	// file; it counts as a block so the next extension lands after it.
	d.nblocks = int((size + bs - 1) / bs)
	w := &scanWindow{f: d.f, size: size, buf: make([]byte, min(int64(scanChunk+d.slotSize), size))}
	// lost is, per page, the highest base (and sequence number) among its
	// content-torn frames with base > 0.
	type tornFrame struct{ base, seq uint64 }
	lost := make(map[PageID]tornFrame)
	for b := 1; b < d.nblocks; {
		buf, err := w.at(int64(b)*bs, d.slotSize)
		if err != nil {
			return fmt.Errorf("storage: page file %s: scan: %w", d.path, err)
		}
		h, ok := d.parseHdr(buf)
		if !ok {
			b++
			continue
		}
		if _, ok := d.content(buf, h); !ok {
			if t := lost[h.pid]; h.base > 0 {
				lost[h.pid] = tornFrame{max(t.base, h.base), max(t.seq, h.seq)}
			}
			b++
			continue
		}
		n := frameHdrLen + h.n
		switch p := d.pages[h.pid]; {
		case p == nil:
			d.pages[h.pid] = &fdPage{start: b, n: n, seq: h.seq}
		case h.seq <= p.seq:
			d.stale += d.blocks(n)
		default:
			d.stale += d.blocks(p.n)
			*p = fdPage{start: b, n: n, seq: h.seq}
		}
		b += d.blocks(n)
	}
	for pid, t := range lost {
		p := d.pages[pid]
		if p != nil && p.seq >= t.base {
			continue
		}
		// No intact image as new as the durable one a torn write was
		// replacing: whatever older copy survives is stale.
		if p != nil {
			d.stale += d.blocks(p.n)
		}
		d.pages[pid] = &fdPage{start: -1, seq: max(t.base, t.seq)}
	}
	// Every block outside an elected extent is free.
	elected := make([]extent, 0, len(d.pages))
	for _, p := range d.pages {
		if p.start >= 0 {
			elected = append(elected, extent{p.start, d.blocks(p.n)})
		}
	}
	slices.SortFunc(elected, func(a, b extent) int { return cmp.Compare(a.start, b.start) })
	next := 1
	for _, e := range elected {
		if e.start > next {
			d.free.insert(next, e.start-next)
		}
		next = e.start + e.n
		d.live += e.n
	}
	if next < d.nblocks {
		d.free.insert(next, d.nblocks-next)
	}
	return nil
}

// parseHdr checks a frame header against its own checksum. An all-zero or
// foreign block fails without counting as a checksum failure.
func (d *FileDisk) parseHdr(b []byte) (frameHdr, bool) {
	d.checks.Add(1)
	if len(b) < frameHdrLen || binary.LittleEndian.Uint32(b[0:]) != frameMagic {
		return frameHdr{}, false
	}
	h := frameHdr{
		seq:  binary.LittleEndian.Uint64(b[4:]),
		pid:  PageID(binary.LittleEndian.Uint64(b[12:])),
		n:    int(binary.LittleEndian.Uint32(b[20:])),
		base: binary.LittleEndian.Uint64(b[24:]),
		crc:  binary.LittleEndian.Uint32(b[32:]),
	}
	if binary.LittleEndian.Uint32(b[36:]) != d.hdrSum(b) || h.pid == NilPage {
		d.fails.Add(1)
		return frameHdr{}, false
	}
	return h, true
}

// hdrSum is the checksum of the frame header at the front of b: CRC32C
// over the salt, then the header's first 36 bytes.
func (d *FileDisk) hdrSum(b []byte) uint32 {
	return crc32.Update(d.seed, fdCRCTable, b[0:36])
}

// content returns the image of the frame in b, whose header is h, if it
// is all there and matches its checksum.
func (d *FileDisk) content(b []byte, h frameHdr) ([]byte, bool) {
	if h.n > len(b)-frameHdrLen {
		d.fails.Add(1)
		return nil, false
	}
	img := b[frameHdrLen : frameHdrLen+h.n]
	if crc32.Checksum(img, fdCRCTable) != h.crc {
		d.fails.Add(1)
		return nil, false
	}
	return img, true
}

func (d *FileDisk) blockOff(block int) int64 {
	return int64(block) * int64(d.block)
}

// blocks is the length in blocks of the extent a frame of n bytes takes.
func (d *FileDisk) blocks(n int) int {
	return (n + d.block - 1) / d.block
}

// bound is the number of blocks the file may grow to with live blocks
// elected.
func (d *FileDisk) bound(live int) int {
	return live + live/8 + reserveFrames*d.blocks(d.slotSize)
}

// takeExtent returns the first of n contiguous blocks no elected or
// durable image lives in: from the shortest free run that holds them, else
// at the end of the file (taking in a free run that ends there), after —
// if that would pass the size bound — an fsync that releases limbo. The
// bound is the lower of the one the file has and the one it has once the
// n blocks replace the old of the image they supersede, so it holds
// whether the write lands or fails.
func (d *FileDisk) takeExtent(n, old int) (int, error) {
	start, ok := d.free.fit(n)
	if _, t := d.free.tail(d.nblocks); !ok && len(d.limbo) > 0 && d.nblocks+n-t > d.bound(d.live+min(n-old, 0)) {
		if err := d.syncLocked(); err != nil {
			return 0, err
		}
		d.demands.Add(1)
		start, ok = d.free.fit(n)
	}
	if !ok {
		var t int
		start, t = d.free.tail(d.nblocks)
		d.nblocks = start + n
		if t == 0 {
			return start, nil
		}
	}
	d.free.split(start, n)
	return start, nil
}

// stage takes the extent pid's next image goes to — the front of the free
// run at block start, or with start < 0 whatever takeExtent finds — and
// frames img for it in d.frame. The extent comes first because a demand
// sync in takeExtent makes the current image durable, which changes the
// base the frame must carry.
func (d *FileDisk) stage(pid PageID, img []byte, start int) (b []byte, next fdPage, err error) {
	if len(img) > d.slotSize-frameHdrLen {
		return nil, next, fmt.Errorf("storage: page %d image %dB exceeds slot capacity %dB", pid, len(img), d.slotSize-frameHdrLen)
	}
	n := frameHdrLen + len(img)
	p := d.pages[pid]
	if start < 0 {
		old := 0
		if p != nil && p.start >= 0 {
			old = d.blocks(p.n)
		}
		if start, err = d.takeExtent(d.blocks(n), old); err != nil {
			return nil, next, err
		}
	} else if d.free.byStart[start] < d.blocks(n) {
		return nil, next, fmt.Errorf("storage: page %d: no free run of %d blocks at block %d", pid, d.blocks(n), start)
	} else {
		d.free.split(start, d.blocks(n))
	}
	next = fdPage{start: start, n: n, seq: d.spent[pid] + 1, epoch: d.epoch}
	if p != nil {
		next.seq = max(next.seq, p.seq+1)
		switch {
		case p.start < 0: // lost: nothing durable to supersede
		case p.epoch < d.epoch:
			next.base = p.seq
		default:
			next.base = p.base
		}
	}
	b = d.frame[:n]
	binary.LittleEndian.PutUint32(b[0:], frameMagic)
	binary.LittleEndian.PutUint64(b[4:], next.seq)
	binary.LittleEndian.PutUint64(b[12:], uint64(pid))
	binary.LittleEndian.PutUint32(b[20:], uint32(len(img)))
	binary.LittleEndian.PutUint64(b[24:], next.base)
	binary.LittleEndian.PutUint32(b[32:], crc32.Checksum(img, fdCRCTable))
	binary.LittleEndian.PutUint32(b[36:], d.hdrSum(b))
	copy(b[frameHdrLen:], img)
	return b, next, nil
}

// Write replaces the stable image of pid via careful replacement: the
// frame lands in an extent of its own and only then does the in-memory
// election move to it. The extent it leaves is free at once if its image
// was never synced, and otherwise waits in limbo for the next fsync.
// Write does not retain img: the pool builds the next image in the same
// buffer.
func (d *FileDisk) Write(pid PageID, img []byte) error {
	if pid == NilPage {
		return errors.New("storage: write to nil page")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.write(pid, img, -1)
}

// write is Write with d.mu held, into the free run at block start or, with
// start < 0, wherever takeExtent puts it.
func (d *FileDisk) write(pid PageID, img []byte, start int) error {
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
			// The write the fault tore lands in part, in an extent of its
			// own; the prior image stays the page's stable one.
			_ = d.partial(pid, img, fault.AsError(err).Frac, start)
		}
		return fmt.Errorf("storage: write page %d: %w", pid, err)
	}
	if d.inj.Crashed() {
		// A crash-only trip on this very write: the machine died before
		// the image landed.
		return fmt.Errorf("storage: write page %d after crash: %w", pid, ErrDiskFailed)
	}
	b, next, err := d.stage(pid, img, start)
	if err != nil {
		return err
	}
	if _, err := d.f.WriteAt(b, d.blockOff(next.start)); err != nil {
		d.free.add(next.start, d.blocks(next.n))
		if d.spent == nil {
			d.spent = make(map[PageID]uint64)
		}
		d.spent[pid] = next.seq
		return err
	}
	delete(d.spent, pid)
	d.writes.Add(1)
	d.bytes.Add(int64(len(b)))
	p := d.pages[pid]
	switch {
	case p == nil:
		p = &fdPage{}
		d.pages[pid] = p
	case p.start < 0:
	case p.epoch < d.epoch:
		d.limbo = append(d.limbo, extent{p.start, d.blocks(p.n)})
		d.limboN += d.blocks(p.n)
		d.live -= d.blocks(p.n)
	default:
		d.free.add(p.start, d.blocks(p.n))
		d.live -= d.blocks(p.n)
	}
	*p = next
	d.live += d.blocks(next.n)
	return nil
}

// writePartial writes only a seeded prefix of the framed image into the
// extent a Write would have taken — a genuine torn pwrite. The in-memory
// election is NOT updated and the extent stays free: the prior image (or
// never-written state) remains the page's stable version, and a
// post-crash rescan elects the same way because the partial frame fails
// its header or content checksum. The tear falls before the last byte the
// frame and the extent's old bytes differ in, so exactly that byte is
// wrong and the checksum cannot pass: a tear that happened to leave the
// whole frame in place would be a write of an image the pool takes as
// unwritten, carrying the sequence number its next write takes too.
func (d *FileDisk) writePartial(pid PageID, img []byte, frac float64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.partial(pid, img, frac, -1)
}

// partial is writePartial with d.mu held, into the extent write would take.
func (d *FileDisk) partial(pid PageID, img []byte, frac float64, start int) error {
	if pid == NilPage {
		return nil
	}
	// A complete frame would not be torn.
	n := min(int(frac*float64(frameHdrLen+len(img))), frameHdrLen+len(img)-1)
	if n <= 0 {
		return nil
	}
	b, next, err := d.stage(pid, img, start)
	if err != nil {
		return err
	}
	d.free.add(next.start, d.blocks(next.n))
	old := make([]byte, len(b))
	if _, err := d.f.ReadAt(old, d.blockOff(next.start)); err != nil && err != io.EOF {
		return err
	}
	last := len(b) - 1
	for last >= 0 && b[last] == old[last] {
		last--
	}
	if n = min(n, last); n <= 0 {
		return nil
	}
	if _, err := d.f.WriteAt(b[:n], d.blockOff(next.start)); err != nil {
		return err
	}
	d.parts.Add(1)
	return nil
}

// move is one image Compact relocates: page pid's, to the front of the
// free run at block to.
type move struct {
	pid PageID
	to  int
}

// Compact packs the file down and shortens it. It moves every elected
// image above a cut into the free runs below it — the lowest cut for which
// all of them fit, taken largest first, each into the shortest run that
// holds it — by an ordinary careful replacement: the frame restaged with
// seq+1 and the durable base, the old extent to limbo. Then one fsync,
// which frees limbo, the file is truncated after its highest elected
// image, and the old frames left in the free runs below are erased
// (scrub). A crash anywhere in it leaves what a crash among Writes leaves:
// every page's synced image intact. No page's bytes change. Each move
// probes disk.compact, then disk.write as Write does.
//
// The engine compacts a store when it closes it after a shutdown
// checkpoint, when every image is durable and limbo empty; the spare
// extents careful replacement needs matter only while the file is written.
func (d *FileDisk) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, m := range d.packPlan() {
		if err := d.inj.Check(FPDiskCompact); err != nil {
			return fmt.Errorf("storage: compact page %d: %w", m.pid, err)
		}
		img, _, err := d.readLocked(m.pid)
		if err != nil {
			return err
		}
		if err := d.write(m.pid, img, m.to); err != nil {
			return err
		}
	}
	if d.limboN > 0 {
		if err := d.syncLocked(); err != nil {
			return err
		}
	}
	if start, n := d.free.tail(d.nblocks); n > 0 {
		if d.inj.Crashed() {
			return fmt.Errorf("storage: truncate after crash: %w", ErrDiskFailed)
		}
		if err := d.f.Truncate(d.blockOff(start)); err != nil {
			return err
		}
		d.free.remove(start)
		d.nblocks = start
	}
	return d.scrub()
}

// scrub erases the header of every intact frame left in a free run. A
// hole no moved image fills can keep an old frame of a page whose newer
// image is elected elsewhere: harmless, as a reopen elects the newer, but
// a census of the closed file would count it stale. Every image is
// durable and limbo empty by now, so the free runs hold nothing a crash
// could need.
func (d *FileDisk) scrub() error {
	var buf []byte
	zero := make([]byte, frameHdrLen)
	for start, n := range d.free.byStart {
		buf = slices.Grow(buf[:0], int(d.blockOff(n)))[:d.blockOff(n)]
		m, err := d.f.ReadAt(buf, d.blockOff(start))
		if err != nil && err != io.EOF {
			return err
		}
		buf = buf[:m]
		for b := 0; d.blockOff(b) < int64(m); {
			fr := buf[d.blockOff(b):]
			h, ok := d.parseHdr(fr)
			if ok {
				_, ok = d.content(fr, h)
			}
			if !ok {
				b++
				continue
			}
			if d.inj.Crashed() {
				return fmt.Errorf("storage: scrub after crash: %w", ErrDiskFailed)
			}
			if _, err := d.f.WriteAt(zero, d.blockOff(start+b)); err != nil {
				return err
			}
			b += d.blocks(frameHdrLen + h.n)
		}
	}
	return nil
}

// packPlan chooses Compact's moves. The elected extents in address order
// are E[0..m); cutting at the start of E[k] keeps E[0..k) where they are
// and must move E[k..m) into the free runs below the cut, which lie
// between E[0..k) and stay put. The plan is the smallest k for which best
// fit, largest extent first, places them all; the moves are listed in the
// order they are to run, each to the front of what is left of its run.
func (d *FileDisk) packPlan() []move {
	type image struct {
		pid PageID
		extent
	}
	var imgs []image
	for pid, p := range d.pages {
		if p.start >= 0 {
			imgs = append(imgs, image{pid, extent{p.start, d.blocks(p.n)}})
		}
	}
	slices.SortFunc(imgs, func(a, b image) int { return cmp.Compare(a.start, b.start) })
	runs := make([]extent, 0, len(d.free.byStart))
	for start, n := range d.free.byStart {
		runs = append(runs, extent{start, n})
	}
	slices.SortFunc(runs, func(a, b extent) int { return cmp.Compare(a.start, b.start) })
	// Largest first, the highest among equals.
	order := slices.Clone(imgs)
	slices.SortFunc(order, func(a, b image) int {
		return cmp.Or(cmp.Compare(b.n, a.n), cmp.Compare(b.start, a.start))
	})
	// pack places every image at or above cut into the runs below it, by
	// the allocator's own best fit, and returns the moves, or reports that
	// one does not fit.
	pack := func(cut int) ([]move, bool) {
		holes := newFreeRuns(d.blocks(d.slotSize))
		for _, r := range runs {
			if r.start >= cut {
				break
			}
			holes.insert(r.start, r.n)
		}
		var moves []move
		for _, im := range order {
			if im.start < cut {
				continue
			}
			to, ok := holes.fit(im.n)
			if !ok {
				return nil, false
			}
			holes.split(to, im.n)
			moves = append(moves, move{im.pid, to})
		}
		return moves, true
	}
	k := sort.Search(len(imgs), func(k int) bool {
		_, ok := pack(imgs[k].start)
		return ok
	})
	if k == len(imgs) {
		return nil
	}
	moves, _ := pack(imgs[k].start)
	return moves
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
	if p.start < 0 {
		return nil, false, fmt.Errorf("storage: page %d: durable image lost: %w", pid, ErrTornPage)
	}
	b := make([]byte, p.n)
	n, err := d.f.ReadAt(b, d.blockOff(p.start))
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
	return nil, false, fmt.Errorf("storage: page %d block %d checksum mismatch: %w", pid, p.start, ErrTornPage)
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
	for _, e := range d.limbo {
		d.free.add(e.start, e.n)
	}
	d.limbo, d.limboN = d.limbo[:0], 0
	return nil
}

// Close closes the page file without syncing.
func (d *FileDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.f.Close()
}

// Payload returns the largest page image a frame holds: the slot size
// less the frame header.
func (d *FileDisk) Payload() int { return d.slotSize - frameHdrLen }

// PageFileCensus is what a read-only scan of a page file finds.
type PageFileCensus struct {
	// SlotSize is the file's slot size (its largest frame), Payload the
	// image bytes a frame holds (FileDisk.Payload), BlockSize the unit
	// extents are made of.
	SlotSize, Payload, BlockSize int
	Blocks                       int   // block 0 included
	Bytes                        int64 // the file's length
	// Free blocks lie outside every intact frame; Stale ones inside an
	// intact frame of a page that a newer frame supersedes — in the
	// process that wrote the file, limbo or free blocks not yet reused.
	Free, Stale int
	// Images are the elected pages' image lengths, Extents[n] the number
	// of them that take n blocks; Torn counts the pages whose durable
	// image a torn write outlived.
	Images  []int
	Extents []int
	Torn    int
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
	c = PageFileCensus{SlotSize: d.slotSize, Payload: d.Payload(), BlockSize: d.block, Blocks: d.nblocks, Bytes: size,
		Free: d.free.total - d.stale, Stale: d.stale, Extents: make([]int, d.blocks(d.slotSize)+1)}
	for _, p := range d.pages {
		if p.start < 0 {
			c.Torn++
			continue
		}
		c.Images = append(c.Images, p.n-frameHdrLen)
		c.Extents[d.blocks(p.n)]++
	}
	return c, nil
}

// Stats returns a snapshot of the physical-work counters and the block
// occupancy.
func (d *FileDisk) Stats() FileDiskStats {
	d.mu.RLock()
	blocks, free, limbo, bound := d.nblocks, d.free.total, d.limboN, d.bound(d.live)
	d.mu.RUnlock()
	return FileDiskStats{
		PagesWritten:   d.writes.Load(),
		BytesWritten:   d.bytes.Load(),
		PartialWrites:  d.parts.Load(),
		ChecksumChecks: d.checks.Load(),
		ChecksumFails:  d.fails.Load(),
		Fsyncs:         d.syncs.Load(),
		DemandSyncs:    d.demands.Load(),
		Blocks:         int64(blocks),
		FreeBlocks:     int64(free),
		LimboBlocks:    int64(limbo),
		Bound:          int64(bound),
	}
}
