// File-backed WAL: fixed-size segment files named by base LSN, a master
// record carrying the checkpoint anchor and recycle horizon, replay that
// verifies each record's CRC at its position and truncates at the first
// corrupt or torn tail record, and checkpoint-driven retirement +
// recycling of dead segments.
//
// On-disk formats (all little-endian):
//
//	segment file "wal-<base16>.seg":
//	  [0:8)   magic "PITRWAL1"
//	  [8:12)  format version (7)
//	  [12:16) data capacity in bytes (segment size)
//	  [16:24) base LSN of the first data byte
//	  [24:28) CRC32C over bytes [0:24)
//	  [28:32) zero pad
//	  [32:..) raw record stream: the log bytes [base, base+cap)
//
//	master file "wal-master" (written via tmp+rename, so always atomic):
//	  [0:8)   magic "PITRMSTR"
//	  [8:12)  format version (7)
//	  [12:20) checkpoint anchor LSN
//	  [20:28) recycle horizon LSN
//	  [28:32) CRC32C over bytes [0:28)
//
//	record frame (wal.go has the encoder):
//	  [0:4)   frame length
//	  [4:8)   CRC32C over the record's LSN (8 bytes, not stored: the
//	          frame's position) followed by [8:length)
//	  [8]     tag: type (bits 0-3), FlagSystem (4), and present: prev (5),
//	          undo-next (6), kind + page address (7)
//	  uvarint transaction id
//	  prev:   uvarint PrevLSN, or 0x00 and a uvarint distance back to it
//	          (a chained AppendGroup record)
//	  undo:   uvarint UndoNext
//	  kind + page address: uvarint kind, store id, page id, and the
//	          distance back to the page's previous record (0 = none)
//	  payload to the end of the frame
//
// Version 4 added the page's previous record to the kind + page address
// group: each page's records form a chain a buffer pool replays to rebuild
// a page it dropped dirty. Version 5 changed no frame: it marked the
// Π-tree's update record, whose payload became one XOR delta of the old and
// new values instead of both values. Version 6 stopped storing each frame's
// LSN (the CRC covers it instead) and made that delta sparse: runs of
// changed bytes with the zero gaps between them skipped. Version 7 changed
// no frame either: the TSB tree's put record names its value as the same
// sparse delta from the version of its key it supersedes, with its fixed
// fields as uvarints and its writer taken from the frame's transaction
// where they are equal, and the commit record's version-clock stamp became
// a uvarint. Version 8 changed no frame: every byte string inside a
// payload — a key, a value, a node image's record — is prefixed by the
// uvarint of its length plus one (0 for nil) instead of 4 bytes
// (enc.AppendField). A directory of another version — version 1 had fixed
// 58-byte record headers, version 2 node images whose every record had
// the fields of both levels, version 3 no page chain, version 4 two-value
// updates, version 5 stored LSNs and one-span deltas, version 6
// whole-version puts and 8-byte commit stamps, version 7 4-byte string
// lengths — is refused with ErrLogVersion and left as it is.
//
// The byte stream inside segments is exactly the in-memory log: LSN =
// absolute byte offset, each record framed as len|crc|tag|... with the CRC
// covering the LSN the frame is read at. Replay therefore needs no
// segment-local record index — it walks records from the horizon and stops
// at the first frame whose CRC fails at its position. That is what makes
// recycled segments safe to reuse without zeroing: stale bytes from a
// previous life are intact records of another LSN. Segment bases are
// multiples of the segment size, so a byte's old and new LSN differ by one:
// below 2^32 times the largest power of two dividing the size (2^52 at the
// default 1 MiB) they differ in a burst of at most 32 bits, which the CRC
// always catches (DESIGN.md §16).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/fsys"
)

// ErrShortSegment reports a WAL segment chain that cannot be replayed:
// a gap between segment base LSNs, a segment file shorter than its
// header, or a recycled prefix whose master record is missing.
var ErrShortSegment = errors.New("wal: short or missing segment")

// ErrLogVersion reports a WAL directory written in a format this build
// does not read: a segment or master file whose magic and checksum hold
// but whose format version is not this build's (version 1 framed every
// record with a fixed 58-byte header; version 2's node images held records
// with the fields of both levels; version 3's records carried no page
// chain; version 4's update records carried both values; version 5's frames
// stored their LSN and its update deltas were one span; version 6's puts
// carried whole versions; version 7's payloads prefixed byte strings with
// 4-byte lengths). The directory is left untouched.
var ErrLogVersion = errors.New("wal: unsupported log format version")

// errNoHeader reports bytes that are not a segment header or master
// record at all: torn, short or foreign.
var errNoHeader = errors.New("wal: no header")

// SyncPolicy selects when the durability layer issues fsync.
type SyncPolicy int

const (
	// SyncAlways fsyncs the active segment on every stable-prefix
	// commit. Group commit already batches many transaction commits into
	// one stable-prefix advance, so this is one fsync per force round,
	// not per transaction.
	SyncAlways SyncPolicy = iota
	// SyncNever issues no fsyncs at all: bytes reach the OS page cache
	// on Persist and survive a process kill, but not an OS crash or
	// power loss. This is the mode the real-crash (SIGKILL) harness
	// runs, and the honest equivalent of the in-memory simulation.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// DefaultSegmentSize is the default data capacity of one WAL segment.
const DefaultSegmentSize = 1 << 20

const (
	segHdrLen    = 32
	masterLen    = 32
	segMagic     = "PITRWAL1"
	masterMagic  = "PITRMSTR"
	fileVersion  = 8
	masterName   = "wal-master"
	segPrefix    = "wal-"
	segSuffix    = ".seg"
	freePrefix   = "wal-free-"
	minSegmentSz = 4 * 1024
)

// FileWALStats counts the durable layer's physical work.
type FileWALStats struct {
	Persists         int64 // Persist calls (stable-prefix advances)
	BytesPersisted   int64
	Fsyncs           int64 // data-path fsyncs (commit + segment roll)
	MasterWrites     int64
	SegmentsCreated  int64 // brand-new segment files
	SegmentsRecycled int64 // segments reused from the free pool
	SegmentsRetired  int64 // segments dropped below the recycle horizon
	SegmentsRemoved  int64 // retired segments unlinked because the free pool was full
	ReplayRecords    int64 // records accepted by the last replay
	ReplayTruncated  int64 // bytes discarded at the corrupt/torn tail
}

type segMeta struct {
	base uint64
	cap  uint64
	path string
}

// FileWAL holds a log's stable prefix in a directory of segment files on
// an fsys.FS. Persist is called only from the log's single write stage
// (never concurrently with itself) with contiguous, gap-free byte ranges
// in LSN order; Commit is called only from the single sync stage and
// makes everything persisted so far survive a crash, per the sync policy.
// Persist and Commit DO overlap — that is the point of the flush pipeline.
// Either failing latches the log damaged, exactly like a device failure:
// the force that observed it returns an error wrapping ErrLogFailed and
// the record is guaranteed never to be acknowledged as stable. FileWAL
// carries its own mutex, so direct use from tests is safe too.
type FileWAL struct {
	fs     fsys.FS
	dir    string
	segCap uint64
	policy SyncPolicy

	mu      sync.Mutex
	pos     uint64 // next byte offset to persist (LSN space)
	cur     fsys.File
	curBase uint64
	live    []segMeta // durable segments in base order, excluding cur? no: including cur
	free    []string  // recycled segment files awaiting reuse
	freeSeq int
	ckpt    LSN
	horizon LSN
	closed  bool

	// pendSync holds segments rolled out of the active position whose
	// fsync was deferred to the next Commit (SyncAlways only), so the
	// write stage never pays device latency for a roll. Commit drains it
	// before syncing the active segment.
	pendSync []pendSeg
	iov      [][]byte // reusable per-segment iovec batch for PersistV

	// rseg holds the readers AppendFrame opened on live segments, by base,
	// and [rlo, rhi) is the LSN range they may read: the recycle horizon and
	// the persisted end, published under mu whenever either moves. A read
	// checks its range and copies under rmu held shared; retiring or
	// truncating a segment first narrows the range, then closes its reader
	// under rmu held exclusively, so no read touches a file after it is cut.
	// Lock order: mu before rmu.
	rmu      sync.RWMutex
	rseg     map[uint64]fsys.Mapping
	rlo, rhi atomic.Uint64

	stats FileWALStats
}

// pendSeg is a rolled-out segment whose fsync waits for the next Commit.
type pendSeg struct {
	f    fsys.File
	base uint64
}

// OpenFileWAL opens (or creates) a WAL in the directory dir of the
// operating system's file system; see Open.
func OpenFileWAL(dir string, segSize int, policy SyncPolicy) (*FileWAL, *Reader, error) {
	return Open(fsys.OS, dir, segSize, policy)
}

// Open opens (or creates) a WAL in the directory dir of fs. If the
// directory holds a previous incarnation's log it is replayed: the
// returned Reader covers the valid stable prefix (nil if the log is
// empty) and the writer is positioned at its end, with any corrupt or
// torn tail physically truncated. segSize is the data capacity per
// segment (0 means DefaultSegmentSize; clamped to a sane minimum).
func Open(fs fsys.FS, dir string, segSize int, policy SyncPolicy) (*FileWAL, *Reader, error) {
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}
	if segSize < minSegmentSz {
		segSize = minSegmentSz
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, nil, err
	}
	fw := &FileWAL{fs: fs, dir: dir, segCap: uint64(segSize), policy: policy, pos: 1}
	rd, err := fw.replay()
	if err != nil {
		fw.Close()
		return nil, nil, err
	}
	return fw, rd, nil
}

// Stats returns a snapshot of the physical-work counters.
func (fw *FileWAL) Stats() FileWALStats {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.stats
}

// Dir returns the WAL directory.
func (fw *FileWAL) Dir() string { return fw.dir }

// SegmentSize returns the data capacity of one segment: the size asked
// for, or the size of the segments an existing directory already holds.
func (fw *FileWAL) SegmentSize() int { return int(fw.segCap) }

// Watermarks returns the durable checkpoint anchor and recycle horizon:
// what the master record holds.
func (fw *FileWAL) Watermarks() (ckpt, horizon LSN) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.ckpt, fw.horizon
}

// Close closes the active segment file and any roll-deferred segments,
// and unlinks the free pool: it only saves an open log the cost of
// creating its next segment, so a closed directory holds no dead file
// (replay starts an empty pool). It does not sync: callers that need
// durability force the log first.
func (fw *FileWAL) Close() error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.closed = true
	for _, p := range fw.pendSync {
		p.f.Close()
	}
	fw.pendSync = nil
	for _, path := range fw.free {
		fw.fs.Remove(path)
	}
	fw.free = nil
	fw.rlo.Store(0)
	fw.rhi.Store(0)
	fw.dropReaders(func(uint64) bool { return true })
	if fw.cur != nil {
		err := fw.cur.Close()
		fw.cur = nil
		return err
	}
	return nil
}

func segName(base uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, base, segSuffix)
}

func encodeSegHeader(b []byte, segCap, base uint64) {
	copy(b[0:8], segMagic)
	binary.LittleEndian.PutUint32(b[8:], fileVersion)
	binary.LittleEndian.PutUint32(b[12:], uint32(segCap))
	binary.LittleEndian.PutUint64(b[16:], base)
	binary.LittleEndian.PutUint32(b[24:], crc32.Checksum(b[0:24], crcTable))
	binary.LittleEndian.PutUint32(b[28:], 0)
}

// checkHeader tests b as a header of at least n bytes that begins with
// magic, has its format version at [8:12), and a CRC32C over [0:crcAt)
// stored at crcAt: errNoHeader if it is not one, ErrLogVersion if it is
// one of another version.
func checkHeader(b []byte, n int, magic string, crcAt int) error {
	if len(b) < n || string(b[0:8]) != magic ||
		binary.LittleEndian.Uint32(b[crcAt:]) != crc32.Checksum(b[0:crcAt], crcTable) {
		return errNoHeader
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != fileVersion {
		return fmt.Errorf("format version %d, want %d: %w", v, fileVersion, ErrLogVersion)
	}
	return nil
}

func decodeSegHeader(b []byte) (segCap, base uint64, err error) {
	if err := checkHeader(b, segHdrLen, segMagic, 24); err != nil {
		return 0, 0, err
	}
	return uint64(binary.LittleEndian.Uint32(b[12:])), binary.LittleEndian.Uint64(b[16:]), nil
}

// writeMaster durably replaces the master record via tmp+rename.
// Caller holds fw.mu.
func (fw *FileWAL) writeMaster() error {
	b := encodeMaster(fw.ckpt, fw.horizon)
	tmp := filepath.Join(fw.dir, masterName+".tmp")
	f, err := fw.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(b[:], 0); err != nil {
		f.Close()
		return err
	}
	if fw.policy != SyncNever {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		fw.stats.Fsyncs++
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fw.fs.Rename(tmp, filepath.Join(fw.dir, masterName)); err != nil {
		return err
	}
	fw.stats.MasterWrites++
	return fw.syncDir()
}

// encodeMaster lays out the master record: the checkpoint anchor and the
// recycle horizon under a magic, the file version and a checksum.
func encodeMaster(ckpt, horizon LSN) (b [masterLen]byte) {
	copy(b[0:8], masterMagic)
	binary.LittleEndian.PutUint32(b[8:], fileVersion)
	binary.LittleEndian.PutUint64(b[12:], uint64(ckpt))
	binary.LittleEndian.PutUint64(b[20:], uint64(horizon))
	binary.LittleEndian.PutUint32(b[28:], crc32.Checksum(b[0:28], crcTable))
	return b
}

// readMaster reads the master record of the WAL directory dir. Any error
// but ErrLogVersion means there is no usable record: replay then scans
// every segment.
func readMaster(fs fsys.FS, dir string) (ckpt, horizon LSN, err error) {
	path := filepath.Join(dir, masterName)
	b, err := fsys.ReadFile(fs, path)
	if err != nil {
		return 0, 0, err
	}
	if ckpt, horizon, err = decodeMaster(b); err != nil {
		return 0, 0, fmt.Errorf("wal: master %s: %w", path, err)
	}
	return ckpt, horizon, nil
}

// decodeMaster parses a master record; anything but a whole record with a
// matching checksum is errNoHeader, and one of another format version
// ErrLogVersion.
func decodeMaster(b []byte) (ckpt, horizon LSN, err error) {
	if err := checkHeader(b, masterLen, masterMagic, 28); err != nil {
		return 0, 0, err
	}
	return LSN(binary.LittleEndian.Uint64(b[12:])), LSN(binary.LittleEndian.Uint64(b[20:])), nil
}

// readSegHeader reads and decodes the header of the segment file at path;
// errNoHeader and ErrLogVersion come from decodeSegHeader.
func readSegHeader(fs fsys.FS, path string) (segCap, base uint64, err error) {
	f, err := fs.OpenFile(path, os.O_RDONLY)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	hdr := make([]byte, segHdrLen)
	n, _ := f.ReadAt(hdr, 0)
	if segCap, base, err = decodeSegHeader(hdr[:n]); err != nil {
		return 0, 0, fmt.Errorf("wal: segment %s: %w", path, err)
	}
	return segCap, base, nil
}

func (fw *FileWAL) syncDir() error {
	if fw.policy == SyncNever {
		return nil
	}
	err := fw.fs.SyncDir(fw.dir)
	if err == nil {
		fw.stats.Fsyncs++
	}
	return err
}

// RedoWindowSegments is the redo window in WAL segments: the engine's
// background writer lets a dirty page lag the log tail by this many
// segments before writing it, so between two checkpoints the log grows by
// about this much — which is also all the free pool is ever asked for.
const RedoWindowSegments = 16

// removeIfPoolFull unlinks path, and reports that it did, when the free
// pool already holds its cap. Caller holds fw.mu.
func (fw *FileWAL) removeIfPoolFull(path string) bool {
	if len(fw.free) < RedoWindowSegments {
		return false
	}
	fw.fs.Remove(path)
	fw.stats.SegmentsRemoved++
	return true
}

// toFree renames path into the free pool for later reuse, or unlinks it
// when the pool already holds a redo window's worth: a retired segment
// beyond that is never reused, only counted against the directory's size.
// Caller holds fw.mu.
func (fw *FileWAL) toFree(path string) {
	if fw.removeIfPoolFull(path) {
		return
	}
	fw.freeSeq++
	dst := filepath.Join(fw.dir, fmt.Sprintf("%s%d%s", freePrefix, fw.freeSeq, segSuffix))
	if err := fw.fs.Rename(path, dst); err == nil {
		fw.free = append(fw.free, dst)
	} else {
		fw.fs.Remove(path)
	}
}

// replay scans the directory, validates and stitches the segment chain,
// walks the record stream from the horizon truncating at the first
// corrupt record, physically truncates the torn tail, and positions the
// writer at the end. Caller is OpenFileWAL (no lock needed yet).
func (fw *FileWAL) replay() (*Reader, error) {
	ckpt, horizon, err := readMaster(fw.fs, fw.dir)
	if errors.Is(err, ErrLogVersion) {
		return nil, err
	}
	masterOK := err == nil
	start := uint64(horizon)
	if start < 1 {
		start = 1
	}

	// Read every header before changing any file, so that a directory of
	// another format version is refused as it is.
	segs, pooled, torn, err := segFiles(fw.fs, fw.dir)
	if err != nil {
		return nil, err
	}
	for _, path := range pooled {
		idx := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), freePrefix), segSuffix)
		if n, err := strconv.Atoi(idx); err == nil && n > fw.freeSeq {
			fw.freeSeq = n
		}
		// Over the cap: a directory written before the cap existed.
		if !fw.removeIfPoolFull(path) {
			fw.free = append(fw.free, path)
		}
	}
	for _, path := range torn {
		// A crash between creating/renaming a segment file and completing
		// its header leaves an unparseable file; no data was ever
		// persisted into it, so it is safely recyclable.
		fw.toFree(path)
	}
	live := segs[:0]
	for _, s := range segs {
		if s.base+s.cap <= uint64(horizon) {
			// Dead segment that survived a crash mid-recycle: the master
			// horizon already covers it.
			fw.stats.SegmentsRetired++
			fw.toFree(s.path)
			continue
		}
		live = append(live, s)
	}
	segs = live

	if len(segs) == 0 {
		if horizon > 1 {
			return nil, fmt.Errorf("wal: master horizon %d but no segments: %w", horizon, ErrShortSegment)
		}
		fw.ckpt, fw.horizon = 0, 1
		fw.pos = 1
		fw.publishReadable()
		return nil, nil
	}
	if !masterOK && segs[0].base > 0 {
		// Recycling always writes the master first, so a missing master
		// with a truncated chain means the master itself was lost.
		return nil, fmt.Errorf("wal: segment chain starts at %d with no master record: %w", segs[0].base, ErrShortSegment)
	}
	if segs[0].base > start {
		return nil, fmt.Errorf("wal: horizon %d precedes first segment base %d: %w", start, segs[0].base, ErrShortSegment)
	}
	fw.segCap = segs[0].cap

	// Stitch the chain: contiguous bases, full-capacity interior
	// segments. A short interior segment orphans everything after it
	// (those records are unreachable without the missing bytes), so the
	// chain is cut there.
	var chain []segMeta
	end := uint64(0)
	for i, s := range segs {
		if s.cap != fw.segCap {
			return nil, fmt.Errorf("wal: segment %s capacity %d != %d: %w", filepath.Base(s.path), s.cap, fw.segCap, ErrShortSegment)
		}
		if i > 0 && s.base != chain[len(chain)-1].base+fw.segCap {
			return nil, fmt.Errorf("wal: segment gap between base %d and %d: %w", chain[len(chain)-1].base, s.base, ErrShortSegment)
		}
		size, err := fsys.Size(fw.fs, s.path)
		if err != nil {
			return nil, err
		}
		if size < segHdrLen {
			return nil, fmt.Errorf("wal: segment %s shorter than header: %w", filepath.Base(s.path), ErrShortSegment)
		}
		dataLen := uint64(size) - segHdrLen
		if dataLen > s.cap {
			dataLen = s.cap
		}
		chain = append(chain, s)
		end = s.base + dataLen
		if dataLen < s.cap {
			// Short segment: the stream ends here; later segments (if
			// any) are unreachable.
			for _, o := range segs[i+1:] {
				fw.stats.SegmentsRetired++
				fw.toFree(o.path)
			}
			break
		}
	}
	if end < start {
		end = start
	}

	// Load the byte stream [start, end) and walk records from the horizon.
	// buf is indexed relative to start, so its size follows the live
	// log, not the absolute LSN.
	buf := make([]byte, end-start)
	for _, s := range chain {
		lo, hi := max(s.base, start), min(s.base+fw.segCap, end)
		if hi <= lo {
			continue
		}
		f, err := fw.fs.OpenFile(s.path, os.O_RDONLY)
		if err != nil {
			return nil, err
		}
		_, err = f.ReadAt(buf[lo-start:hi-start], int64(segHdrLen+(lo-s.base)))
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	pos := start
	var rec Record
	for pos < end {
		n, err := decodeSharedInto(buf[pos-start:], LSN(pos), &rec)
		if err != nil {
			break
		}
		fw.stats.ReplayRecords++
		pos += uint64(n)
	}
	fw.stats.ReplayTruncated = int64(end - pos)
	end = pos

	// Physically truncate the torn tail so stale bytes from this
	// incarnation can never be misread as stable by the next one (a
	// once-valid record at the same offset would pass its CRC there).
	last := -1
	for i, s := range chain {
		if s.base < end || (i == 0 && end <= s.base) {
			last = i
		}
	}
	for i, s := range chain {
		if i > last {
			fw.stats.SegmentsRetired++
			fw.toFree(s.path)
			continue
		}
		if i == last {
			off := int64(segHdrLen)
			if end > s.base {
				off += int64(end - s.base)
			}
			if err := fw.truncate(s.path, off); err != nil {
				return nil, err
			}
		}
		fw.live = append(fw.live, s)
	}

	// Position the writer at end, inside the last live segment.
	tail := fw.live[len(fw.live)-1]
	f, err := fw.fs.OpenFile(tail.path, os.O_RDWR)
	if err != nil {
		return nil, err
	}
	fw.cur = f
	fw.curBase = tail.base
	fw.pos = end
	fw.ckpt, fw.horizon = ckpt, horizon
	if fw.horizon < 1 {
		fw.horizon = 1
	}
	fw.publishReadable()

	if end <= 1 {
		return nil, nil
	}
	rdCkpt := ckpt
	if rdCkpt >= LSN(end) || rdCkpt < LSN(start) {
		if horizon > 1 {
			return nil, fmt.Errorf("wal: checkpoint anchor %d outside replayable range [%d,%d): %w", rdCkpt, start, end, ErrCorruptRecord)
		}
		rdCkpt = NilLSN
	}
	return &Reader{buf: buf[:end-start], ckptLSN: rdCkpt, base: LSN(start)}, nil
}

// segFiles lists the WAL directory dir: the segments whose headers parse,
// in base order; the free pool's files; and the files whose header a
// crash tore. A header of another format version is ErrLogVersion.
func segFiles(fs fsys.FS, dir string) (segs []segMeta, pooled, torn []string, err error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, name := range names {
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		path := filepath.Join(dir, name)
		if strings.HasPrefix(name, freePrefix) {
			pooled = append(pooled, path)
			continue
		}
		segCap, base, err := readSegHeader(fs, path)
		switch {
		case errors.Is(err, errNoHeader):
			torn = append(torn, path)
		case err != nil:
			return nil, nil, nil, err
		default:
			segs = append(segs, segMeta{base: base, cap: segCap, path: path})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	return segs, pooled, torn, nil
}

// truncate cuts the file at path to size bytes.
func (fw *FileWAL) truncate(path string, size int64) error {
	f, err := fw.fs.OpenFile(path, os.O_RDWR)
	if err != nil {
		return err
	}
	err = f.Truncate(size)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// roll finalizes the active segment and opens the next one, reusing a
// free file when available. Caller holds fw.mu.
func (fw *FileWAL) roll() error {
	newBase := uint64(0)
	if fw.cur != nil {
		if fw.policy == SyncNever {
			if err := fw.cur.Close(); err != nil {
				return err
			}
		} else {
			// Defer the rolled segment's fsync+close to the next Commit:
			// the stable point has not advanced over these bytes yet, and
			// Commit drains pendSync before syncing the active segment,
			// so durability-on-ack is unchanged while the write stage
			// never stalls on the device.
			fw.pendSync = append(fw.pendSync, pendSeg{fw.cur, fw.curBase})
		}
		fw.cur = nil
		newBase = fw.curBase + fw.segCap
	}
	path := filepath.Join(fw.dir, segName(newBase))
	var f fsys.File
	var err error
	if n := len(fw.free); n > 0 {
		src := fw.free[n-1]
		fw.free = fw.free[:n-1]
		if err = fw.fs.Rename(src, path); err != nil {
			return err
		}
		if f, err = fw.fs.OpenFile(path, os.O_RDWR); err != nil {
			return err
		}
		// Drop the previous life's bytes: stale records self-invalidate
		// (their CRC covers their old LSN), but truncating keeps replay
		// from even reading them.
		if err = f.Truncate(segHdrLen); err != nil {
			f.Close()
			return err
		}
		fw.stats.SegmentsRecycled++
	} else {
		if f, err = fw.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR); err != nil {
			return err
		}
		fw.stats.SegmentsCreated++
	}
	hdr := make([]byte, segHdrLen)
	encodeSegHeader(hdr, fw.segCap, newBase)
	if _, err = f.WriteAt(hdr, 0); err != nil {
		f.Close()
		return err
	}
	fw.cur = f
	fw.curBase = newBase
	fw.live = append(fw.live, segMeta{base: newBase, cap: fw.segCap, path: path})
	return fw.syncDir()
}

// PersistV writes the log bytes starting at from from a sequence of
// buffers in as few syscalls as possible: all buffers landing in one
// segment file go down in a single pwritev-style vectored write,
// including the segment-crossing case (the batch is split at each
// segment boundary). Ranges arrive contiguous and in order from the
// Log's write stage.
func (fw *FileWAL) PersistV(from LSN, bufs [][]byte) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.closed {
		return errors.New("wal: file sink closed")
	}
	if uint64(from) != fw.pos {
		return fmt.Errorf("wal: non-contiguous persist at %d, expected %d", from, fw.pos)
	}
	fw.stats.Persists++
	var cur []byte
	bi := 0
	for {
		for len(cur) == 0 {
			if bi >= len(bufs) {
				return nil
			}
			cur = bufs[bi]
			bi++
		}
		if fw.cur == nil || fw.pos == fw.curBase+fw.segCap {
			if err := fw.roll(); err != nil {
				return err
			}
		}
		// Gather every buffer (or buffer prefix) that fits in the active
		// segment into one iovec batch.
		room := fw.curBase + fw.segCap - fw.pos
		off := int64(segHdrLen + (fw.pos - fw.curBase))
		iov := fw.iov[:0]
		n := uint64(0)
		for room > 0 {
			if len(cur) == 0 {
				if bi >= len(bufs) {
					break
				}
				cur = bufs[bi]
				bi++
				continue
			}
			take := uint64(len(cur))
			if take > room {
				take = room
			}
			iov = append(iov, cur[:take])
			cur = cur[take:]
			room -= take
			n += take
		}
		fw.iov = iov
		if n == 0 {
			continue
		}
		if err := fw.cur.WriteV(iov, off); err != nil {
			return err
		}
		for i := range iov {
			iov[i] = nil
		}
		fw.pos += n
		fw.stats.BytesPersisted += int64(n)
		fw.publishReadable()
	}
}

// Commit makes everything persisted so far durable, per policy: it
// drains the roll-deferred segment fsyncs, then syncs the active
// segment. The fsyncs run outside fw.mu so the write stage (Persist
// into the active segment) proceeds concurrently — callers (the Log's
// sync stage) already serialize Commit itself.
func (fw *FileWAL) Commit() error {
	fw.mu.Lock()
	if fw.policy == SyncNever || fw.closed {
		fw.mu.Unlock()
		return nil
	}
	pend := fw.pendSync
	fw.pendSync = nil
	cur := fw.cur
	fw.mu.Unlock()

	var nsync int64
	fail := func(err error) error {
		for _, p := range pend {
			p.f.Close()
		}
		return err
	}
	for len(pend) > 0 {
		f := pend[0].f
		pend = pend[1:]
		if err := f.Sync(); err != nil {
			f.Close()
			return fail(err)
		}
		nsync++
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}
	if cur != nil {
		if err := cur.Sync(); err != nil {
			return err
		}
		nsync++
	}
	fw.mu.Lock()
	fw.stats.Fsyncs += nsync
	fw.mu.Unlock()
	return nil
}

// Rewind truncates the persisted stream back to `to`, dropping
// written-but-unsynced bytes after a failed or torn sync so the files
// agree with the in-memory stable point. Segments wholly at or beyond
// the rewind point go back to the free pool; the segment containing the
// rewind point becomes the (truncated) active segment. The owning Log
// is latched damaged by the caller, so no further Persist follows.
func (fw *FileWAL) Rewind(to LSN) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	t := uint64(to)
	if fw.closed || t >= fw.pos {
		return nil
	}
	if fw.cur != nil {
		fw.cur.Close()
		fw.cur = nil
	}
	for _, p := range fw.pendSync {
		// A rolled-out segment wholly below the rewind point holds bytes
		// the caller keeps: a torn sync's surviving prefix.
		if p.base+fw.segCap <= t && fw.policy != SyncNever {
			_ = p.f.Sync()
		}
		p.f.Close()
	}
	fw.pendSync = nil
	fw.pos = t
	fw.publishReadable()
	fw.dropReaders(func(base uint64) bool { return base+fw.segCap > t })
	keep := fw.live[:0]
	for _, s := range fw.live {
		if s.base >= t {
			fw.stats.SegmentsRetired++
			fw.toFree(s.path)
			continue
		}
		keep = append(keep, s)
	}
	fw.live = keep
	fw.curBase = 0
	if len(fw.live) == 0 {
		return nil
	}
	tail := fw.live[len(fw.live)-1]
	f, err := fw.fs.OpenFile(tail.path, os.O_RDWR)
	if err != nil {
		return err
	}
	if err := f.Truncate(int64(segHdrLen + (t - tail.base))); err != nil {
		f.Close()
		return err
	}
	fw.cur = f
	fw.curBase = tail.base
	return nil
}

// PersistPartial writes b at from without advancing the persisted
// position — the file-layer image of a device that tore mid-record.
// Best effort; clipped to the active segment.
func (fw *FileWAL) PersistPartial(from LSN, b []byte) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.cur == nil || uint64(from) < fw.curBase {
		return nil
	}
	off := uint64(from) - fw.curBase
	if off >= fw.segCap {
		return nil
	}
	if max := fw.segCap - off; uint64(len(b)) > max {
		b = b[:max]
	}
	_, err := fw.cur.WriteAt(b, int64(segHdrLen+off))
	return err
}

// NoteCheckpoint durably records the checkpoint anchor in the master
// file.
func (fw *FileWAL) NoteCheckpoint(lsn LSN) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.ckpt = lsn
	return fw.writeMaster()
}

// Recycle retires every segment wholly below horizon. The master record
// is durably updated with the new horizon BEFORE any segment is touched:
// if the process dies between the two steps, replay sees the new horizon
// and ignores the dead segments whether or not their files survived.
func (fw *FileWAL) Recycle(horizon LSN) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if horizon <= fw.horizon {
		return nil
	}
	fw.horizon = horizon
	if err := fw.writeMaster(); err != nil {
		return err
	}
	fw.publishReadable()
	fw.dropReaders(func(base uint64) bool { return base+fw.segCap <= uint64(horizon) })
	keep := fw.live[:0]
	for _, s := range fw.live {
		if s.base+s.cap <= uint64(horizon) && s.base != fw.curBase {
			fw.stats.SegmentsRetired++
			fw.toFree(s.path)
			continue
		}
		keep = append(keep, s)
	}
	fw.live = keep
	return nil
}

// AppendFrame appends the record frame at lsn, from the segment files, to
// dst: the read-back surface the log uses below its buffer. A frame below
// the recycle horizon or past the persisted end is an error. It does not
// check the frame: Log.ReadAppend decodes it, and refuses a frame that
// fails its checksum or carries another LSN, which is what a retired and
// reused segment holds now.
func (fw *FileWAL) AppendFrame(dst []byte, lsn LSN) ([]byte, error) {
	n, hi := len(dst), fw.rhi.Load()
	if uint64(lsn) >= hi {
		return dst, fmt.Errorf("wal: record %d at or past the persisted end %d: %w", lsn, hi, ErrCorruptRecord)
	}
	// One read covers most frames whole; a longer one takes a second.
	got := min(frameGuess, hi-uint64(lsn))
	dst = slices.Grow(dst, frameGuess)[:n+int(got)]
	if err := fw.readFull(dst[n:], uint64(lsn)); err != nil {
		return dst[:n], fmt.Errorf("wal: read record %d: %w", lsn, err)
	}
	total := uint64(minFrame - 1)
	if got >= 4 {
		total = uint64(binary.LittleEndian.Uint32(dst[n:]))
	}
	if total < minFrame || uint64(lsn)+total > hi {
		return dst[:n], fmt.Errorf("wal: record %d: %w", lsn, ErrCorruptRecord)
	}
	if total <= got {
		return dst[:n+int(total)], nil
	}
	dst = slices.Grow(dst, int(total-got))[:n+int(total)]
	if err := fw.readFull(dst[n+int(got):], uint64(lsn)+got); err != nil {
		return dst[:n], fmt.Errorf("wal: read record %d: %w", lsn, err)
	}
	return dst, nil
}

// frameGuess is what AppendFrame reads before it knows a frame's length:
// most frames fit whole.
const frameGuess = 256

// publishReadable publishes the LSN range the segment files can be read
// in. Caller holds fw.mu.
func (fw *FileWAL) publishReadable() {
	fw.rlo.Store(uint64(fw.horizon))
	fw.rhi.Store(fw.pos)
}

// readFull fills dst with the log bytes starting at off, from as many
// segments as they span. Bytes outside the readable range are an error.
func (fw *FileWAL) readFull(dst []byte, off uint64) error {
	for len(dst) > 0 {
		base := off - off%fw.segCap
		n := min(uint64(len(dst)), base+fw.segCap-off)
		if err := fw.readSeg(base, dst[:n], off); err != nil {
			return err
		}
		dst, off = dst[n:], off+n
	}
	return nil
}

// readSeg copies the log bytes at off, inside the segment based at base,
// into dst, opening a reader on the segment the first time. The range check
// and the copy both happen under rmu held shared (see rseg).
func (fw *FileWAL) readSeg(base uint64, dst []byte, off uint64) error {
	fw.rmu.RLock()
	defer fw.rmu.RUnlock()
	readable := func() error {
		if lo, hi := fw.rlo.Load(), fw.rhi.Load(); off < lo || off+uint64(len(dst)) > hi {
			return fmt.Errorf("wal: log bytes [%d,%d) outside the segment files [%d,%d): %w", off, off+uint64(len(dst)), lo, hi, ErrCorruptRecord)
		}
		return nil
	}
	if err := readable(); err != nil {
		return err
	}
	r := fw.rseg[base]
	if r == nil {
		fw.rmu.RUnlock()
		fw.rmu.Lock()
		var err error
		if r = fw.rseg[base]; r == nil {
			r, err = fw.fs.Map(filepath.Join(fw.dir, segName(base)), int(segHdrLen+fw.segCap))
			if err == nil {
				if fw.rseg == nil {
					fw.rseg = make(map[uint64]fsys.Mapping)
				}
				fw.rseg[base] = r
			}
		}
		fw.rmu.Unlock()
		fw.rmu.RLock()
		if err != nil {
			return err
		}
		// The range may have narrowed, and the reader gone, while rmu was
		// free.
		if err := readable(); err != nil {
			return err
		}
		if r = fw.rseg[base]; r == nil {
			return fmt.Errorf("wal: segment at %d retired during the read: %w", base, ErrCorruptRecord)
		}
	}
	_, err := r.ReadAt(dst, int64(segHdrLen+off-base))
	return err
}

// dropReaders closes the readers of the segments retire names. Caller
// holds fw.mu and has already published the narrowed readable range.
func (fw *FileWAL) dropReaders(retire func(base uint64) bool) {
	fw.rmu.Lock()
	for base, r := range fw.rseg {
		if retire(base) {
			r.Close()
			delete(fw.rseg, base)
		}
	}
	fw.rmu.Unlock()
}
