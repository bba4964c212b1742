// Package wal implements the write-ahead log the paper's recovery
// assumptions require (§4.3): every update is logged before the page it
// changed can reach the stable database, and atomic actions are only
// "relatively" durable — their commit records need not force the log,
// because the first dependent transaction commit forces it for them.
//
// The log is modeled as an append-only byte sequence. An LSN is the byte
// offset at which a record starts, so LSNs are monotone and recovery can
// scan from any record boundary. A Force writes the sequence into WAL
// segment files (FileWAL) and syncs them; the tail beyond the last Force
// is volatile, lost in a crash.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/fsys"
)

// LSN is a log sequence number: the byte offset of a record's start in the
// log. NilLSN (0) means "no record"; the log begins at offset 1 so that 0
// is never a valid record position.
type LSN uint64

// NilLSN is the null LSN.
const NilLSN LSN = 0

// TxnID identifies a database transaction or an atomic action (which is a
// system transaction, one of the identification options of §4.3.2).
type TxnID uint64

// NilTxn is the null transaction ID.
const NilTxn TxnID = 0

// RecType discriminates log record types.
type RecType uint16

// Log record types. Update and CLR carry a Kind that the handler registry
// in package recovery dispatches on; the WAL itself never interprets
// payloads.
const (
	RecInvalid RecType = iota
	// RecBegin is reserved and no longer written: a transaction's first
	// record — the one with a nil PrevLSN — is all the begin it has.
	RecBegin
	// RecCommit marks a commit. For user transactions commit forces the
	// log; atomic-action commits rely on relative durability and do not.
	RecCommit
	// RecAbort marks the decision to roll back.
	RecAbort
	// RecEnd marks the completion of a rollback. A commit is complete at
	// its commit record and writes none.
	RecEnd
	// RecUpdate is a physiological page update with redo and undo parts.
	RecUpdate
	// RecCLR is a compensation log record written during undo; it is
	// redo-only and carries UndoNext, the next record of the transaction
	// to undo.
	RecCLR
	// RecCheckpoint carries the fuzzy-checkpoint snapshot (transaction
	// table and dirty page table) encoded by package recovery.
	RecCheckpoint
	// RecDummyCLR implements a nested top-level action: it backs the
	// enclosing transaction's undo chain over the NTA's records, making
	// them unconditionally durable with respect to that transaction.
	RecDummyCLR
)

// String renders the record type for diagnostics.
func (t RecType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecEnd:
		return "END"
	case RecUpdate:
		return "UPDATE"
	case RecCLR:
		return "CLR"
	case RecCheckpoint:
		return "CKPT"
	case RecDummyCLR:
		return "DUMMYCLR"
	default:
		return fmt.Sprintf("RecType(%d)", uint16(t))
	}
}

// Flags annotate records.
type Flags uint16

const (
	// FlagSystem marks records belonging to an atomic action (system
	// transaction) rather than a user database transaction.
	FlagSystem Flags = 1 << iota
)

// Kind identifies the operation an Update or CLR record describes; the
// recovery handler registry maps Kinds to redo/undo procedures. Kinds are
// allocated by the packages that own the pages (storage metadata, core
// tree, tsb tree, spatial tree).
type Kind uint16

// Record is one log record. StoreID and PageID locate the affected page
// for physiological updates; they are zero for purely transactional
// records.
type Record struct {
	LSN      LSN // assigned by Append
	Type     RecType
	Flags    Flags
	Kind     Kind
	TxnID    TxnID
	PrevLSN  LSN // previous record of the same transaction
	UndoNext LSN // CLR/DummyCLR: next record to undo for this transaction
	StoreID  uint32
	PageID   uint64
	// PagePrev is the previous record of the same page, whose LSN the page
	// carried when this record was logged: the page's own chain, which a
	// buffer pool replays to rebuild a page it dropped dirty. NilLSN for a
	// page's first record and for a record of no page.
	PagePrev LSN
	Payload  []byte

	// chain is nonzero when PrevLSN is the record just before this one in
	// an AppendGroup reservation: it is that record's size, and the frame
	// stores it in place of PrevLSN (an appender knows its predecessor's
	// size before it knows either LSN). Set by AppendGroup and by decoding.
	chain uint32
}

// IsSystem reports whether the record belongs to an atomic action.
func (r *Record) IsSystem() bool { return r.Flags&FlagSystem != 0 }

// The record frame, since format version 2 (file.go's format comment has the
// layout, DESIGN.md §16 the reasons): a fixed len | crc | lsn prefix that
// the boundary walkers read without decoding, one tag byte — the type in
// its low four bits, FlagSystem, and a presence bit per optional group —
// then uvarints. The operation group (kind, store id, page id, and the
// distance back to PagePrev, 0 for none) is written when any of the first
// three is nonzero, so a commit pays for none of them.
const (
	framePrefix = 4 + 4 + 8           // len, crc, lsn
	minFrame    = framePrefix + 1 + 1 // tag and a one-byte txn

	tagType   = 0x0f
	tagSystem = 1 << 4
	tagPrev   = 1 << 5
	tagUndo   = 1 << 6
	tagOp     = 1 << 7
)

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return 1 + (bits.Len64(v|1)-1)/7 }

// hasOp reports whether the record carries the operation group.
func (r *Record) hasOp() bool { return r.Kind != 0 || r.StoreID != 0 || r.PageID != 0 }

// pagePrevDist is the distance back from the record to PagePrev, the form
// the frame stores it in; 0 for none.
func (r *Record) pagePrevDist() uint64 {
	if r.PagePrev == NilLSN {
		return 0
	}
	return uint64(r.LSN - r.PagePrev)
}

// Size returns the bytes the record occupies in the log: the next record
// starts at r.LSN + Size. It depends on r.LSN only through the distance
// back to PagePrev, so an appender sizes a record at the LSN it is about
// to reserve (see reserve).
func (r *Record) Size() int {
	n := minFrame - 1 + uvarintLen(uint64(r.TxnID)) + len(r.Payload)
	switch {
	case r.chain != 0:
		n += 1 + uvarintLen(uint64(r.chain))
	case r.PrevLSN != NilLSN:
		n += uvarintLen(uint64(r.PrevLSN))
	}
	if r.UndoNext != NilLSN {
		n += uvarintLen(uint64(r.UndoNext))
	}
	if r.hasOp() {
		n += uvarintLen(uint64(r.Kind)) + uvarintLen(uint64(r.StoreID)) + uvarintLen(r.PageID) + uvarintLen(r.pagePrevDist())
	}
	return n
}

// mustFrame panics on a record the frame cannot carry: a type above 15 or
// a flag other than FlagSystem. Appenders call it before reserving space.
func mustFrame(r *Record) {
	if r.Type > tagType || r.Flags&^FlagSystem != 0 {
		panic(fmt.Sprintf("wal: record type %d, flags %#x not representable", r.Type, r.Flags))
	}
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeInto writes the wire form of r into b, which must be exactly
// r.Size() bytes. The record's LSN is part of the frame and covered by the
// CRC: a decoder can therefore verify not only that the bytes are intact
// but that the record actually belongs at the position it was read from,
// which is what gives file replay its LSN continuity check (a recycled
// segment's stale-but-intact records carry old LSNs and are rejected).
func encodeInto(b []byte, r *Record) {
	total := len(b)
	binary.LittleEndian.PutUint32(b[0:], uint32(total))
	// CRC filled below over bytes [8:total].
	binary.LittleEndian.PutUint64(b[8:], uint64(r.LSN))
	tag := byte(r.Type)
	if r.IsSystem() {
		tag |= tagSystem
	}
	off := framePrefix + 1
	off += binary.PutUvarint(b[off:], uint64(r.TxnID))
	switch {
	case r.chain != 0:
		tag |= tagPrev
		b[off] = 0
		off++
		off += binary.PutUvarint(b[off:], uint64(r.chain))
	case r.PrevLSN != NilLSN:
		tag |= tagPrev
		off += binary.PutUvarint(b[off:], uint64(r.PrevLSN))
	}
	if r.UndoNext != NilLSN {
		tag |= tagUndo
		off += binary.PutUvarint(b[off:], uint64(r.UndoNext))
	}
	if r.hasOp() {
		tag |= tagOp
		off += binary.PutUvarint(b[off:], uint64(r.Kind))
		off += binary.PutUvarint(b[off:], uint64(r.StoreID))
		off += binary.PutUvarint(b[off:], r.PageID)
		off += binary.PutUvarint(b[off:], r.pagePrevDist())
	}
	b[framePrefix] = tag
	copy(b[off:], r.Payload)
	crc := crc32.Checksum(b[8:total], crcTable)
	binary.LittleEndian.PutUint32(b[4:], crc)
}

// ErrCorruptRecord reports a torn or corrupt log record (bad length, CRC
// mismatch, or a stored LSN that does not match the record's position).
// Replay treats the first corrupt record as the end of the log. It is the
// durability layer's classification sentinel: errors.Is(err,
// ErrCorruptRecord) matches every framing failure.
var ErrCorruptRecord = errors.New("wal: torn or corrupt record")

// ErrBadRecord is the historical name of ErrCorruptRecord.
var ErrBadRecord = ErrCorruptRecord

// ErrLogFailed is wrapped by every stable-sync error once the log device
// has failed (permanently, by a torn sync, or by exhausting transient
// retries). The failure is sticky: a record whose force returned an
// error wrapping ErrLogFailed can never later become stable, which is
// what lets the transaction layer roll back an unacknowledged commit
// and the engine degrade to read-only instead of panicking.
var ErrLogFailed = errors.New("wal: log device failed")

// FPSync is the failpoint probed on every physical stable-prefix sync
// (Force, ForceGroup rounds, ForceAll). A Transient fault is retried
// with backoff inside the sync; Permanent (or retries exhausted) latches
// the log damaged; Torn advances stability only to a seeded earlier
// record boundary before latching.
const FPSync = "wal.sync"

// FPSyncSlow is a latency-only failpoint probed at the start of every
// sync stage. Arm it with a fault.Spec carrying Delay (Kind None) to
// stall a sync without failing it: the stall holds the pipeline's sync
// stage open so tests can observe write/sync overlap deterministically.
const FPSyncSlow = "wal.sync.slow"

// FPWrite is the failpoint probed when the pipeline's write stage
// completes — after the stable-prefix delta reached the segment files
// but before any sync covers it. A crash-armed spec here models dying between a commit's pwrite
// and its fsync: the bytes are in the files' page cache, the committer
// was never acknowledged.
const FPWrite = "wal.write"

// maxSyncRetries bounds in-sync retries of an injected transient fault.
const maxSyncRetries = 4

// decodeShared parses one record starting at b[0]. It returns the record
// and its encoded length. The record's Payload aliases b instead of
// copying it, so callers must treat it as read-only for as long as b is
// shared; restart's planner and redo workers rely on this to read a log
// image without one allocation per record (images are immutable
// snapshots, so the alias can never observe a mutation).
func decodeShared(b []byte) (Record, int, error) {
	var r Record
	total, err := decodeSharedInto(b, &r)
	return r, total, err
}

// decodeSharedInto is decodeShared writing into a caller-provided record,
// so a scan can reuse one Record across the whole log instead of copying
// a fresh struct per record.
//
// Only the bytes encodeInto writes for some record are accepted: every
// uvarint is minimal and in range, and a group the tag marks present is
// not all zeros — so a decoded record re-encodes to the same bytes.
func decodeSharedInto(b []byte, r *Record) (int, error) {
	if len(b) < minFrame {
		return 0, ErrBadRecord
	}
	total := int(binary.LittleEndian.Uint32(b[0:]))
	if total < minFrame || total > len(b) {
		return 0, ErrBadRecord
	}
	crc := binary.LittleEndian.Uint32(b[4:])
	if crc32.Checksum(b[8:total], crcTable) != crc {
		return 0, ErrBadRecord
	}
	tag := b[framePrefix]
	f := frameReader{b: b[:total], off: framePrefix + 1}
	*r = Record{
		LSN:   LSN(binary.LittleEndian.Uint64(b[8:])),
		Type:  RecType(tag & tagType),
		TxnID: TxnID(f.uvarint(math.MaxUint64)),
	}
	if tag&tagSystem != 0 {
		r.Flags = FlagSystem
	}
	if tag&tagPrev != 0 {
		if f.off < total && b[f.off] == 0 {
			f.off++
			d := f.uvarint(math.MaxUint32)
			f.bad = f.bad || d == 0 || d >= uint64(r.LSN)
			r.chain = uint32(d)
			r.PrevLSN = r.LSN - LSN(d)
		} else {
			r.PrevLSN = LSN(f.uvarint(math.MaxUint64))
		}
	}
	if tag&tagUndo != 0 {
		r.UndoNext = LSN(f.uvarint(math.MaxUint64))
		f.bad = f.bad || r.UndoNext == NilLSN
	}
	if tag&tagOp != 0 {
		r.Kind = Kind(f.uvarint(math.MaxUint16))
		r.StoreID = uint32(f.uvarint(math.MaxUint32))
		r.PageID = f.uvarint(math.MaxUint64)
		if d := f.uvarint(math.MaxUint64); d != 0 {
			f.bad = f.bad || d >= uint64(r.LSN)
			r.PagePrev = r.LSN - LSN(d)
		}
		f.bad = f.bad || !r.hasOp()
	}
	if f.bad {
		return 0, ErrBadRecord
	}
	if f.off < total {
		r.Payload = b[f.off:total]
	}
	return total, nil
}

// frameReader reads the uvarints of one frame; bad latches the first
// truncated, overlong, non-minimal or out-of-range one.
type frameReader struct {
	b   []byte
	off int
	bad bool
}

func (f *frameReader) uvarint(max uint64) uint64 {
	if f.bad {
		return 0
	}
	v, n := binary.Uvarint(f.b[f.off:])
	if n <= 0 || v > max || (n > 1 && f.b[f.off+n-1] == 0) {
		f.bad = true
		return 0
	}
	f.off += n
	return v
}

// Log buffer geometry. The log lives in fixed-size segments so that the
// buffer grows without ever re-copying earlier records (a single
// append-grown slice re-copies the whole log on every doubling) and so
// that concurrent appenders can copy into disjoint reserved ranges
// without any shared lock.
const (
	segShift = 16 // 64 KiB segments
	segSize  = 1 << segShift
	segMask  = segSize - 1

	// inflightSlots bounds the number of concurrently reserving
	// appenders; excess appenders spin briefly for a free slot.
	inflightSlots = 64

	// idleSlot marks an in-flight slot as unused.
	idleSlot = ^uint64(0)
)

// inflightSlot is one publication slot, padded to a cache line so
// concurrent appenders do not false-share.
type inflightSlot struct {
	v atomic.Uint64
	_ [56]byte
}

// Log is the log manager. It is safe for concurrent use.
//
// Appends are lock-free: an appender reserves LSN space with an atomic
// fetch-add on tail, copies the encoded record into its reserved range
// of the segmented buffer, and publishes completion by clearing its
// in-flight slot. A slot holds a lower bound on the owner's start offset
// from before the reservation is made, so the minimum over the active
// slots (capped at tail) is a watermark below which every byte is fully
// copied. Force only ever advances stability over that fully-published
// prefix, waiting out any holes left by still-copying appenders — group
// commit without blocking them.
type Log struct {
	tail    atomic.Uint64 // next free byte offset; offset 0 is a pad so LSN 0 is invalid
	appends atomic.Int64

	segs   atomic.Pointer[segDir] // current generation of the segment directory
	growMu sync.Mutex             // serializes directory growth and trimming only

	inflight [inflightSlots]inflightSlot
	slotHint atomic.Uint32 // rotates claim start points across appenders

	mu         sync.Mutex // watermark/anchor state below
	stableLSN  LSN        // bytes [ :stableLSN] survive a crash
	writtenLSN LSN        // bytes [ :writtenLSN] are in the sink, not necessarily synced
	ckptLSN    LSN        // master-record anchor: LSN of the last stable checkpoint
	flushes    int64      // number of sync rounds that advanced stableLSN
	start      LSN        // first readable LSN (> 1 after segment recycling)
	sink       *FileWAL   // the segment files holding the stable prefix

	// Flush pipeline. The stable-prefix advance is split into two stages
	// with at most one outstanding each: the write stage (wrMu) waits out
	// publication holes and hands the delta to the sink (pwrite), the
	// sync stage (syMu) makes everything written durable (fsync) and
	// advances stableLSN. Stages on different rounds overlap — the next
	// round's write runs while the previous round's sync is in flight —
	// but stableLSN only ever advances in sync order, so the stable
	// prefix remains exactly the synced prefix. iovecs is write-stage
	// scratch space, guarded by wrMu.
	wrMu   sync.Mutex
	syMu   sync.Mutex
	iovecs [][]byte

	// Group-commit state (ForceGroup). gcMu is taken only on the commit
	// path and never while holding l.mu, wrMu, or syMu.
	gcMu       sync.Mutex
	gcCond     *sync.Cond
	wLeader    bool  // a committer is driving the write stage
	sLeader    bool  // a committer is driving the sync stage
	gcMax      LSN   // highest LSN registered by any committer
	gcErr      error // sticky first round failure (the log is damaged)
	gcRounds   int64 // sync rounds
	wRounds    int64 // write rounds
	overlaps   int64 // write rounds begun while a sync was in flight
	gcRequests atomic.Int64
	syncNanos  atomic.Int64 // cumulative wall time inside device syncs

	// Fault injection. inj is set once before concurrent use; damaged
	// latches sticky on the first failed sync.
	inj     *fault.Injector
	damaged atomic.Bool
}

// SetInjector attaches a fault injector whose wal.sync failpoint governs
// stable-prefix syncs. Must be called before the log is used
// concurrently.
func (l *Log) SetInjector(inj *fault.Injector) { l.inj = inj }

// SetSink moves the log's stable prefix to fw's segment files. Must be
// called before the log is used concurrently, and fw must already be
// positioned at the log's current stable LSN (a fresh FileWAL for a fresh
// log, or a replayed one for a log built with NewFromImage on its
// reader).
func (l *Log) SetSink(fw *FileWAL) { l.sink = fw }

// Damaged reports whether the log device has failed. Once true, every
// force of a not-yet-stable record fails; already-stable records stay
// stable and readable.
func (l *Log) Damaged() bool { return l.damaged.Load() }

// MarkDamaged latches the log damaged as a failed device sync does: no
// record that is not stable yet ever becomes stable, so no later commit is
// acknowledged, and written-but-unsynced bytes are rewound out of the sink.
// The transaction layer calls it when memory holds changes that restart
// will undo but that later commits could build on.
func (l *Log) MarkDamaged() {
	l.wrMu.Lock()
	defer l.wrMu.Unlock()
	l.syMu.Lock()
	defer l.syMu.Unlock()
	l.damaged.Store(true)
	l.rewindSink(uint64(l.StableLSN()))
}

// segDir is one generation of the log buffer's segment directory: the
// segSize segments covering byte offsets [first<<segShift, end()). A
// published generation is immutable except that its backing array may be
// appended to within capacity (see ensure), which readers of an older
// generation never observe. Growth and trimming publish a fresh
// generation; a goroutine keeps using the one it loaded, whose segments
// stay alive (and shared with every later generation that still covers
// them) for as long as it holds the pointer.
type segDir struct {
	first uint64 // offset>>segShift of segs[0]
	segs  [][]byte
}

// seg returns the segment containing byte offset off.
func (d *segDir) seg(off uint64) []byte { return d.segs[(off>>segShift)-d.first] }

// start and end bound the byte offsets the directory covers.
func (d *segDir) start() uint64 { return d.first << segShift }
func (d *segDir) end() uint64   { return (d.first + uint64(len(d.segs))) << segShift }

// New returns an empty log whose stable prefix goes to a fresh in-memory
// file system (SetSink moves it).
func New() *Log {
	l, _, err := OpenLog(fsys.NewMem(), "wal", 0, SyncAlways)
	if err != nil {
		panic(fmt.Sprintf("wal: open an empty in-memory log: %v", err))
	}
	return l
}

// OpenLog opens the WAL in the directory dir of fs (see Open) and returns
// the log that continues it: built from the replayed image, which is also
// returned (nil for an empty log), with its stable prefix going to the
// directory's segment files.
func OpenLog(fs fsys.FS, dir string, segSize int, policy SyncPolicy) (*Log, *Reader, error) {
	fw, rd, err := Open(fs, dir, segSize, policy)
	if err != nil {
		return nil, nil, err
	}
	l := newLog(1)
	if rd != nil {
		l = NewFromImage(rd)
	}
	l.sink = fw
	return l, rd, nil
}

// File returns the segment files the log's stable prefix goes to.
func (l *Log) File() *FileWAL { return l.sink }

// newLog returns an empty log whose first record will sit at start: the
// buffer holds nothing below start's segment.
func newLog(start LSN) *Log {
	l := &Log{stableLSN: start, writtenLSN: start, start: start}
	l.gcCond = sync.NewCond(&l.gcMu)
	l.tail.Store(uint64(start))
	l.segs.Store(&segDir{first: uint64(start) >> segShift, segs: [][]byte{make([]byte, segSize)}})
	for i := range l.inflight {
		l.inflight[i].v.Store(idleSlot)
	}
	return l
}

// SetPipelined is a no-op: pipelining is unconditional. Kept until the
// benchmark module drops its call (benchmark/probes.go).
func (l *Log) SetPipelined(bool) {}

// NewFromImage continues a log from a crash image: the image's contents
// become the stable prefix and appends resume after it, preserving LSN
// continuity across restart exactly as a real single log would. The
// buffer starts at the image's first readable record, so its size follows
// the live log, not the absolute LSN.
func NewFromImage(r *Reader) *Log {
	l := newLog(r.base)
	if len(r.buf) > 0 {
		end := uint64(r.EndLSN())
		copyIn(l.ensure(end), uint64(r.base), r.buf)
		l.tail.Store(end)
		l.stableLSN = LSN(end)
		l.writtenLSN = LSN(end)
	}
	l.ckptLSN = r.ckptLSN
	return l
}

// ensure returns a segment directory covering every byte below end,
// allocating segments as needed.
func (l *Log) ensure(end uint64) *segDir {
	d := l.segs.Load()
	if d.end() >= end {
		return d
	}
	l.growMu.Lock()
	d = l.segs.Load()
	if d.end() < end {
		need := int((end+segSize-1)>>segShift - d.first)
		ns := d.segs
		if cap(ns) < need {
			// Grow the directory geometrically so the pointer array is
			// not re-copied on every new segment.
			newCap := 2 * cap(ns)
			if newCap < need {
				newCap = need
			}
			if newCap < 64 {
				newCap = 64
			}
			ns = make([][]byte, len(d.segs), newCap)
			copy(ns, d.segs)
		}
		// Appending within capacity only writes indices at or beyond
		// every published generation's length, so concurrent readers of
		// an older generation never observe them.
		for len(ns) < need {
			ns = append(ns, make([]byte, segSize))
		}
		d = &segDir{first: d.first, segs: ns}
		l.segs.Store(d)
	}
	l.growMu.Unlock()
	return d
}

// ReleaseBelow drops the buffered bytes no in-memory reader can ask for
// again: whole segments below min(floor, stable point). floor is the
// caller's retention bound — the first record of the oldest transaction
// that may still roll back, since rollback is the only reader of old
// records during normal processing (redo and analysis only ever run from
// the segment files, after a crash; a released record is read back from
// them). It must be a record boundary; it becomes the log's first
// readable LSN. The stable point bounds the release because a failed or
// torn sync re-reads the written-but-unsynced range from memory. The call
// is O(1) when no whole segment lies below the bound.
func (l *Log) ReleaseBelow(floor LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if floor > l.stableLSN {
		floor = l.stableLSN
	}
	keep := uint64(floor) >> segShift
	if keep <= l.segs.Load().first {
		return
	}
	l.growMu.Lock()
	d := l.segs.Load()
	// keep is at most one past the last segment: the floor is no higher
	// than the tail, and every byte below the tail is allocated.
	drop := int(keep - d.first)
	// A fresh backing array, so the released segments lose their last
	// reference once every holder of an older generation moves on.
	ns := make([][]byte, len(d.segs)-drop, len(d.segs)-drop+64)
	copy(ns, d.segs[drop:])
	l.segs.Store(&segDir{first: keep, segs: ns})
	l.growMu.Unlock()
	l.start = floor
}

// BufferStats reports the in-memory log buffer's extent: the bytes of
// segment memory it holds and its first readable LSN (1, or a recovered
// image's start, until ReleaseBelow advances it).
func (l *Log) BufferStats() (bufferedBytes uint64, start LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(len(l.segs.Load().segs)) << segShift, l.start
}

// copyIn copies b into the segmented buffer at off; the range must lie
// within already-allocated segments.
func copyIn(d *segDir, off uint64, b []byte) {
	for len(b) > 0 {
		n := copy(d.seg(off)[off&segMask:], b)
		b = b[n:]
		off += uint64(n)
	}
}

// copyOut copies len(dst) bytes starting at off out of the segmented
// buffer.
func copyOut(d *segDir, dst []byte, off uint64) {
	for len(dst) > 0 {
		n := copy(dst, d.seg(off)[off&segMask:])
		dst = dst[n:]
		off += uint64(n)
	}
}

// claimSlot reserves one in-flight publication slot, pre-charged with a
// lower bound on the caller's eventual start offset. All inflightSlots
// slots busy means more than inflightSlots appenders are mid-copy; each
// copy is short (an in-memory memcpy), so slots normally free up within
// a few probes. Under heavier oversubscription the claimant yields for
// the first laps, then backs off to a real sleep so that spinning
// claimants cannot starve the very copiers they are waiting on.
func (l *Log) claimSlot() *atomic.Uint64 {
	i := l.slotHint.Add(1)
	for attempt := 0; ; attempt++ {
		s := &l.inflight[(i+uint32(attempt))%inflightSlots].v
		// The bound must be loaded before the CAS makes the slot visible
		// and before the reservation, so it never exceeds the start.
		bound := l.tail.Load()
		if s.CompareAndSwap(idleSlot, bound) {
			return s
		}
		if attempt%inflightSlots == inflightSlots-1 {
			if lap := attempt / inflightSlots; lap < 4 {
				runtime.Gosched()
			} else {
				time.Sleep(time.Microsecond << min(lap-3, 7))
			}
		}
	}
}

// publishedPrefix returns an offset below which every reserved byte has
// been fully copied, at most limit.
func (l *Log) publishedPrefix(limit uint64) uint64 {
	min := limit
	for i := range l.inflight {
		if v := l.inflight[i].v.Load(); v < min {
			min = v
		}
	}
	return min
}

// NoteCheckpoint records lsn as the most recent checkpoint anchor and
// writes it to the master record. Callers force the log through lsn
// first; an unforced anchor would not survive a crash. After the
// injector's crash latch nothing is written.
func (l *Log) NoteCheckpoint(lsn LSN) {
	l.mu.Lock()
	if (lsn <= l.stableLSN || lsn < LSN(l.tail.Load())) && !l.inj.Crashed() {
		l.ckptLSN = lsn
		// A failed master write only loses the anchor, never log
		// records: replay falls back to the previous anchor, which is
		// always sufficient (just slower).
		_ = l.sink.NoteCheckpoint(lsn)
	}
	l.mu.Unlock()
}

// Recycle tells the segment files that no record below horizon will ever
// be read again (redo, undo, and analysis all start at or beyond it), so
// segment files wholly below it can be retired and recycled. In-memory
// state is untouched — recycling is a property of the files, not of the
// buffered log. The horizon is clamped to the stable prefix: an unforced
// horizon could otherwise retire bytes replay still needs.
func (l *Log) Recycle(horizon LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inj.Crashed() {
		return fmt.Errorf("wal: recycle after crash: %w", ErrLogFailed)
	}
	return l.sink.Recycle(min(horizon, l.stableLSN))
}

// CheckpointLSN returns the current checkpoint anchor, or NilLSN.
func (l *Log) CheckpointLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckptLSN
}

// Append adds r to the log buffer, assigns and returns its LSN. The record
// is not stable until a Force at or beyond it. Appenders never block each
// other: LSN space is reserved with an atomic compare-and-swap of the tail
// and the record bytes are copied into the reservation concurrently.
func (l *Log) Append(r *Record) LSN {
	mustFrame(r)
	r.chain = 0
	slot, start, total := l.reserve(func(start uint64) uint64 {
		r.LSN = LSN(start)
		return uint64(r.Size())
	})
	end := start + total
	segs := l.ensure(end)
	if start>>segShift == (end-1)>>segShift {
		// Common case: the record fits one segment; encode in place.
		so := start & segMask
		encodeInto(segs.seg(start)[so:so+total], r)
	} else {
		b := make([]byte, total)
		encodeInto(b, r)
		copyIn(segs, start, b)
	}
	l.appends.Add(1)
	// Publish: after this store the bytes are covered by publishedPrefix.
	slot.Store(idleSlot)
	return LSN(start)
}

// reserve claims a publication slot and reserves the bytes that size says
// the records take when they start at start. The size of a record depends
// on its LSN (the distance back to its page's previous record), so the
// reservation is a compare-and-swap of the tail the size was computed
// for, retried with a fresh size when another appender moved the tail
// first. The slot's bound is tightened to the exact start, so a concurrent
// Force group-committing records before these does not wait on their copy.
func (l *Log) reserve(size func(start uint64) uint64) (slot *atomic.Uint64, start, total uint64) {
	slot = l.claimSlot()
	for {
		start = l.tail.Load()
		total = size(start)
		if l.tail.CompareAndSwap(start, start+total) {
			slot.Store(start)
			return slot, start, total
		}
	}
}

// AppendGroup adds recs to the log as one reservation: a single in-flight
// slot claim and a single tail reservation cover the whole group, so a
// batch of per-key update records pays one publication handshake instead
// of one per record. Records keep their individual framing — each gets its
// own LSN, CRC, and header — so readers, recovery, and per-record undo see
// them exactly as if they had been appended one by one. The PrevLSN of
// recs[0] is taken as the caller set it; every later record's PrevLSN is
// overwritten to chain to its predecessor in the group, preserving the
// owning transaction's undo chain — its frame stores the predecessor's
// size rather than the LSN. A later record of the same page as its
// predecessor chains its PagePrev to it the same way. Returns the LSN of
// the last record (NilLSN for an empty group).
func (l *Log) AppendGroup(recs []*Record) LSN {
	if len(recs) == 0 {
		return NilLSN
	}
	for _, r := range recs {
		mustFrame(r)
	}
	slot, start, total := l.reserve(func(start uint64) uint64 {
		off := start
		for i, r := range recs {
			r.LSN, r.chain = LSN(off), 0
			if i > 0 {
				prev := recs[i-1]
				r.PrevLSN, r.chain = prev.LSN, uint32(off-uint64(prev.LSN))
				if r.PageID != 0 && r.StoreID == prev.StoreID && r.PageID == prev.PageID {
					r.PagePrev = prev.LSN
				}
			}
			off += uint64(r.Size())
		}
		return off - start
	})
	segs := l.ensure(start + total)
	for _, r := range recs {
		off := uint64(r.LSN)
		sz := uint64(r.Size())
		if off>>segShift == (off+sz-1)>>segShift {
			so := off & segMask
			encodeInto(segs.seg(off)[so:so+sz], r)
		} else {
			b := make([]byte, sz)
			encodeInto(b, r)
			copyIn(segs, off, b)
		}
	}
	l.appends.Add(int64(len(recs)))
	slot.Store(idleSlot)
	return recs[len(recs)-1].LSN
}

// Force makes every record with LSN <= lsn stable. Forcing NilLSN is a
// no-op; forcing beyond the end flushes everything. Force waits for
// concurrent appenders that hold earlier LSN reservations to finish
// copying (hole filling), then advances stability over the whole
// fully-published prefix — group commit. It drives both pipeline stages
// back to back: write (publication wait + sink persist), then sync
// (device fsync + stable-point advance).
//
// A nil return guarantees the record is stable. A non-nil return
// guarantees it never will be (the log is latched damaged), so callers
// may treat the record as lost and roll back.
func (l *Log) Force(lsn LSN) error {
	if lsn == NilLSN {
		return nil
	}
	// A record is stable iff it starts below stableLSN.
	if l.stableBeyond(lsn) {
		return nil
	}
	if err := l.stageWrite(uint64(lsn) + 1); err != nil {
		return err
	}
	if err := l.stageSync(); err != nil && !l.stableBeyond(lsn) {
		return err
	}
	return nil
}

// stageWrite is the pipeline's first stage: wait until the published
// prefix covers target (bounded by the current tail), hand the newly
// published delta to the sink in one vectored write, and advance
// writtenLSN. At most one write is outstanding (wrMu); it may overlap a
// sync of earlier bytes. A sink write failing latches the log damaged —
// if the device cannot even take the bytes, no later sync could save
// them.
func (l *Log) stageWrite(target uint64) error {
	l.wrMu.Lock()
	defer l.wrMu.Unlock()
	limit := l.tail.Load()
	if target > limit {
		target = limit
	}
	l.mu.Lock()
	written := uint64(l.writtenLSN)
	l.mu.Unlock()
	if target <= written {
		return nil
	}
	if l.damaged.Load() {
		return fmt.Errorf("wal: write to %d: %w", target, ErrLogFailed)
	}
	if l.inj.Crashed() {
		// The crash latch freezes simulated stable state: no further
		// bytes reach the sink.
		return fmt.Errorf("wal: write to %d after crash: %w", target, ErrLogFailed)
	}
	pub := l.waitPublished(limit, target)
	if pub <= written {
		return nil
	}
	if err := l.persistRange(written, pub); err != nil {
		l.damaged.Store(true)
		return fmt.Errorf("wal: persist [%d,%d): %w: %w", written, pub, ErrLogFailed, err)
	}
	l.mu.Lock()
	if LSN(pub) > l.writtenLSN {
		l.writtenLSN = LSN(pub)
	}
	l.mu.Unlock()
	if err := l.inj.Check(FPWrite); err != nil {
		l.damaged.Store(true)
		return fmt.Errorf("wal: write fault at %d: %w: %w", pub, ErrLogFailed, err)
	}
	return nil
}

// persistRange hands log bytes [from, to) to the segment files as
// in-place slices of the buffer's segments: one vectored write, no copy.
// Caller holds wrMu.
func (l *Log) persistRange(from, to uint64) error {
	segs := l.segs.Load()
	bufs := l.iovecs[:0]
	for off := from; off < to; {
		seg := segs.seg(off)
		lo := off & segMask
		n := uint64(segSize) - lo
		if off+n > to {
			n = to - off
		}
		bufs = append(bufs, seg[lo:lo+n])
		off += n
	}
	l.iovecs = bufs
	err := l.sink.PersistV(LSN(from), bufs)
	for i := range bufs {
		bufs[i] = nil
	}
	return err
}

// stageSync is the pipeline's second stage: make every written byte
// durable and advance the stable point over it. At most one sync is
// outstanding (syMu); the next round's write stage may already be
// running. The fault injector is consulted the way a log manager
// consults its device: transient errors are retried with backoff, a
// permanent error (or exhausted retries) latches the device failed, a
// torn sync rewinds the sink to a seeded record boundary and advances
// stability only that far, and a tripped crash latch freezes the stable
// point exactly where it is.
func (l *Log) stageSync() error {
	l.syMu.Lock()
	defer l.syMu.Unlock()
	l.mu.Lock()
	stable := uint64(l.stableLSN)
	target := uint64(l.writtenLSN)
	l.mu.Unlock()
	if target <= stable {
		return nil
	}
	if l.damaged.Load() {
		return fmt.Errorf("wal: sync to %d: %w", target-1, ErrLogFailed)
	}
	inj := l.inj
	_ = inj.Check(FPSyncSlow) // latency-only injection
	for attempt := 0; ; attempt++ {
		if inj.Crashed() {
			return fmt.Errorf("wal: sync to %d after crash: %w", target-1, ErrLogFailed)
		}
		err := inj.Check(FPSync)
		if err == nil {
			if inj.Crashed() {
				// A crash-only trip fired on this very sync: the machine
				// died before the device acknowledged.
				return fmt.Errorf("wal: sync to %d after crash: %w", target-1, ErrLogFailed)
			}
			t0 := time.Now()
			if serr := l.sink.Commit(); serr != nil {
				l.damaged.Store(true)
				return fmt.Errorf("wal: sync to %d: %w: %w", target-1, ErrLogFailed, serr)
			}
			l.syncNanos.Add(time.Since(t0).Nanoseconds())
			l.mu.Lock()
			if LSN(target) > l.stableLSN {
				l.stableLSN = LSN(target)
				l.flushes++
			}
			l.mu.Unlock()
			return nil
		}
		if fault.IsTorn(err) {
			// The device persisted part of the sync and then failed:
			// advance stability only to a seeded earlier record boundary
			// and rewind the sink to match (plus a genuinely partial
			// record, so file replay truncates exactly where the
			// in-memory stable point stopped).
			fe := fault.AsError(err)
			b := l.tearBoundary(stable, target, fe.Frac)
			l.tornSink(b, target, fe.Frac)
			l.mu.Lock()
			if LSN(b) > l.stableLSN {
				l.stableLSN = LSN(b)
				l.flushes++
			}
			if l.writtenLSN > l.stableLSN {
				l.writtenLSN = l.stableLSN
			}
			l.mu.Unlock()
			l.damaged.Store(true)
			return fmt.Errorf("wal: sync to %d tore at %d: %w: %w", target-1, b, ErrLogFailed, err)
		}
		if fault.IsTransient(err) && attempt < maxSyncRetries {
			time.Sleep(time.Microsecond << attempt)
			continue
		}
		// Permanent fault, or transient retries exhausted: latch the
		// device failed, so this record can never quietly become stable
		// after its committer was told otherwise. Written-but-unsynced
		// bytes are rewound out of the sink so a later file replay agrees
		// with the frozen stable point.
		l.damaged.Store(true)
		l.rewindSink(stable)
		return fmt.Errorf("wal: sync to %d: %w: %w", target-1, ErrLogFailed, err)
	}
}

// rewindSink best-effort truncates the segment files back to `to`,
// dropping persisted-but-unsynced bytes after a failed sync. The log is
// latched damaged by the caller. After the injector's crash latch the
// files are left as the crash found them.
func (l *Log) rewindSink(to uint64) {
	if !l.inj.Crashed() {
		_ = l.sink.Rewind(LSN(to))
	}
}

// tearBoundary picks the record boundary a torn sync stopped at: one of
// the boundaries strictly between from (the current stable point) and
// target, selected by the seeded draw frac. Returns from when no record
// completes inside the range.
func (l *Log) tearBoundary(from, target uint64, frac float64) uint64 {
	segs := l.segs.Load()
	var bounds []uint64
	pos := from
	for {
		if pos+4 > target {
			break
		}
		var lenb [4]byte
		copyOut(segs, lenb[:], pos)
		total := uint64(binary.LittleEndian.Uint32(lenb[:]))
		if total < minFrame || pos+total > target {
			break
		}
		pos += total
		if pos >= target {
			break
		}
		bounds = append(bounds, pos)
	}
	if len(bounds) == 0 {
		return from
	}
	idx := int(frac * float64(len(bounds)))
	if idx >= len(bounds) {
		idx = len(bounds) - 1
	}
	return bounds[idx]
}

// ForceGroup makes every record with LSN <= lsn stable, coalescing
// concurrent callers into as few physical forces as possible — group
// commit. Each caller registers its LSN; waiters elect per-stage
// leaders and the rest wait for a broadcast. A caller whose LSN
// registered too late for the current round simply leads (or joins) the
// next one, so N concurrent commits pay far fewer than N forces.
// Durability on return is identical to Force(lsn).
//
// The two flush stages overlap across
// rounds: while one leader fsyncs round k, another leader is already
// waiting out publication and handing round k+1's bytes to the sink, so
// the unamortized stall per round is max(write, sync) rather than their
// sum. At most one write and one sync are outstanding at any instant,
// and the stable prefix still advances strictly in order (the sync
// stage only ever covers fully written bytes).
//
// A waiter is acknowledged (nil return) only after a successful sync
// covers its record — if a stage fails, every waiter whose record did
// not reach stability gets the error, never a silent ack. A torn round
// may leave some waiters' records inside the surviving prefix; those
// are genuinely stable and are acknowledged, even when another round's
// error reached them while the torn sync was still running.
func (l *Log) ForceGroup(lsn LSN) error {
	if lsn == NilLSN {
		return nil
	}
	l.gcRequests.Add(1)
	l.gcMu.Lock()
	if lsn > l.gcMax {
		l.gcMax = lsn
	}
	for {
		if l.stableBeyond(lsn) {
			l.gcMu.Unlock()
			return nil
		}
		if l.gcErr != nil {
			// A previous round failed; the log is latched damaged (or
			// crashed), so no sync that starts from now on succeeds. One
			// already in flight still may — a torn sync advances the
			// stable point over its surviving prefix — so wait it out
			// before saying this record never becomes stable.
			err := l.gcErr
			l.gcMu.Unlock()
			l.syMu.Lock()
			l.syMu.Unlock()
			if l.stableBeyond(lsn) {
				return nil
			}
			return err
		}
		if !l.writtenBeyond(lsn) {
			// The record is not yet in the sink: this round needs a
			// write-stage leader.
			if l.wLeader {
				l.gcCond.Wait()
				continue
			}
			l.wLeader = true
			if l.sLeader {
				l.overlaps++
			}
			l.gcMu.Unlock()
			// Yield once before reading the round's target so committers
			// racing on the same CPU can register first — the moral
			// equivalent of the device latency a real group commit
			// batches under.
			runtime.Gosched()
			l.gcMu.Lock()
			target := l.gcMax
			l.gcMu.Unlock()

			err := l.stageWrite(uint64(target) + 1)

			l.gcMu.Lock()
			l.wLeader = false
			l.wRounds++
			if err != nil && l.gcErr == nil {
				l.gcErr = err
			}
			l.gcCond.Broadcast()
			continue
		}
		// Written but not yet stable: this round needs a sync-stage
		// leader.
		if l.sLeader {
			l.gcCond.Wait()
			continue
		}
		l.sLeader = true
		// The double-buffer swap: let any in-flight write round land
		// before capturing the sync target, so this fsync also covers the
		// bytes that were being written while the previous fsync ran.
		// Without this, committers acked by round k re-append just after
		// round k+1 captures its target and split into two out-of-phase
		// cohorts, doubling fsyncs per commit. The write stage itself ran
		// overlapped with the previous sync, so the round still costs
		// max(write, sync), not write+sync.
		for l.wLeader {
			l.gcCond.Wait()
		}
		l.gcMu.Unlock()

		err := l.stageSync()

		l.gcMu.Lock()
		l.sLeader = false
		l.gcRounds++
		if err != nil && l.gcErr == nil {
			l.gcErr = err
		}
		l.gcCond.Broadcast()
	}
}

// stableBeyond reports whether the record at lsn is already stable.
func (l *Log) stableBeyond(lsn LSN) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return lsn < l.stableLSN
}

// writtenBeyond reports whether the record at lsn is already in the
// sink (written, not necessarily synced).
func (l *Log) writtenBeyond(lsn LSN) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return lsn < l.writtenLSN
}

// GroupCommitStats returns how many ForceGroup calls were made and how
// many leader force rounds actually ran; their ratio is the commit
// coalescing factor.
func (l *Log) GroupCommitStats() (requests, rounds int64) {
	requests = l.gcRequests.Load()
	l.gcMu.Lock()
	rounds = l.gcRounds
	l.gcMu.Unlock()
	return requests, rounds
}

// ForceAll makes the entire appended log stable.
func (l *Log) ForceAll() error {
	if err := l.stageWrite(l.tail.Load()); err != nil {
		return err
	}
	return l.stageSync()
}

// tornSink is what a torn sync leaves in the segment files: they are
// rewound to the tear boundary b (the prefix up to b survives), a seeded
// fraction of the record starting at b is written partially — strictly
// less than the whole record, so file replay truncates exactly at b the
// way the in-memory stable point does — and the result is synced. It is
// the failing sync's own effect, so it lands even when the fault tripped
// the crash latch. Best effort: the device is about to be latched damaged
// either way. Caller holds syMu.
func (l *Log) tornSink(b, pub uint64, frac float64) {
	_ = l.sink.Rewind(LSN(b))
	if part := l.tornRecord(b, pub, frac); part != nil {
		_ = l.sink.PersistPartial(LSN(b), part)
	}
	_ = l.sink.Commit()
}

// tornRecord returns the seeded prefix of the record at b that a torn
// sync leaves, or nil.
func (l *Log) tornRecord(b, pub uint64, frac float64) []byte {
	if b+4 > pub {
		return nil
	}
	segs := l.segs.Load()
	var lenb [4]byte
	copyOut(segs, lenb[:], b)
	total := uint64(binary.LittleEndian.Uint32(lenb[:]))
	if total < minFrame || b+total > pub {
		return nil
	}
	// At most total-1 bytes: a complete record here would replay as
	// stable even though its committer was told it failed (a ghost).
	pl := uint64(frac * float64(total))
	if pl >= total {
		pl = total - 1
	}
	if pl == 0 {
		return nil
	}
	part := make([]byte, pl)
	copyOut(segs, part, b)
	return part
}

// PipelineStats exposes the flush pipeline's round accounting.
type PipelineStats struct {
	WriteRounds int64 // completed write-stage rounds
	SyncRounds  int64 // completed sync-stage rounds
	Overlaps    int64 // write rounds started while a sync was in flight
	SyncNanos   int64 // cumulative wall time inside sink fsyncs
}

// PipelineStatsSnapshot returns the current pipeline counters.
func (l *Log) PipelineStatsSnapshot() PipelineStats {
	l.gcMu.Lock()
	wr, sr, ov := l.wRounds, l.gcRounds, l.overlaps
	l.gcMu.Unlock()
	return PipelineStats{
		WriteRounds: wr,
		SyncRounds:  sr,
		Overlaps:    ov,
		SyncNanos:   l.syncNanos.Load(),
	}
}

// waitPublished spins until the published prefix reaches target and
// returns it.
func (l *Log) waitPublished(limit, target uint64) uint64 {
	for {
		pub := l.publishedPrefix(limit)
		if pub >= target {
			return pub
		}
		runtime.Gosched()
	}
}

// StableLSN returns the first LSN that is NOT stable; records starting at
// or beyond it are lost in a crash.
func (l *Log) StableLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stableLSN
}

// EndLSN returns the LSN one past the last appended record.
func (l *Log) EndLSN() LSN {
	return LSN(l.tail.Load())
}

// Stats returns the number of appends and physical flushes so far, for the
// relative-durability experiment (T12).
func (l *Log) Stats() (appends, flushes int64) {
	appends = l.appends.Load()
	l.mu.Lock()
	flushes = l.flushes
	l.mu.Unlock()
	return appends, flushes
}

// Read returns the record starting at lsn, reading from the full buffered
// log (normal processing, e.g. rollback, sees unforced records too). The
// caller must have learned lsn from a completed Append. A record below the
// buffered log — released by ReleaseBelow — is read back from the segment
// files (a buffer pool replaying a page's chain does); one below their
// recycle horizon is an error. The payload is the call's own copy.
func (l *Log) Read(lsn LSN) (Record, error) {
	r, _, err := l.ReadAppend(lsn, nil)
	return r, err
}

// ReadAppend is Read reusing the caller's buffer: it appends the record's
// frame to buf and returns the record, whose payload aliases the appended
// bytes, and the extended buffer. Earlier records read into the same
// buffer keep their payloads even when it grows: a grown buffer is a new
// array, and the old one lives on under their payloads.
func (l *Log) ReadAppend(lsn LSN, buf []byte) (Record, []byte, error) {
	end := l.tail.Load()
	if lsn == NilLSN || uint64(lsn) >= end {
		return Record{}, buf, fmt.Errorf("wal: read at invalid LSN %d", lsn)
	}
	var err error
	n := len(buf)
	// One generation of the buffer for the whole read: ReleaseBelow may
	// move the start past lsn meanwhile, but the segments a loaded
	// generation covers stay readable through it.
	segs := l.segs.Load()
	if uint64(lsn) < segs.start() {
		buf, err = l.sink.AppendFrame(buf, lsn)
	} else {
		buf, err = appendFrame(segs, buf, uint64(lsn), end)
	}
	if err != nil {
		return Record{}, buf[:n], err
	}
	r, _, err := decodeShared(buf[n:])
	if err == nil && r.LSN != lsn {
		err = fmt.Errorf("wal: record at %d carries LSN %d: %w", lsn, r.LSN, ErrCorruptRecord)
	}
	if err != nil {
		return Record{}, buf[:n], err
	}
	return r, buf, nil
}

// appendFrame appends the encoded record starting at off in segs to dst;
// end bounds the readable offset space.
func appendFrame(segs *segDir, dst []byte, off, end uint64) ([]byte, error) {
	if off < segs.start() {
		return dst, fmt.Errorf("wal: read at %d below the buffered log (starts at %d)", off, segs.start())
	}
	if off+4 > end {
		return dst, ErrBadRecord
	}
	var lenb [4]byte
	copyOut(segs, lenb[:], off)
	total := uint64(binary.LittleEndian.Uint32(lenb[:]))
	if total < minFrame || off+total > end {
		return dst, ErrBadRecord
	}
	n := len(dst)
	dst = slices.Grow(dst, int(total))[:n+int(total)]
	copyOut(segs, dst[n:], off)
	return dst, nil
}

// FullImage returns a Reader over a copy of the fully-published buffered
// log, from its first readable LSN (ReleaseBelow moves it), for restart
// analysis and tests that enumerate record boundaries.
func (l *Log) FullImage() *Reader {
	l.mu.Lock()
	defer l.mu.Unlock()
	end, ckpt := max(LSN(l.publishedPrefix(l.tail.Load())), l.start), l.ckptLSN
	if ckpt < l.start || ckpt >= end {
		ckpt = NilLSN
	}
	buf := make([]byte, end-l.start)
	copyOut(l.segs.Load(), buf, uint64(l.start))
	return &Reader{buf: buf, base: l.start, ckptLSN: ckpt}
}

// StableImage forces the whole log and returns what its segment files
// hold, from the recycle horizon on: unlike FullImage, it does not end
// where ReleaseBelow dropped the buffer's start.
func (l *Log) StableImage() (*Reader, error) {
	if err := l.ForceAll(); err != nil {
		return nil, err
	}
	return DirImage(l.sink.fs, l.sink.dir)
}

// Reader iterates a (possibly truncated) log image during restart. The
// image holds the bytes [base, base+len(buf)): buf is indexed relative to
// base, so its size follows the live log rather than the absolute LSN.
type Reader struct {
	buf     []byte
	base    LSN // LSN of buf[0]: the first readable record position (1, or the recycle horizon / trim point)
	ckptLSN LSN
}

// CheckpointLSN returns the image's checkpoint anchor, or NilLSN if no
// checkpoint survived.
func (r *Reader) CheckpointLSN() LSN { return r.ckptLSN }

// StartLSN returns the first readable record position of the image. It is
// 1 for a never-recycled log and the recycle horizon afterwards.
func (r *Reader) StartLSN() LSN { return r.base }

// EndLSN returns one past the last byte of the image.
func (r *Reader) EndLSN() LSN { return r.base + LSN(len(r.buf)) }

// from returns the image bytes starting at lsn, or nil when lsn lies
// outside the image.
func (r *Reader) from(lsn LSN) []byte {
	if lsn < r.base || lsn >= r.EndLSN() {
		return nil
	}
	return r.buf[lsn-r.base:]
}

// Scan calls fn for each record from lsn (NilLSN means the start of the
// readable image) to the end of the image, stopping early if fn returns
// false. A torn or corrupt record — including one whose stored LSN does
// not match its position — terminates the scan silently, as restart
// would.
func (r *Reader) Scan(lsn LSN, fn func(Record) bool) {
	r.ScanShared(lsn, func(rec *Record) bool {
		c := *rec
		if len(c.Payload) > 0 {
			c.Payload = append([]byte(nil), c.Payload...)
		}
		return fn(c)
	})
}

// ScanShared is Scan without the per-record payload copy: records are
// passed by pointer and their payloads alias the image buffer, so a
// full-image pass costs no allocations. fn must treat the payload as
// read-only and must not retain the record past the callback without
// copying it. Restart's fused analysis+planning scan runs through this.
func (r *Reader) ScanShared(lsn LSN, fn func(*Record) bool) {
	pos := max(lsn, r.base)
	var rec Record
	for b := r.from(pos); b != nil; b = r.from(pos) {
		n, err := decodeSharedInto(b, &rec)
		if err != nil || rec.LSN != pos {
			return
		}
		if !fn(&rec) {
			return
		}
		pos += LSN(n)
	}
}

// RecordAt returns the record starting at lsn with its payload aliasing
// the image buffer (read-only) — the record-offset read surface restart's
// redo workers replay their per-page plans through without re-scanning or
// copying.
func (r *Reader) RecordAt(lsn LSN) (Record, error) {
	var rec Record
	if err := r.RecordAtInto(lsn, &rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// RecordAtInto is RecordAt decoding into a caller-provided record, so a
// redo worker can materialize a page's whole batch without a struct copy
// per record.
func (r *Reader) RecordAtInto(lsn LSN, rec *Record) error {
	b := r.from(lsn)
	if b == nil {
		return fmt.Errorf("wal: image read at invalid LSN %d", lsn)
	}
	if _, err := decodeSharedInto(b, rec); err != nil {
		return err
	}
	if rec.LSN != lsn {
		return fmt.Errorf("wal: record at %d carries LSN %d: %w", lsn, rec.LSN, ErrCorruptRecord)
	}
	return nil
}

// Read returns the record at lsn within the image; its payload is an
// independent copy.
func (r *Reader) Read(lsn LSN) (Record, error) {
	rec, err := r.RecordAt(lsn)
	if err == nil && len(rec.Payload) > 0 {
		rec.Payload = append([]byte(nil), rec.Payload...)
	}
	return rec, err
}

// Boundaries returns the LSN of every record boundary in the image,
// including the final end-of-log position. The crash matrix uses these as
// truncation points.
func (r *Reader) Boundaries() []LSN {
	var out []LSN
	pos := r.base
	r.ScanShared(pos, func(rec *Record) bool {
		out = append(out, rec.LSN)
		pos = rec.LSN + LSN(rec.Size())
		return true
	})
	return append(out, pos)
}
