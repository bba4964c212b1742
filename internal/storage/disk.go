// Package storage provides the paged stable store and buffer pool under
// every access method in this repository, with the write-ahead-log
// protocol the paper assumes (§4.3.1): a dirty page is never written to
// the stable layer before the log records that dirtied it are forced.
//
// A simulated crash discards everything volatile — buffer pool contents
// and the unforced log tail — and restarts from the stable page images
// plus the stable log prefix, which is exactly the state a real system
// recovers from.
//
// The stable layer is failable: Disk is an interface whose Write and
// Read return errors, and FaultyDisk wraps any Disk with an injector
// that can fail or tear individual I/Os.
package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// PageID identifies a page within one store. NilPage (0) is never a valid
// page; MetaPage (1) holds the store's space-management information and
// root directory.
type PageID uint64

const (
	// NilPage is the null page ID.
	NilPage PageID = 0
	// MetaPage is the fixed ID of the space-management page.
	MetaPage PageID = 1
)

// Disk is the stable layer under one store: page ID to last flushed
// image. Images include an 8-byte pageLSN header followed by a type tag
// and the codec-encoded content. Implementations must be safe for
// concurrent use, and Write and Read may fail — the pool retries
// transient errors and propagates the rest.
type Disk interface {
	// Write atomically replaces the stable image of pid. The page write
	// itself is atomic, as sector-sized writes are on real devices;
	// torn multi-page states are represented by some pages having old
	// images and others new. Write does not retain img: the pool builds
	// the next image in the same buffer.
	Write(pid PageID, img []byte) error
	// Read returns the stable image of pid; ok=false means the page was
	// never flushed (not an error). The slice is the caller's: nothing
	// else references it, and the page decoded from it may keep and
	// change it (Codec.DecodePage).
	Read(pid PageID) (img []byte, ok bool, err error)
	// Snapshot returns an independent in-memory copy of the current
	// stable state, used to build crash images while the original keeps
	// running. Snapshotting never fails: it copies what is stable now.
	Snapshot() *MemDisk
	// Len returns the number of stable pages.
	Len() int
	// PageIDs returns the IDs of all stable pages, in no particular order.
	PageIDs() []PageID
}

// MemDisk is the in-memory Disk used everywhere: a map from page ID to
// its last flushed image. MemDisk itself never fails; wrap it in a
// FaultyDisk to inject failures.
type MemDisk struct {
	mu    sync.RWMutex
	pages map[PageID][]byte
}

// NewDisk returns an empty stable store.
func NewDisk() *MemDisk {
	return &MemDisk{pages: make(map[PageID][]byte)}
}

// Write atomically replaces the stable image of pid.
func (d *MemDisk) Write(pid PageID, img []byte) error {
	cp := make([]byte, len(img))
	copy(cp, img)
	d.mu.Lock()
	d.pages[pid] = cp
	d.mu.Unlock()
	return nil
}

// Read returns a copy of the stable image of pid, or ok=false if the page
// was never flushed.
func (d *MemDisk) Read(pid PageID) (img []byte, ok bool, err error) {
	d.mu.RLock()
	img, ok = d.pages[pid]
	img = bytes.Clone(img)
	d.mu.RUnlock()
	return img, ok, nil
}

// Snapshot returns an independent copy of the stable layer.
func (d *MemDisk) Snapshot() *MemDisk {
	d.mu.RLock()
	defer d.mu.RUnlock()
	cp := make(map[PageID][]byte, len(d.pages))
	for pid, img := range d.pages {
		b := make([]byte, len(img))
		copy(b, img)
		cp[pid] = b
	}
	return &MemDisk{pages: cp}
}

// Len returns the number of stable pages.
func (d *MemDisk) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.pages)
}

// PageIDs returns the IDs of all stable pages, in no particular order.
func (d *MemDisk) PageIDs() []PageID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]PageID, 0, len(d.pages))
	for pid := range d.pages {
		out = append(out, pid)
	}
	return out
}

// Failpoint names owned by the stable layer.
const (
	// FPDiskWrite fires inside FaultyDisk.Write, before the image
	// reaches the underlying device. A Torn fault here means the stale
	// prior image persists (the new image never lands); Transient and
	// Permanent faults fail the write outright.
	FPDiskWrite = "disk.write"
	// FPDiskRead fires inside FaultyDisk.Read before the device read.
	FPDiskRead = "disk.read"
)

// ErrDiskFailed is wrapped by every error a permanently-failed or
// crash-frozen FaultyDisk returns.
var ErrDiskFailed = errors.New("storage: stable device failed")

// ErrTornPage reports a page whose stable image failed its checksum — a
// torn or corrupt on-disk page with no intact prior version to fall back
// to. errors.Is(err, ErrTornPage) classifies it; recovery treats it as
// fatal because redo needs some intact base image to start from.
var ErrTornPage = errors.New("storage: torn or corrupt page")

// PartialWriter is the optional real-tearing surface of a Disk: write
// only the first n bytes of the framed on-disk form of img — a genuine
// partial pwrite, as a device that lost power mid-write leaves behind.
// The stable image of pid must remain readable as its prior version
// (careful replacement), matching MemDisk's simulated torn-write
// semantics where the old image persists.
type PartialWriter interface {
	WritePartial(pid PageID, img []byte, frac float64) error
}

// FaultyDisk wraps a Disk with an injector. Besides the armed
// failpoints it enforces two latches: a permanent fault breaks the
// device for good (every later write fails), and once the injector's
// crash latch trips no write reaches stable storage — the wrapped
// disk's contents are frozen at the instant of the crash, which is the
// state recovery will be run against.
type FaultyDisk struct {
	inner  Disk
	inj    *fault.Injector
	broken atomic.Bool
}

// NewFaultyDisk wraps inner so that inj's disk.write / disk.read
// failpoints apply to it.
func NewFaultyDisk(inner Disk, inj *fault.Injector) *FaultyDisk {
	return &FaultyDisk{inner: inner, inj: inj}
}

// Write checks the disk.write failpoint and then delegates. On a Torn
// fault the underlying device keeps the old image and the caller gets
// an error, so it must keep the page dirty; on Permanent the device
// latches broken.
func (d *FaultyDisk) Write(pid PageID, img []byte) error {
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
			if pw, ok := d.inner.(PartialWriter); ok {
				// File-backed device: tear for real — a seeded prefix of
				// the framed page lands on disk, in a slot of its own.
				// The prior image stays intact, so the observable
				// semantics match MemDisk's simulated tear.
				_ = pw.WritePartial(pid, img, fault.AsError(err).Frac)
			}
		}
		return fmt.Errorf("storage: write page %d: %w", pid, err)
	}
	if d.inj.Crashed() {
		// A crash-only trip on this very write: the machine died before
		// the image landed.
		return fmt.Errorf("storage: write page %d after crash: %w", pid, ErrDiskFailed)
	}
	return d.inner.Write(pid, img)
}

// Read checks the disk.read failpoint and then delegates. Reads keep
// working after a crash or a broken-for-writes latch: the frozen images
// remain readable, which is what lets degraded mode serve queries.
func (d *FaultyDisk) Read(pid PageID) ([]byte, bool, error) {
	if err := d.inj.Check(FPDiskRead); err != nil {
		return nil, false, fmt.Errorf("storage: read page %d: %w", pid, err)
	}
	return d.inner.Read(pid)
}

// Snapshot copies the wrapped device's current (possibly frozen) state.
func (d *FaultyDisk) Snapshot() *MemDisk { return d.inner.Snapshot() }

// Len returns the number of stable pages on the wrapped device.
func (d *FaultyDisk) Len() int { return d.inner.Len() }

// PageIDs returns the wrapped device's page IDs.
func (d *FaultyDisk) PageIDs() []PageID { return d.inner.PageIDs() }
