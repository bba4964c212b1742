// Package storage provides the paged stable store and buffer pool under
// every access method in this repository, with the write-ahead-log
// protocol the paper assumes (§4.3.1): a dirty page is never written to
// the stable layer before the log records that dirtied it are forced.
//
// The stable layer is one FileDisk per store: a page file over an
// fsys.FS, on disk or in memory. A simulated crash keeps what the file
// system made durable and restarts from it, which is exactly the state a
// real system recovers from. The stable layer is failable: a FileDisk
// given an injector probes disk.write and disk.read on every page I/O.
package storage

import "errors"

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

// Failpoint names owned by the stable layer.
const (
	// FPDiskWrite fires inside FileDisk.Write, before the image reaches
	// the file. A Torn fault writes a seeded part of the framed image
	// into an extent of its own and fails the write, so the prior image
	// stays the page's stable one; Transient and Permanent faults fail
	// the write outright.
	FPDiskWrite = "disk.write"
	// FPDiskRead fires inside FileDisk.Read before the file read.
	FPDiskRead = "disk.read"
	// FPDiskCompact fires inside FileDisk.Compact before each image it
	// moves; a Crash spec freezes the file among the moves.
	FPDiskCompact = "disk.compact"
)

// ErrDiskFailed is wrapped by every error a permanently-failed or
// crash-frozen FileDisk returns.
var ErrDiskFailed = errors.New("storage: stable device failed")

// ErrTornPage reports a page whose stable image failed its checksum — a
// torn or corrupt on-disk page with no intact prior version to fall back
// to. errors.Is(err, ErrTornPage) classifies it; recovery treats it as
// fatal because redo needs some intact base image to start from.
var ErrTornPage = errors.New("storage: torn or corrupt page")
