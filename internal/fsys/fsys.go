// Package fsys is the file system under the page files and the log: the
// few calls FileDisk and FileWAL make, with two implementations. OS passes
// them straight through to the operating system. Mem models a POSIX file
// system in memory, down to what a crash keeps: each file has a durable
// image and a volatile one, Sync publishes a file's writes, SyncDir
// publishes the creates, renames and unlinks in a directory, and Crash
// returns the durable state, under a Policy, as a new Mem.
//
// An engine with no data directory runs the same FileDisk and FileWAL
// code over a fresh Mem, so a test's simulated crash recovers from the
// same file formats a real restart reads.
package fsys

import (
	"errors"
	"io"
	"os"
)

// FS is the file system FileDisk and FileWAL run over. Names are slash
// paths; directories hold only regular files.
type FS interface {
	// OpenFile opens name with the os.O_* flags (O_RDONLY, O_RDWR,
	// O_WRONLY, O_CREATE, O_EXCL, O_TRUNC); a created file has mode 0644.
	OpenFile(name string, flag int) (File, error)
	// Rename atomically replaces newname with oldname, in one directory.
	Rename(oldname, newname string) error
	// Remove unlinks name.
	Remove(name string) error
	// ReadDir returns the names of the files in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// MkdirAll creates dir and its parents.
	MkdirAll(dir string) error
	// SyncDir makes the creates, renames and unlinks in dir durable.
	SyncDir(dir string) error
	// Map opens the first size bytes of name for reads by offset that
	// see the file's later writes: a read-only shared mapping on the OS.
	// Reading past the file's end is an error.
	Map(name string, size int) (Mapping, error)
}

// File is an open file.
type File interface {
	io.ReaderAt
	io.WriterAt
	// WriteV writes bufs back to back at off, as one vectored write.
	WriteV(bufs [][]byte, off int64) error
	// Sync makes the file's writes and truncations durable.
	Sync() error
	Truncate(size int64) error
	Size() (int64, error)
	Close() error
}

// Mapping reads a mapped file by offset.
type Mapping interface {
	io.ReaderAt
	io.Closer
}

// ReadFile returns the contents of name.
func ReadFile(fs FS, name string) ([]byte, error) {
	f, err := fs.OpenFile(name, os.O_RDONLY)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	n, err := f.Size()
	if err != nil {
		return nil, err
	}
	b := make([]byte, n)
	if m, err := f.ReadAt(b, 0); err != nil && !(errors.Is(err, io.EOF) && m == len(b)) {
		return nil, err
	}
	return b, nil
}

// WriteFile creates or truncates name and writes b to it, without a sync.
func WriteFile(fs FS, name string, b []byte) error {
	f, err := fs.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(b, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Size returns the length of the file name.
func Size(fs FS, name string) (int64, error) {
	f, err := fs.OpenFile(name, os.O_RDONLY)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return f.Size()
}
