//go:build linux

package fsys

import (
	"fmt"
	"io"
	"os"
	"syscall"
)

// mapping is a file mapped read-only, so that a read is a copy, not a
// system call. The mapping covers size bytes; a caller reads only below
// the file's end, so it never touches the mapping past it.
type mapping struct{ b []byte }

// mapFile maps size bytes of the file at name.
func mapFile(name string, size int) (Mapping, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("fsys: map %s: %w", name, err)
	}
	return &mapping{b}, nil
}

func (m *mapping) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(len(m.b)) {
		return 0, io.ErrUnexpectedEOF
	}
	return copy(p, m.b[off:]), nil
}

func (m *mapping) Close() error { return syscall.Munmap(m.b) }
