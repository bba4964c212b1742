//go:build linux

package fsys

import (
	"os"
	"syscall"
	"unsafe"
)

// iovMax is the kernel's per-call iovec limit (IOV_MAX).
const iovMax = 1024

// pwritev writes bufs at off in a single vectored pwritev(2) syscall
// per iovMax batch, retrying on EINTR and resuming after short writes.
// Empty buffers are skipped.
func pwritev(f *os.File, bufs [][]byte, off int64) error {
	iov := make([]syscall.Iovec, 0, len(bufs))
	for _, b := range bufs {
		if len(b) == 0 {
			continue
		}
		iov = append(iov, syscall.Iovec{Base: &b[0], Len: uint64(len(b))})
	}
	fd := f.Fd()
	for len(iov) > 0 {
		n := len(iov)
		if n > iovMax {
			n = iovMax
		}
		// On 64-bit the full offset travels in pos_l; pos_h stays zero.
		r, _, e := syscall.Syscall6(syscall.SYS_PWRITEV, fd,
			uintptr(unsafe.Pointer(&iov[0])), uintptr(n), uintptr(off), 0, 0)
		if e == syscall.EINTR {
			continue
		}
		if e != 0 {
			return &os.PathError{Op: "pwritev", Path: f.Name(), Err: e}
		}
		wrote := int64(r)
		off += wrote
		for wrote > 0 && len(iov) > 0 {
			if uint64(wrote) >= iov[0].Len {
				wrote -= int64(iov[0].Len)
				iov = iov[1:]
			} else {
				iov[0].Base = (*byte)(unsafe.Pointer(uintptr(unsafe.Pointer(iov[0].Base)) + uintptr(wrote)))
				iov[0].Len -= uint64(wrote)
				wrote = 0
			}
		}
	}
	return nil
}
