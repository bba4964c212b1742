//go:build !linux

package fsys

import "os"

// pwritev portable fallback: one positional write per buffer.
func pwritev(f *os.File, bufs [][]byte, off int64) error {
	for _, b := range bufs {
		if len(b) == 0 {
			continue
		}
		if _, err := f.WriteAt(b, off); err != nil {
			return err
		}
		off += int64(len(b))
	}
	return nil
}
