package wal

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/fsys"
)

// ScanDir walks the record stream the WAL directory dir of fs holds, from
// its recycle horizon to the first torn or corrupt record, calling fn for
// each record (payloads alias the scan's buffer: read-only, not retained)
// until fn returns false. See DirImage.
func ScanDir(fs fsys.FS, dir string, fn func(*Record) bool) error {
	img, err := DirImage(fs, dir)
	if err == nil {
		img.ScanShared(NilLSN, fn)
	}
	return err
}

// DirImage reads the record stream the WAL directory dir of fs holds,
// from its recycle horizon to its end, with the master record's
// checkpoint anchor. Unlike Open it changes nothing: no tail is
// truncated, no dead segment pooled, so it may run over a directory a
// live or killed process left as it is. A chain that breaks — a gap
// between segment bases, a short interior segment — ends the stream
// there; a torn or corrupt record ends a scan of it. A directory of
// another format version is ErrLogVersion.
func DirImage(fs fsys.FS, dir string) (*Reader, error) {
	ckpt, horizon, err := readMaster(fs, dir)
	if errors.Is(err, ErrLogVersion) {
		return nil, err
	}
	start := max(uint64(horizon), 1)
	// A file whose header a crash tore holds nothing persisted.
	all, _, _, err := segFiles(fs, dir)
	if err != nil {
		return nil, err
	}
	var segs []segMeta
	for _, s := range all {
		if s.base+s.cap > start {
			segs = append(segs, s)
		}
	}
	img := &Reader{base: LSN(start)}
	if len(segs) == 0 {
		return img, nil
	}
	if segs[0].base > start {
		return nil, fmt.Errorf("wal: horizon %d precedes first segment base %d: %w", start, segs[0].base, ErrShortSegment)
	}
	for i, s := range segs {
		if i > 0 && s.base != segs[i-1].base+segs[i-1].cap {
			break
		}
		b, err := fsys.ReadFile(fs, s.path)
		if err != nil {
			return nil, err
		}
		data := b[min(segHdrLen, len(b)):]
		data = data[:min(uint64(len(data)), s.cap)]
		short := uint64(len(data)) < s.cap
		if s.base < start {
			data = data[min(start-s.base, uint64(len(data))):]
		}
		img.buf = append(img.buf, data...)
		if short {
			break // the stream ends here
		}
	}
	if ckpt >= img.base && ckpt < img.EndLSN() {
		img.ckptLSN = ckpt
	}
	return img, nil
}

// CutDir cuts the log the WAL directory dir of fs holds at the record
// boundary at, as if nothing from at on had ever reached it: the segment
// holding at is truncated there, later segments are unlinked, and a
// checkpoint anchor at or past at is dropped from the master record. The
// result is synced. A crash matrix cuts a crash image this way to recover
// from every prefix of a run. Bytes at at that are no whole record — a
// torn sync's partial one — are left as they are: replay already ends the
// log there, and truncates them itself.
func CutDir(fs fsys.FS, dir string, at LSN) error {
	segs, _, _, err := segFiles(fs, dir)
	if err != nil {
		return err
	}
	img, err := DirImage(fs, dir)
	if err != nil {
		return err
	}
	if _, err := img.RecordAt(at); err != nil {
		segs = nil // no whole record at at: nothing to cut
	}
	fw := &FileWAL{fs: fs, dir: dir, policy: SyncAlways}
	for _, s := range segs {
		switch {
		case s.base > 0 && s.base >= uint64(at):
			if err := fs.Remove(s.path); err != nil {
				return err
			}
		case uint64(at) < s.base+s.cap:
			if err := fw.truncate(s.path, int64(segHdrLen+uint64(at)-s.base)); err != nil {
				return err
			}
			f, err := fs.OpenFile(s.path, os.O_RDWR)
			if err != nil {
				return err
			}
			err = f.Sync()
			f.Close()
			if err != nil {
				return err
			}
		}
	}
	if fw.ckpt, fw.horizon, err = readMaster(fs, dir); err == nil && fw.ckpt >= at {
		fw.ckpt = NilLSN
		return fw.writeMaster()
	}
	return fs.SyncDir(dir)
}
