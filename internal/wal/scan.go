package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ScanDir walks the record stream a WAL directory holds, from its recycle
// horizon to the first torn or corrupt record, calling fn for each record
// (payloads alias the scan's buffer: read-only, not retained) until fn
// returns false. Unlike OpenFileWAL it changes nothing: no tail is
// truncated, no dead segment pooled, so it may run over a directory a live
// or killed process left as it is. A chain that breaks — a gap between
// segment bases, a short interior segment — ends the walk there. A
// directory of another format version is ErrLogVersion.
func ScanDir(dir string, fn func(*Record) bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	_, horizon, err := readMaster(dir)
	if errors.Is(err, ErrLogVersion) {
		return err
	}
	start := max(uint64(horizon), 1)

	var segs []segMeta
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) || strings.HasPrefix(name, freePrefix) {
			continue
		}
		path := filepath.Join(dir, name)
		segCap, base, err := readSegHeader(path)
		switch {
		case errors.Is(err, errNoHeader):
			// A header a crash tore: nothing was persisted behind it.
		case err != nil:
			return err
		case base+segCap > start:
			segs = append(segs, segMeta{base: base, cap: segCap, path: path})
		}
	}
	if len(segs) == 0 {
		return nil
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	if segs[0].base > start {
		return fmt.Errorf("wal: horizon %d precedes first segment base %d: %w", start, segs[0].base, ErrShortSegment)
	}

	var buf []byte
	for i, s := range segs {
		if i > 0 && s.base != segs[i-1].base+segs[i-1].cap {
			break
		}
		b, err := os.ReadFile(s.path)
		if err != nil {
			return err
		}
		data := b[min(segHdrLen, len(b)):]
		data = data[:min(uint64(len(data)), s.cap)]
		short := uint64(len(data)) < s.cap
		if s.base < start {
			data = data[min(start-s.base, uint64(len(data))):]
		}
		buf = append(buf, data...)
		if short {
			break // the stream ends here
		}
	}
	(&Reader{buf: buf, base: LSN(start)}).ScanShared(LSN(start), fn)
	return nil
}
