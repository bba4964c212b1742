package fsys

import (
	"os"
	"sort"
)

// OS is the operating system's file system.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int) (File, error) {
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}

func (osFS) Map(name string, size int) (Mapping, error) { return mapFile(name, size) }

type osFile struct{ f *os.File }

func (o osFile) ReadAt(b []byte, off int64) (int, error)  { return o.f.ReadAt(b, off) }
func (o osFile) WriteAt(b []byte, off int64) (int, error) { return o.f.WriteAt(b, off) }
func (o osFile) WriteV(bufs [][]byte, off int64) error    { return pwritev(o.f, bufs, off) }
func (o osFile) Sync() error                              { return o.f.Sync() }
func (o osFile) Truncate(size int64) error                { return o.f.Truncate(size) }
func (o osFile) Close() error                             { return o.f.Close() }

func (o osFile) Size() (int64, error) {
	st, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
