package fsys

import (
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// blockSize is the granularity at which a Mem file's images share bytes.
const blockSize = 4096

// SectorSize is the unit a TearLast crash tears inside.
const SectorSize = 512

// Mem is a file system in memory that models what a crash keeps. Every
// file has a volatile image, which reads see, and a durable one, which a
// crash keeps: Sync copies the first to the second. Every name likewise
// has a volatile binding and a durable one: SyncDir publishes a
// directory's creates, renames and unlinks. Until then each is an
// unsynced operation, and Crash decides, by its Policy, which of them
// survive: a Mem keeps a copy of each unsynced write until a sync covers
// it. Directories are durable once made.
//
// The two images of a file share the blocks neither has changed since the
// last Sync, so a Sync costs a pointer per block, not a copy of the file.
// Each file keeps its own unsynced writes, so a Sync settles only those.
// Mem is safe for concurrent use.
type Mem struct {
	mu    sync.RWMutex
	vol   map[string]*inode // volatile names
	dur   map[string]*inode // durable names
	dirs  map[string]bool
	ns    []op                // unsynced creates, renames and unlinks, in issue order
	files map[*inode]struct{} // the files with unsynced writes or truncations
	seq   uint64              // issue number of the next operation
	n     int                 // unsynced operations
}

// inode is one file's contents.
type inode struct {
	blocks []*block // volatile image; nil blocks read as zeros
	size   int64
	dblk   []*block // durable image
	dsize  int64
	pend   []op // unsynced writes and truncations, in issue order
}

// block is blockSize bytes of a file. A shared block is in some durable
// image, or in a file of another Mem, and is never written again: a write
// to it copies it first.
type block struct {
	b      [blockSize]byte
	shared bool
}

// op is an unsynced operation.
type op struct {
	seq  uint64 // issue order across every file and directory
	kind opKind
	ino  *inode
	off  int64  // write: offset; truncate: new size
	data []byte // write: the bytes, the op's own copy
	name string // namespace ops: the name, and for a rename the old name
	to   string // rename: the new name
}

type opKind uint8

const (
	opWrite opKind = iota
	opTruncate
	opCreate
	opRename
	opRemove
)

// NewMem returns an empty file system.
func NewMem() *Mem {
	return &Mem{vol: map[string]*inode{}, dur: map[string]*inode{}, dirs: map[string]bool{".": true, "/": true},
		files: map[*inode]struct{}{}}
}

// issue records o as unsynced: a write or truncation with its file, a
// namespace operation with the others. Caller holds m.mu.
func (m *Mem) issue(o op) {
	o.seq = m.seq
	m.seq++
	m.n++
	if o.kind <= opTruncate {
		o.ino.pend = append(o.ino.pend, o)
		m.files[o.ino] = struct{}{}
	} else {
		m.ns = append(m.ns, o)
	}
}

func clean(name string) string { return filepath.Clean(name) }

func pathErr(opName, name string, err error) error {
	return &fs.PathError{Op: opName, Path: name, Err: err}
}

// OpenFile opens name; see FS.
func (m *Mem) OpenFile(name string, flag int) (File, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.vol[name]
	switch {
	case ino == nil && flag&os.O_CREATE == 0:
		return nil, pathErr("open", name, fs.ErrNotExist)
	case ino != nil && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, pathErr("open", name, fs.ErrExist)
	case ino == nil:
		if !m.dirs[filepath.Dir(name)] {
			return nil, pathErr("open", name, fs.ErrNotExist)
		}
		ino = &inode{}
		m.vol[name] = ino
		m.issue(op{kind: opCreate, ino: ino, name: name})
	case flag&os.O_TRUNC != 0:
		m.truncate(ino, 0)
	}
	return &memFile{m: m, ino: ino, name: name, write: flag&(os.O_WRONLY|os.O_RDWR) != 0}, nil
}

// Rename moves oldname to newname, replacing it; see FS.
func (m *Mem) Rename(oldname, newname string) error {
	oldname, newname = clean(oldname), clean(newname)
	if filepath.Dir(oldname) != filepath.Dir(newname) {
		return pathErr("rename", newname, fmt.Errorf("fsys: rename across directories"))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.vol[oldname]
	if ino == nil {
		return pathErr("rename", oldname, fs.ErrNotExist)
	}
	delete(m.vol, oldname)
	m.vol[newname] = ino
	m.issue(op{kind: opRename, ino: ino, name: oldname, to: newname})
	return nil
}

// Remove unlinks name; see FS.
func (m *Mem) Remove(name string) error {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.vol[name] == nil {
		return pathErr("remove", name, fs.ErrNotExist)
	}
	delete(m.vol, name)
	m.issue(op{kind: opRemove, name: name})
	return nil
}

// ReadDir lists dir; see FS.
func (m *Mem) ReadDir(dir string) ([]string, error) {
	dir = clean(dir)
	m.mu.RLock()
	defer m.mu.RUnlock()
	if !m.dirs[dir] {
		return nil, pathErr("readdir", dir, fs.ErrNotExist)
	}
	var names []string
	for name := range m.vol {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll makes dir and its parents.
func (m *Mem) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for d := clean(dir); !m.dirs[d]; d = filepath.Dir(d) {
		m.dirs[d] = true
	}
	return nil
}

// SyncDir publishes the unsynced creates, renames and unlinks in dir.
func (m *Mem) SyncDir(dir string) error {
	dir = clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		return pathErr("sync", dir, fs.ErrNotExist)
	}
	keep := m.ns[:0]
	for _, o := range m.ns {
		if filepath.Dir(o.name) == dir {
			applyNS(m.dur, o, o.ino)
		} else {
			keep = append(keep, o)
		}
	}
	m.n -= len(m.ns) - len(keep)
	clear(m.ns[len(keep):])
	m.ns = keep
	return nil
}

// applyNS applies a namespace op to names, binding ino.
func applyNS(names map[string]*inode, o op, ino *inode) {
	switch o.kind {
	case opCreate:
		names[o.name] = ino
	case opRename:
		delete(names, o.name)
		names[o.to] = ino
	case opRemove:
		delete(names, o.name)
	}
}

// Map returns a reader of name's volatile image; it keeps reading the
// file after a rename or an unlink, as a mapping does.
func (m *Mem) Map(name string, size int) (Mapping, error) {
	name = clean(name)
	m.mu.RLock()
	ino := m.vol[name]
	m.mu.RUnlock()
	if ino == nil {
		return nil, pathErr("map", name, fs.ErrNotExist)
	}
	return &memFile{m: m, ino: ino, name: name}, nil
}

// Mode selects which unsynced operations a crash keeps.
type Mode uint8

const (
	// Drop keeps none.
	Drop Mode = iota
	// Prefix keeps a seeded prefix of them, in the order they were
	// issued, across every file and directory.
	Prefix
	// Tear keeps a seeded prefix, and the write after it lands in part:
	// every sector of it but the last, and a seeded part of that one.
	Tear
)

// Policy is what a crash keeps of the operations no sync covered.
type Policy struct {
	Mode Mode
	Seed int64
}

// DropUnsynced is the crash that keeps exactly the durable state.
var DropUnsynced = Policy{}

// KeepPrefix keeps a prefix, drawn from seed, of the unsynced operations.
func KeepPrefix(seed int64) Policy { return Policy{Mode: Prefix, Seed: seed} }

// TearLast keeps a prefix drawn from seed and tears the write after it.
func TearLast(seed int64) Policy { return Policy{Mode: Tear, Seed: seed} }

// Unsynced returns how many operations no sync has covered yet.
func (m *Mem) Unsynced() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.n
}

// Crash returns the state a crash now leaves, under p, as a new Mem whose
// every image is durable. m itself is unchanged and may go on running.
func (m *Mem) Crash(p Policy) *Mem {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ops := append(make([]op, 0, m.n), m.ns...)
	for ino := range m.files {
		ops = append(ops, ino.pend...)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].seq < ops[j].seq })
	keep, tear := 0, -1
	rng := rand.New(rand.NewSource(p.Seed))
	switch p.Mode {
	case Prefix:
		keep = rng.Intn(len(ops) + 1)
	case Tear:
		keep = rng.Intn(len(ops) + 1)
		if keep < len(ops) && ops[keep].kind == opWrite {
			tear = keep
		}
	}
	copies := map[*inode]*inode{}
	image := func(ino *inode) *inode {
		c := copies[ino]
		if c == nil {
			c = &inode{blocks: append([]*block(nil), ino.dblk...), size: ino.dsize}
			copies[ino] = c
		}
		return c
	}
	names := make(map[string]*inode, len(m.dur))
	for name, ino := range m.dur {
		names[name] = image(ino)
	}
	for _, o := range ops[:keep] {
		switch o.kind {
		case opWrite:
			image(o.ino).write(o.data, o.off)
		case opTruncate:
			image(o.ino).truncate(o.off)
		default:
			var c *inode
			if o.ino != nil {
				c = image(o.ino)
			}
			applyNS(names, o, c)
		}
	}
	if tear >= 0 {
		o := ops[tear]
		n := (len(o.data) - 1) / SectorSize * SectorSize
		n += rng.Intn(len(o.data) - n)
		image(o.ino).write(o.data[:n], o.off)
	}
	out := NewMem()
	for d := range m.dirs {
		out.dirs[d] = true
	}
	for name, c := range names {
		c.publish()
		out.vol[name] = c
		out.dur[name] = c
	}
	return out
}

// write copies b into the volatile image at off, copying each shared
// block it touches first.
func (ino *inode) write(b []byte, off int64) {
	if len(b) == 0 {
		return
	}
	end := off + int64(len(b))
	if n := int((end + blockSize - 1) / blockSize); n > len(ino.blocks) {
		ino.blocks = append(ino.blocks, make([]*block, n-len(ino.blocks))...)
	}
	for len(b) > 0 {
		i, o := int(off/blockSize), int(off%blockSize)
		blk := ino.blocks[i]
		switch {
		case blk == nil:
			blk = &block{}
			ino.blocks[i] = blk
		case blk.shared:
			c := &block{b: blk.b}
			blk = c
			ino.blocks[i] = blk
		}
		n := copy(blk.b[o:], b)
		b, off = b[n:], off+int64(n)
	}
	ino.size = max(ino.size, end)
}

// truncate sets the volatile image's length; bytes past it read as zeros
// if the file grows again.
func (ino *inode) truncate(size int64) {
	if size < ino.size {
		n := int((size + blockSize - 1) / blockSize)
		if n < len(ino.blocks) {
			clear(ino.blocks[n:])
			ino.blocks = ino.blocks[:n]
		}
		if o := int(size % blockSize); o > 0 && n <= len(ino.blocks) && ino.blocks[n-1] != nil {
			var zero [blockSize]byte
			ino.write(zero[o:], size)
		}
	}
	ino.size = size
}

// read copies the volatile image at off into b.
func (ino *inode) read(b []byte, off int64) (int, error) {
	if off >= ino.size {
		return 0, io.EOF
	}
	n := int(min(int64(len(b)), ino.size-off))
	for done := 0; done < n; {
		i, o := int(off/blockSize), int(off%blockSize)
		c := min(blockSize-o, n-done)
		if i < len(ino.blocks) && ino.blocks[i] != nil {
			copy(b[done:done+c], ino.blocks[i].b[o:])
		} else {
			clear(b[done : done+c])
		}
		done, off = done+c, off+int64(c)
	}
	if n < len(b) {
		return n, io.EOF
	}
	return n, nil
}

// sync makes ino's volatile image durable and settles its unsynced writes
// and truncations. Caller holds m.mu.
func (m *Mem) sync(ino *inode) {
	ino.publish()
	m.n -= len(ino.pend)
	clear(ino.pend)
	ino.pend = ino.pend[:0]
	delete(m.files, ino)
}

// publish makes the volatile image durable.
func (ino *inode) publish() {
	for _, blk := range ino.blocks {
		if blk != nil && !blk.shared {
			blk.shared = true
		}
	}
	ino.dblk = append(ino.dblk[:0], ino.blocks...)
	ino.dsize = ino.size
}

func (m *Mem) truncate(ino *inode, size int64) {
	ino.truncate(size)
	m.issue(op{kind: opTruncate, ino: ino, off: size})
}

// memFile is an open Mem file, and a Mem mapping.
type memFile struct {
	m      *Mem
	ino    *inode
	name   string
	write  bool
	closed bool
}

func (f *memFile) check(opName string, write bool) error {
	if f.closed {
		return pathErr(opName, f.name, os.ErrClosed)
	}
	if write && !f.write {
		return pathErr(opName, f.name, fs.ErrPermission)
	}
	return nil
}

func (f *memFile) ReadAt(b []byte, off int64) (int, error) {
	f.m.mu.RLock()
	defer f.m.mu.RUnlock()
	if err := f.check("read", false); err != nil {
		return 0, err
	}
	return f.ino.read(b, off)
}

func (f *memFile) WriteAt(b []byte, off int64) (int, error) {
	if err := f.WriteV([][]byte{b}, off); err != nil {
		return 0, err
	}
	return len(b), nil
}

// WriteV is one operation: a crash keeps or tears it as a whole.
func (f *memFile) WriteV(bufs [][]byte, off int64) error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if err := f.check("write", true); err != nil {
		return err
	}
	var data []byte
	at := off
	for _, b := range bufs {
		f.ino.write(b, at)
		at += int64(len(b))
		data = append(data, b...)
	}
	if len(data) > 0 {
		f.m.issue(op{kind: opWrite, ino: f.ino, off: off, data: data})
	}
	return nil
}

func (f *memFile) Sync() error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if err := f.check("sync", false); err != nil {
		return err
	}
	f.m.sync(f.ino)
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if err := f.check("truncate", true); err != nil {
		return err
	}
	f.m.truncate(f.ino, size)
	return nil
}

func (f *memFile) Size() (int64, error) {
	f.m.mu.RLock()
	defer f.m.mu.RUnlock()
	if err := f.check("stat", false); err != nil {
		return 0, err
	}
	return f.ino.size, nil
}

func (f *memFile) Close() error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if f.closed {
		return pathErr("close", f.name, os.ErrClosed)
	}
	f.closed = true
	return nil
}
