package fsys

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// both runs fn on the OS, in a temporary directory, and on a fresh Mem.
func both(t *testing.T, fn func(t *testing.T, fsys FS, dir string)) {
	t.Run("os", func(t *testing.T) { fn(t, OS, t.TempDir()) })
	t.Run("mem", func(t *testing.T) {
		m := NewMem()
		if err := m.MkdirAll("db"); err != nil {
			t.Fatal(err)
		}
		fn(t, m, "db")
	})
}

// TestFSCalls holds both file systems to the same answers for every call
// FileDisk and FileWAL make.
func TestFSCalls(t *testing.T) {
	both(t, func(t *testing.T, fsys FS, dir string) {
		a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
		if _, err := fsys.OpenFile(a, os.O_RDWR); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("open of a missing file: %v", err)
		}
		f, err := fsys.OpenFile(a, os.O_CREATE|os.O_EXCL|os.O_RDWR)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fsys.OpenFile(a, os.O_CREATE|os.O_EXCL|os.O_RDWR); !errors.Is(err, fs.ErrExist) {
			t.Fatalf("exclusive create of an existing file: %v", err)
		}
		if _, err := f.WriteAt([]byte("hello"), 5000); err != nil {
			t.Fatal(err)
		}
		if err := f.WriteV([][]byte{[]byte("ab"), nil, []byte("cd")}, 4998); err != nil {
			t.Fatal(err)
		}
		if n, err := f.Size(); err != nil || n != 5005 {
			t.Fatalf("size %d %v, want 5005", n, err)
		}
		got := make([]byte, 10)
		if n, err := f.ReadAt(got, 4996); n != 9 || err != io.EOF || !bytes.Equal(got[:9], []byte("\x00\x00abcdllo")) {
			t.Fatalf("read %q n=%d err=%v", got[:n], n, err)
		}
		if err := f.Truncate(4999); err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(5002); err != nil {
			t.Fatal(err)
		}
		if n, err := f.ReadAt(got[:4], 4998); n != 4 || err != nil || !bytes.Equal(got[:4], []byte("a\x00\x00\x00")) {
			t.Fatalf("read after truncate %q n=%d err=%v", got[:4], n, err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		mp, err := fsys.Map(a, 8192)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("z"), 0); err != nil {
			t.Fatal(err)
		}
		if n, err := mp.ReadAt(got[:1], 0); n != 1 || err != nil || got[0] != 'z' {
			t.Fatalf("mapping missed a later write: %q %v", got[:1], err)
		}
		mp.Close()
		f.Close()
		if err := fsys.Rename(a, b); err != nil {
			t.Fatal(err)
		}
		if err := fsys.SyncDir(dir); err != nil {
			t.Fatal(err)
		}
		if names, err := fsys.ReadDir(dir); err != nil || fmt.Sprint(names) != "[b]" {
			t.Fatalf("readdir %v %v", names, err)
		}
		if err := WriteFile(fsys, a, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if b, err := ReadFile(fsys, a); err != nil || string(b) != "x" {
			t.Fatalf("read file %q %v", b, err)
		}
		if err := fsys.Remove(b); err != nil {
			t.Fatal(err)
		}
		if n, err := Size(fsys, b); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("size of a removed file: %d %v", n, err)
		}
	})
}

// model is a file system as the test sees it: names bound to file ids,
// and each file's bytes.
type model struct {
	names map[string]int
	files map[int][]byte
}

func (s model) clone() model {
	c := model{names: map[string]int{}, files: map[int][]byte{}}
	for n, id := range s.names {
		c.names[n] = id
	}
	for id, b := range s.files {
		c.files[id] = bytes.Clone(b)
	}
	return c
}

// contents is what a reader of the model finds: name to bytes.
func (s model) contents() map[string]string {
	out := map[string]string{}
	for n, id := range s.names {
		out[n] = string(s.files[id])
	}
	return out
}

// mop is one operation as the model applies it.
type mop struct {
	kind     opKind
	id       int
	off      int
	data     []byte
	name, to string
}

func (s model) apply(o mop) {
	switch o.kind {
	case opWrite:
		b := s.files[o.id]
		if need := o.off + len(o.data); need > len(b) {
			b = append(b, make([]byte, need-len(b))...)
		}
		copy(b[o.off:], o.data)
		s.files[o.id] = b
	case opTruncate:
		b := s.files[o.id]
		if o.off <= len(b) {
			s.files[o.id] = b[:o.off]
		} else {
			s.files[o.id] = append(b, make([]byte, o.off-len(b))...)
		}
	case opCreate:
		s.names[o.name] = o.id
	case opRename:
		delete(s.names, o.name)
		s.names[o.to] = o.id
	case opRemove:
		delete(s.names, o.name)
	}
}

// read returns what fsys holds in dirs, name to bytes.
func read(t *testing.T, fsys FS, dirs []string) map[string]string {
	out := map[string]string{}
	for _, d := range dirs {
		names, err := fsys.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			b, err := ReadFile(fsys, filepath.Join(d, n))
			if err != nil {
				t.Fatal(err)
			}
			out[filepath.Join(d, n)] = string(b)
		}
	}
	return out
}

func equal(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// TestMemFSCrashModel runs seeded creates, writes, truncations, syncs,
// renames, unlinks and directory syncs on a Mem and on a model of POSIX
// (the durable state, plus the list of operations no sync has covered
// since), and checks that each crash policy returns exactly a state the
// model allows: the durable state under DropUnsynced, the durable state
// plus some prefix of the list under KeepPrefix, and that plus the next
// write cut inside its last sector under TearLast.
func TestMemFSCrashModel(t *testing.T) {
	dirs := []string{"a", "b"}
	kept, torn := map[int]bool{}, 0
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewMem()
		for _, d := range dirs {
			m.MkdirAll(d)
		}
		vol := model{names: map[string]int{}, files: map[int][]byte{}}
		dur := vol.clone()
		var pend []mop
		open := map[int]File{}
		ids := 0
		pick := func() (string, int, bool) {
			if len(vol.names) == 0 {
				return "", 0, false
			}
			names := make([]string, 0, len(vol.names))
			for n := range vol.names {
				names = append(names, n)
			}
			sortStrings(names)
			n := names[rng.Intn(len(names))]
			return n, vol.names[n], true
		}
		handle := func(name string, id int) File {
			if f := open[id]; f != nil {
				return f
			}
			f, err := m.OpenFile(name, os.O_RDWR)
			if err != nil {
				t.Fatalf("seed %d: open %s: %v", seed, name, err)
			}
			open[id] = f
			return f
		}
		do := func(o mop) {
			vol.apply(o)
			pend = append(pend, o)
		}
		for step := 0; step < 60; step++ {
			name, id, ok := pick()
			switch r := rng.Intn(100); {
			case r < 15 || !ok:
				ids++
				name = filepath.Join(dirs[rng.Intn(2)], fmt.Sprintf("f%d", ids))
				if _, taken := vol.names[name]; taken {
					continue
				}
				f, err := m.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_RDWR)
				if err != nil {
					t.Fatal(err)
				}
				open[ids] = f
				vol.files[ids], dur.files[ids] = nil, nil
				do(mop{kind: opCreate, id: ids, name: name})
			case r < 55:
				data := make([]byte, 1+rng.Intn(1500))
				rng.Read(data)
				off := rng.Intn(6000)
				if rng.Intn(2) == 0 {
					off = len(vol.files[id])
				}
				if _, err := handle(name, id).WriteAt(data, int64(off)); err != nil {
					t.Fatal(err)
				}
				do(mop{kind: opWrite, id: id, off: off, data: data})
			case r < 62:
				size := rng.Intn(len(vol.files[id]) + 100)
				if err := handle(name, id).Truncate(int64(size)); err != nil {
					t.Fatal(err)
				}
				do(mop{kind: opTruncate, id: id, off: size})
			case r < 77:
				if err := handle(name, id).Sync(); err != nil {
					t.Fatal(err)
				}
				dur.files[id] = bytes.Clone(vol.files[id])
				pend = filter(pend, func(o mop) bool { return o.kind > opTruncate || o.id != id })
			case r < 84:
				to := filepath.Join(filepath.Dir(name), fmt.Sprintf("r%d", step))
				if err := m.Rename(name, to); err != nil {
					t.Fatal(err)
				}
				do(mop{kind: opRename, id: id, name: name, to: to})
			case r < 89:
				if err := m.Remove(name); err != nil {
					t.Fatal(err)
				}
				do(mop{kind: opRemove, name: name})
			default:
				d := dirs[rng.Intn(2)]
				if err := m.SyncDir(d); err != nil {
					t.Fatal(err)
				}
				pend = filter(pend, func(o mop) bool {
					if o.kind <= opTruncate || filepath.Dir(o.name) != d {
						return true
					}
					dur.apply(o)
					return false
				})
			}
			if got := read(t, m, dirs); !equal(got, vol.contents()) {
				t.Fatalf("seed %d step %d: volatile state differs from the model", seed, step)
			}
			if m.Unsynced() != len(pend) {
				t.Fatalf("seed %d step %d: %d unsynced operations, model has %d", seed, step, m.Unsynced(), len(pend))
			}
			if step%10 != 9 {
				continue
			}
			// Every state a prefix of the unsynced list leaves.
			var states []model
			s := dur.clone()
			for k := 0; ; k++ {
				states = append(states, s.clone())
				if k == len(pend) {
					break
				}
				s.apply(pend[k])
			}
			if got := read(t, m.Crash(DropUnsynced), dirs); !equal(got, states[0].contents()) {
				t.Fatalf("seed %d step %d: DropUnsynced kept an unsynced operation", seed, step)
			}
			cs := seed*100 + int64(step)
			got := read(t, m.Crash(KeepPrefix(cs)), dirs)
			k := -1
			for i, p := range states {
				if equal(got, p.contents()) {
					k = i
				}
			}
			if k < 0 {
				t.Fatalf("seed %d step %d: KeepPrefix left no prefix of the %d unsynced operations", seed, step, len(pend))
			}
			kept[k*4/(len(pend)+1)] = true
			got = read(t, m.Crash(TearLast(cs)), dirs)
			legal := false
			for i := 0; i <= len(pend) && !legal; i++ {
				want := states[i].contents()
				if legal = equal(got, want); legal || i == len(pend) || pend[i].kind != opWrite {
					continue
				}
				w := pend[i]
				for n := (len(w.data) - 1) / SectorSize * SectorSize; n < len(w.data) && !legal; n++ {
					f := model{names: states[i].names, files: map[int][]byte{w.id: bytes.Clone(states[i].files[w.id])}}
					f.apply(mop{kind: opWrite, id: w.id, off: w.off, data: w.data[:n]})
					for name, id := range f.names {
						if id == w.id {
							want[name] = string(f.files[w.id])
						}
					}
					if legal = equal(got, want); legal {
						torn++
					}
				}
			}
			if !legal {
				t.Fatalf("seed %d step %d: TearLast left a state no prefix and torn write explains", seed, step)
			}
		}
		for _, f := range open {
			f.Close()
		}
	}
	if len(kept) < 3 || torn == 0 {
		t.Fatalf("policies degenerate: prefix quartiles kept %v, %d torn crashes", kept, torn)
	}
}

func filter(ops []mop, keep func(mop) bool) []mop {
	out := ops[:0]
	for _, o := range ops {
		if keep(o) {
			out = append(out, o)
		}
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// BenchmarkMemWriteSync is an in-memory engine's write pattern: N page
// writes to one file that is never synced, each followed by a log append
// and a forcing Sync of another. A Sync settles only its own file's
// writes, so the cost per write does not grow with N. Reports ns/write.
func BenchmarkMemWriteSync(b *testing.B) {
	page, rec := make([]byte, 1024), make([]byte, 128)
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := NewMem()
				pages, err := m.OpenFile("pages", os.O_RDWR|os.O_CREATE)
				if err != nil {
					b.Fatal(err)
				}
				log, err := m.OpenFile("log", os.O_RDWR|os.O_CREATE)
				if err != nil {
					b.Fatal(err)
				}
				for w := 0; w < n; w++ {
					if _, err := pages.WriteAt(page, int64(w%512)*int64(len(page))); err != nil {
						b.Fatal(err)
					}
					if _, err := log.WriteAt(rec, int64(w)*int64(len(rec))); err != nil {
						b.Fatal(err)
					}
					if err := log.Sync(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/write")
		})
	}
}
