package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/fsys"
	"repro/internal/latch"
	"repro/internal/wal"
)

// byteCodec stores raw byte slices as pages.
type byteCodec struct{}

func (byteCodec) AppendPage(dst []byte, v any) ([]byte, error) {
	b, ok := v.([]byte)
	if !ok {
		return nil, fmt.Errorf("byteCodec: %T", v)
	}
	return append(dst, b...), nil
}

func (byteCodec) DecodePage(b []byte) (any, error) {
	return append([]byte(nil), b...), nil
}

// testLogger is a minimal UpdateLogger chaining into a log, safe for
// concurrent use.
type testLogger struct {
	mu   sync.Mutex
	log  *wal.Log
	last wal.LSN
}

func (l *testLogger) LogUpdate(f *Frame, kind wal.Kind, payload []byte) wal.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.last = l.log.Append(&wal.Record{
		Type: wal.RecUpdate, Kind: kind, TxnID: 99, PrevLSN: l.last,
		StoreID: f.StoreID(), PageID: uint64(f.ID), PagePrev: f.PageLSN(), Payload: payload,
	})
	f.MarkDirty(l.last)
	return l.last
}

// memDisk returns an empty page file on a fresh in-memory file system.
func memDisk() *FileDisk {
	d, err := OpenFileDisk(fsys.NewMem(), "pages", 0)
	if err != nil {
		panic(err)
	}
	return d
}

func newTestPool(capacity int) (*Pool, *wal.Log) {
	log := wal.New()
	return NewPool(1, memDisk(), log, byteCodec{}, capacity), log
}

func mustCreate(t testing.TB, p *Pool, pid PageID) *Frame {
	t.Helper()
	f, err := p.Create(pid)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPoolCreateFetchUnpin(t *testing.T) {
	p, _ := newTestPool(0)
	f := mustCreate(t, p, 5)
	f.Latch.AcquireX()
	f.Data = []byte("hello")
	f.MarkDirty(10)
	f.Latch.ReleaseX()
	p.Unpin(f)

	g, err := p.Fetch(5)
	if err != nil {
		t.Fatal(err)
	}
	if string(g.Data.([]byte)) != "hello" {
		t.Fatalf("data = %q", g.Data)
	}
	if g.PageLSN() != 10 {
		t.Fatalf("pageLSN = %d", g.PageLSN())
	}
	p.Unpin(g)
}

func TestFetchMissing(t *testing.T) {
	p, _ := newTestPool(0)
	if _, err := p.Fetch(42); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("err = %v, want ErrPageNotFound", err)
	}
	f, err := p.FetchOrCreate(42)
	if err != nil {
		t.Fatal(err)
	}
	if f.Data != nil {
		t.Fatal("FetchOrCreate of missing page must have nil Data")
	}
	p.Unpin(f)
}

func TestFlushRoundTripAndWALProtocol(t *testing.T) {
	p, log := newTestPool(0)
	f := mustCreate(t, p, 3)
	f.Latch.AcquireX()
	lsn := log.Append(&wal.Record{Type: wal.RecUpdate, StoreID: 1, PageID: 3})
	f.Data = []byte("persisted")
	f.MarkDirty(lsn)
	f.Latch.ReleaseX()
	p.Unpin(f)

	if log.StableLSN() > lsn {
		t.Fatal("log unexpectedly stable before flush")
	}
	if err := p.FlushPage(3); err != nil {
		t.Fatal(err)
	}
	// WAL protocol: the flush must have forced the log through pageLSN.
	if log.StableLSN() <= lsn {
		t.Fatal("flush did not force the log first")
	}

	// Re-read through a fresh pool over the same disk.
	p2 := NewPool(1, p.Disk(), log, byteCodec{}, 0)
	g, err := p2.Fetch(3)
	if err != nil {
		t.Fatal(err)
	}
	if string(g.Data.([]byte)) != "persisted" || g.PageLSN() != lsn {
		t.Fatalf("after reload: %q lsn=%d", g.Data, g.PageLSN())
	}
	p2.Unpin(g)
}

func TestEvictionRespectsCapacityAndPins(t *testing.T) {
	p, _ := newTestPool(4)
	var pinned *Frame
	for i := PageID(10); i < 20; i++ {
		f := mustCreate(t, p, i)
		f.Latch.AcquireX()
		f.Data = []byte{byte(i)}
		f.MarkDirty(wal.LSN(i))
		f.Latch.ReleaseX()
		if i == 10 {
			pinned = f // keep pinned
		} else {
			p.Unpin(f)
		}
	}
	if p.BufferedCount() > 5 { // capacity 4 + 1 pinned overflow allowance
		t.Fatalf("buffered = %d", p.BufferedCount())
	}
	// The pinned page must still be buffered.
	g, err := p.Fetch(10)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(g)
	p.Unpin(pinned)
	// Evicted dirty pages must be readable from disk.
	h, err := p.Fetch(11)
	if err != nil {
		t.Fatal(err)
	}
	if h.Data.([]byte)[0] != 11 {
		t.Fatalf("evicted page corrupted: %v", h.Data)
	}
	p.Unpin(h)
}

func TestDirtyPagesSnapshot(t *testing.T) {
	p, _ := newTestPool(0)
	for i := PageID(2); i < 5; i++ {
		f := mustCreate(t, p, i)
		f.Latch.AcquireX()
		f.Data = []byte{1}
		f.MarkDirty(wal.LSN(i * 100))
		f.Latch.ReleaseX()
		p.Unpin(f)
	}
	dpt := p.DirtyPages()
	if len(dpt) != 3 {
		t.Fatalf("dirty pages = %d", len(dpt))
	}
	if dpt[3] != 300 {
		t.Fatalf("recLSN of page 3 = %d, want 300 (first dirtying LSN)", dpt[3])
	}
	// Updating again must not change recLSN.
	f, _ := p.Fetch(3)
	f.Latch.AcquireX()
	f.MarkDirty(999)
	f.Latch.ReleaseX()
	p.Unpin(f)
	if p.DirtyPages()[3] != 300 {
		t.Fatal("recLSN moved on second update")
	}
	if _, err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if len(p.DirtyPages()) != 0 {
		t.Fatal("dirty pages remain after FlushAll")
	}
}

func TestMetaAllocFreeReuse(t *testing.T) {
	m := NewMeta()
	a := m.AllocLocal()
	b := m.AllocLocal()
	if a != MetaPage+1 || b != a+1 {
		t.Fatalf("alloc sequence: %d %d", a, b)
	}
	m.FreeLocal(a)
	if !m.IsFree(a) {
		t.Fatal("freed page not free")
	}
	if c := m.AllocLocal(); c != a {
		t.Fatalf("LIFO reuse: got %d, want %d", c, a)
	}
	if m.IsFree(a) {
		t.Fatal("reallocated page still free")
	}
}

func TestMetaEncodeDecode(t *testing.T) {
	m := NewMeta()
	m.AllocLocal()
	m.AllocLocal()
	m.FreeLocal(2)
	m.Roots["tree-a"] = 3
	m.Roots["tree-b"] = 4

	got, err := decodeMeta(m.appendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Next != m.Next || len(got.Free) != 1 || got.Free[0] != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	if got.Roots["tree-a"] != 3 || got.Roots["tree-b"] != 4 {
		t.Fatalf("roots: %v", got.Roots)
	}
}

func TestStoreLoggedAllocFree(t *testing.T) {
	log := wal.New()
	reg := NewRegistry()
	RegisterMetaHandlers(reg)
	pool := NewPool(1, memDisk(), log, byteCodec{}, 0)
	st := NewStore(pool, reg)
	lg := &testLogger{log: log}
	tr := &latch.Tracker{}

	if err := st.Bootstrap(lg); err != nil {
		t.Fatal(err)
	}
	pid, err := st.Alloc(lg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := st.IsAllocated(pid); !ok {
		t.Fatal("allocated page not allocated")
	}
	if err := st.SetRoot(lg, tr, "r", pid); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Root("r"); err != nil || got != pid {
		t.Fatalf("root = %d, %v", got, err)
	}
	if err := st.Free(lg, tr, pid); err != nil {
		t.Fatal(err)
	}
	if ok, _ := st.IsAllocated(pid); ok {
		t.Fatal("freed page still allocated")
	}
	if err := st.Free(lg, tr, pid); err == nil {
		t.Fatal("double free not rejected")
	}
	if err := st.Free(lg, tr, MetaPage); err == nil {
		t.Fatal("freeing the meta page not rejected")
	}
}

// actionLogger is a testLogger with the commit hooks of an atomic action.
type actionLogger struct {
	testLogger
	hooks []func()
}

func (l *actionLogger) OnCommit(fn func()) { l.hooks = append(l.hooks, fn) }

func (l *actionLogger) commit() {
	for _, fn := range l.hooks {
		fn()
	}
	l.hooks = nil
}

// TestStoreSettlesAtCommit: what an action allocates or frees takes effect
// for everyone else only once it commits. Until then a page it allocated
// is not reported allocated — nothing may build on a node whose creation
// can still be undone — and a page it freed is not handed to a new owner.
func TestStoreSettlesAtCommit(t *testing.T) {
	log := wal.New()
	reg := NewRegistry()
	RegisterMetaHandlers(reg)
	st := NewStore(NewPool(1, memDisk(), log, byteCodec{}, 0), reg)
	tr := &latch.Tracker{}
	if err := st.Bootstrap(&testLogger{log: log}); err != nil {
		t.Fatal(err)
	}
	aa := &actionLogger{testLogger: testLogger{log: log}}
	pid, err := st.Alloc(aa, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := st.IsAllocated(pid); ok {
		t.Fatal("page allocated by an uncommitted action reported allocated")
	}
	aa.commit()
	if ok, _ := st.IsAllocated(pid); !ok {
		t.Fatal("committed allocation not allocated")
	}
	if err := st.Free(aa, tr, pid); err != nil {
		t.Fatal(err)
	}
	if again, err := st.Alloc(&testLogger{log: log}, tr); err != nil || again == pid {
		t.Fatalf("page freed by an uncommitted action handed out again: %d, %v", again, err)
	}
	aa.commit()
	if again, err := st.Alloc(&testLogger{log: log}, tr); err != nil || again != pid {
		t.Fatalf("committed free not recycled: got %d, want %d (%v)", again, pid, err)
	}
}

func TestMetaRedoIdempotence(t *testing.T) {
	log := wal.New()
	reg := NewRegistry()
	RegisterMetaHandlers(reg)
	pool := NewPool(1, memDisk(), log, byteCodec{}, 0)
	st := NewStore(pool, reg)
	lg := &testLogger{log: log}
	tr := &latch.Tracker{}
	if err := st.Bootstrap(lg); err != nil {
		t.Fatal(err)
	}
	pid, _ := st.Alloc(lg, tr)

	// Replaying the whole log against a fresh pool must reproduce the
	// same meta state, and a second replay must change nothing.
	replay := func(reg2 *Registry, log2 *wal.Log) {
		img := log2.FullImage()
		img.Scan(wal.NilLSN, func(rec wal.Record) bool {
			if rec.Type == wal.RecUpdate {
				if err := reg2.ApplyRedo(&rec); err != nil {
					t.Fatalf("redo: %v", err)
				}
			}
			return true
		})
	}
	reg2 := NewRegistry()
	RegisterMetaHandlers(reg2)
	pool2 := NewPool(1, memDisk(), log, byteCodec{}, 0)
	st2 := NewStore(pool2, reg2)
	replay(reg2, log)
	replay(reg2, log) // idempotent second pass

	if ok, err := st2.IsAllocated(pid); err != nil || !ok {
		t.Fatalf("replayed alloc missing: %v %v", ok, err)
	}
}

func TestConcurrentFetchers(t *testing.T) {
	p, _ := newTestPool(8)
	for i := PageID(2); i < 34; i++ {
		f := mustCreate(t, p, i)
		f.Latch.AcquireX()
		f.Data = []byte{byte(i)}
		f.MarkDirty(wal.LSN(i))
		f.Latch.ReleaseX()
		p.Unpin(f)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				pid := PageID(2 + (i*7+w)%32)
				f, err := p.Fetch(pid)
				if err != nil {
					t.Errorf("fetch %d: %v", pid, err)
					return
				}
				f.Latch.AcquireS()
				if f.Data.([]byte)[0] != byte(pid) {
					t.Errorf("page %d corrupted", pid)
				}
				f.Latch.ReleaseS()
				p.Unpin(f)
			}
		}(w)
	}
	wg.Wait()
}
