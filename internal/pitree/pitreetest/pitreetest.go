// Package pitreetest holds what the three trees' tests share.
package pitreetest

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/engine"
	"repro/internal/pitree"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// UndoRoundTrip logs an update record of kind with payload for page data —
// and before it, when sibImage is non-nil, the format record (kind format)
// of the sibling sibPid the update made — as one action's chain. It applies
// the record to data through its handler, then builds the record's
// compensation from the log and applies that through its handler, and
// returns the page's image after each step. An update that leaves the image
// as it was fails the test.
func UndoRoundTrip(t testing.TB, reg *storage.Registry, data any, image func(data any) []byte,
	format wal.Kind, sibPid storage.PageID, sibImage []byte, kind wal.Kind, payload []byte) (applied, undone []byte) {
	t.Helper()
	const txn, store, page = 1, 1, 77
	log := wal.New()
	var prev wal.LSN
	if sibImage != nil {
		prev = log.Append(&wal.Record{Type: wal.RecUpdate, Kind: format, TxnID: txn, StoreID: store, PageID: uint64(sibPid), Payload: sibImage})
	}
	rec := &wal.Record{Type: wal.RecUpdate, Kind: kind, TxnID: txn, PrevLSN: prev, StoreID: store, PageID: page, Payload: payload}
	log.Append(rec)
	before := image(data)
	f := &storage.Frame{ID: page, Data: data}
	h, err := reg.Handler(kind)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Redo(f, rec); err != nil {
		t.Fatalf("apply kind %d: %v", kind, err)
	}
	if applied = image(f.Data); bytes.Equal(applied, before) {
		t.Fatalf("kind %d changed nothing", kind)
	}
	comp, err := h.MakeUndo(rec, log)
	if err != nil {
		t.Fatalf("undo of kind %d: %v", kind, err)
	}
	ch, err := reg.Handler(comp.Kind)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Redo(f, &wal.Record{Type: wal.RecCLR, Kind: comp.Kind, StoreID: rec.StoreID, PageID: rec.PageID, Payload: comp.Payload}); err != nil {
		t.Fatalf("apply compensation kind %d: %v", comp.Kind, err)
	}
	return applied, image(f.Data)
}

// CutBeforeCommit forces the log and returns the LSN of the commit record
// of the transaction that logged the log's last update record of kind: a
// crash image cut there holds the whole transaction and not its commit.
func CutBeforeCommit(t testing.TB, log *wal.Log, kind wal.Kind) wal.LSN {
	t.Helper()
	var id wal.TxnID
	var commit wal.LSN
	stable(t, log).Scan(wal.NilLSN, func(r wal.Record) bool {
		switch {
		case r.Type == wal.RecUpdate && r.Kind == kind:
			id, commit = r.TxnID, wal.NilLSN
		case r.Type == wal.RecCommit && r.TxnID == id:
			commit = r.LSN
		}
		return true
	})
	if commit == wal.NilLSN {
		t.Fatalf("no committed transaction logged a record of kind %d", kind)
	}
	return commit
}

// CutAtFailure forces the log and returns the LSN of the first abort record
// at or after from — the rollback of an action a failpoint failed — and
// the kind of the last update record before it: a crash image cut there
// holds what the action logged before its failpoint and none of its undo.
func CutAtFailure(t testing.TB, log *wal.Log, from wal.LSN) (cut wal.LSN, last wal.Kind) {
	t.Helper()
	stable(t, log).Scan(from, func(r wal.Record) bool {
		switch r.Type {
		case wal.RecAbort:
			cut = r.LSN
			return false
		case wal.RecUpdate:
			last = r.Kind
		}
		return true
	})
	if cut == wal.NilLSN {
		t.Fatal("no action was rolled back")
	}
	return cut, last
}

// FailedCommitReturns runs free, an action whose commit cannot be forced
// (ForceOnAACommit and a dead log device), and fails the test unless it
// returns the failed force within a deadline, rolled back: its rollback
// ran under the latches the action holds, none of them waited for by its
// own operation.
func FailedCommitReturns(t testing.TB, free func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- free() }()
	select {
	case err := <-done:
		if !errors.Is(err, wal.ErrLogFailed) || errors.Is(err, txn.ErrDoomed) {
			t.Fatalf("free: %v, want the failed force, rolled back", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the free's rollback waits for a latch its own operation holds")
	}
}

// FreeIffUnlinked fails the test unless the pages k's walk from the root
// reaches are exactly the pages st's free-space map holds allocated.
func FreeIffUnlinked[N, K any](t testing.TB, k *pitree.Kernel[N, K], st *storage.Store) {
	t.Helper()
	reachable := map[storage.PageID]bool{}
	if err := k.Walk(0, func(r pitree.Ref[N]) error {
		reachable[r.Pid()] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	next, free, ok := st.Pool.SpaceSnapshot()
	if !ok {
		t.Fatal("store has no free-space map")
	}
	isFree := make(map[storage.PageID]bool, len(free))
	for _, pid := range free {
		isFree[pid] = true
	}
	for pid := storage.MetaPage + 1; pid < next; pid++ {
		if isFree[pid] == reachable[pid] {
			t.Fatalf("page %d: free %v, reachable %v", pid, isFree[pid], reachable[pid])
		}
	}
}

// stable forces log and returns the whole of it its segment files hold.
func stable(t testing.TB, log *wal.Log) *wal.Reader {
	t.Helper()
	img, err := log.StableImage()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// RecordsFrom forces log and returns its records from lsn on.
func RecordsFrom(t testing.TB, log *wal.Log, lsn wal.LSN) []wal.Record {
	t.Helper()
	var recs []wal.Record
	stable(t, log).Scan(lsn, func(r wal.Record) bool {
		recs = append(recs, r)
		return true
	})
	return recs
}

// PayloadsAreRecords fails the test unless every record of the given kinds
// in log carries one of records — page records the caller collected from
// the tree's nodes — byte for byte, and each kind was logged at least once.
func PayloadsAreRecords(t testing.TB, log *wal.Log, records map[string]bool, kinds ...wal.Kind) {
	t.Helper()
	seen := map[wal.Kind]int{}
	for _, k := range kinds {
		seen[k] = 0
	}
	for _, r := range RecordsFrom(t, log, wal.NilLSN) {
		if n, ok := seen[r.Kind]; ok {
			seen[r.Kind] = n + 1
			if !records[string(r.Payload)] {
				t.Errorf("record of kind %d at LSN %d: payload %x is no node's record", r.Kind, r.LSN, r.Payload)
			}
		}
	}
	for k, n := range seen {
		if n == 0 {
			t.Errorf("the workload logged no record of kind %d", k)
		}
	}
}

// SameRecords fails the test unless got and want are the same records, in
// the same order: LSN, type, transaction, kind, page, chain links and
// payload.
func SameRecords(t testing.TB, got, want []wal.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.LSN != w.LSN || g.Type != w.Type || g.TxnID != w.TxnID || g.Kind != w.Kind || g.StoreID != w.StoreID ||
			g.PageID != w.PageID || g.PrevLSN != w.PrevLSN || g.UndoNext != w.UndoNext || !bytes.Equal(g.Payload, w.Payload) {
			t.Fatalf("record %d is %+v, want %+v", i, g, w)
		}
	}
}

// GrowIdentity holds the last root growth logged from lsn on, and the
// restore that rolled it back, to a reference's bytes: oracle builds the
// growth's payload from the pages and format images of the two halves — A,
// the lower, and B, whose format comes first — and undo builds the
// restore's payload from that.
func GrowIdentity(t testing.TB, log *wal.Log, from wal.LSN, format, grow, restore wal.Kind,
	oracle func(pidA, pidB storage.PageID, imageA, imageB []byte) []byte, undo func(payload []byte) []byte) {
	t.Helper()
	var formats []wal.Record
	var growth, clr *wal.Record
	for _, r := range RecordsFrom(t, log, from) {
		switch {
		case r.Type == wal.RecUpdate && r.Kind == format:
			formats = append(formats, r)
		case r.Type == wal.RecUpdate && r.Kind == grow:
			growth, clr = &r, nil
			if len(formats) < 2 || formats[len(formats)-1].PrevLSN != formats[len(formats)-2].LSN || r.PrevLSN != formats[len(formats)-1].LSN {
				t.Fatalf("growth at LSN %d does not follow its two halves' formats", r.LSN)
			}
		case r.Type == wal.RecCLR && r.Kind == restore:
			clr = &r
		}
	}
	if growth == nil || clr == nil || clr.PageID != growth.PageID {
		t.Fatal("no root growth rolled back by a restore of its page")
	}
	b, a := formats[len(formats)-2], formats[len(formats)-1]
	want := oracle(storage.PageID(a.PageID), storage.PageID(b.PageID), a.Payload, b.Payload)
	if !bytes.Equal(growth.Payload, want) {
		t.Fatalf("growth logs\n%x, want\n%x", growth.Payload, want)
	}
	if want := undo(want); !bytes.Equal(clr.Payload, want) {
		t.Fatalf("its restore logs\n%x, want\n%x", clr.Payload, want)
	}
}

// SplitIdentity holds the last split logged from lsn on — a record of one
// of the kinds splits, whose action's previous record is the format of the
// new sibling — and the CLR of kind clr that rolled it back on its page, to
// a reference's bytes: oracle builds the sibling's image and the split
// record's payload from the split page and the sibling's, and undo builds
// the CLR's payload from those two.
func SplitIdentity(t testing.TB, log *wal.Log, from wal.LSN, format, clr wal.Kind, splits []wal.Kind,
	oracle func(page, sib storage.PageID) (image, payload []byte), undo func(image, payload []byte) []byte) {
	t.Helper()
	var prev wal.Record
	var sibling, split, comp *wal.Record
	for _, r := range RecordsFrom(t, log, from) {
		switch {
		case r.Type == wal.RecUpdate && slices.Contains(splits, r.Kind):
			if prev.Kind != format || r.PrevLSN != prev.LSN {
				t.Fatalf("split at LSN %d does not follow its sibling's format", r.LSN)
			}
			f, s := prev, r
			sibling, split, comp = &f, &s, nil
		case r.Type == wal.RecCLR && r.Kind == clr && split != nil && r.PageID == split.PageID:
			c := r
			comp = &c
		}
		if r.Type == wal.RecUpdate {
			prev = r
		}
	}
	if split == nil || comp == nil {
		t.Fatal("no split rolled back by a compensation of its page")
	}
	image, payload := oracle(storage.PageID(split.PageID), storage.PageID(sibling.PageID))
	if !bytes.Equal(sibling.Payload, image) {
		t.Fatalf("sibling's format logs\n%x, want\n%x", sibling.Payload, image)
	}
	if !bytes.Equal(split.Payload, payload) {
		t.Fatalf("split kind %d logs\n%x, want\n%x", split.Kind, split.Payload, payload)
	}
	if want := undo(image, payload); !bytes.Equal(comp.Payload, want) {
		t.Fatalf("its compensation logs\n%x, want\n%x", comp.Payload, want)
	}
}

// Images returns the image of every node k's walk from the root reaches,
// by page — nil if the walk fails: what a split's oracle reads the node it
// cut from.
func Images[N, K any](k *pitree.Kernel[N, K], image func(N) []byte) map[storage.PageID][]byte {
	out := map[storage.PageID][]byte{}
	if err := k.Walk(0, func(r pitree.Ref[N]) error {
		out[r.Pid()] = image(r.N)
		return nil
	}); err != nil {
		return nil
	}
	return out
}

// FinishAudited runs a restart's undo pass — finish, typically the
// engine's FinishRecovery — inside the space audit: the alloc/free history
// of e's replayed log goes through recovery's shadow model, and e's
// free-space maps must match it once as redo left them and once more after
// undo. Both reads of the log are of its segment files.
func FinishAudited(t testing.TB, e *engine.Engine, finish func() error) {
	t.Helper()
	img := stable(t, e.Log)
	shadow, err := recovery.AuditSpace(img)
	if err == nil {
		err = recovery.CheckSpace(shadow, e.Pools()...)
	}
	if err != nil {
		t.Fatalf("space audit before undo: %v", err)
	}
	if err := finish(); err != nil {
		t.Fatalf("undo losers: %v", err)
	}
	shadow, err = recovery.AuditSpaceTail(shadow, stable(t, e.Log), img.EndLSN())
	if err == nil {
		err = recovery.CheckSpace(shadow, e.Pools()...)
	}
	if err != nil {
		t.Fatalf("space audit after undo: %v", err)
	}
}

// WriteDoomed runs write, each time in a new transaction, for items n-1
// down to 0 of a transaction whose rollback failed, until one write gets
// past the broken disk to the item's lock — a write whose descent needed
// an eviction fails with storage.ErrDiskFailed first. That write must fail
// at once with an error that says the engine is degraded, not park on a
// lock its holder will never release.
func WriteDoomed(t testing.TB, e *engine.Engine, n int, write func(tx *txn.Txn, i int) error) {
	t.Helper()
	for i := n - 1; i >= 0; i-- {
		done := make(chan error, 1)
		go func() {
			tx := e.TM.Begin()
			defer tx.Abort()
			done <- write(tx, i)
		}()
		select {
		case err := <-done:
			if errors.Is(err, storage.ErrDiskFailed) {
				continue
			}
			if !errors.Is(err, engine.ErrDegraded) {
				t.Fatalf("write of the doomed transaction's item %d: %v, want ErrDegraded", i, err)
			}
			return
		case <-time.After(10 * time.Second):
			t.Fatalf("a write of the doomed transaction's item %d parks on its lock", i)
		}
	}
	t.Fatal("no write reached a lock of the doomed transaction")
}

// CopyDir copies the directory tree at src into a fresh temporary
// directory and returns it: a checked-in data directory is opened — and
// written to — through a copy.
func CopyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy %s: %v", src, err)
	}
	return dst
}

// HeapPerRecord measures what one stored record costs in live heap: it
// opens a file-backed engine in a temporary directory — so neither the log
// nor the stable pages are heap — and hands it to load, which builds a tree
// and then calls measure(phase, records, budget) at every point of interest.
// measure writes the pages back, checkpoints (the in-memory log is trimmed
// to the checkpoint), collects garbage, and fails the test if the heap grown
// since before the engine existed, divided by records, exceeds budget bytes.
func HeapPerRecord(t *testing.T, load func(e *engine.Engine, measure func(phase string, records int, budget float64))) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	base := heap()
	e, _, err := engine.Open(engine.Options{DataDir: t.TempDir(), SlotSize: 32 << 10, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	load(e, func(phase string, records int, budget float64) {
		t.Helper()
		if _, err := e.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		per := float64(int64(heap()-base)) / float64(records)
		t.Logf("%s: %.1f bytes of live heap per record (%d records, budget %.1f)", phase, per, records, budget)
		if per > budget {
			t.Errorf("%s: %.1f bytes of live heap per record, budget %.1f: the heap holds more than the records", phase, per, budget)
		}
	})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// Inside reports whether b's first byte lies inside one of the byte ranges
// in spans: whether b, a slice some API returned or kept, aliases memory the
// caller does not own — a node's records, say.
func Inside(b []byte, spans [][]byte) bool {
	if len(b) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	for _, s := range spans {
		if start := uintptr(unsafe.Pointer(unsafe.SliceData(s))); len(s) > 0 && p >= start && p < start+uintptr(len(s)) {
			return true
		}
	}
	return false
}

// TwinTree is the slice of a tree BoundedTwin drives.
type TwinTree interface {
	// Write puts val under key, or deletes key (a no-op when it is absent),
	// inside tx.
	Write(tx *txn.Txn, key uint64, val []byte, del bool) error
	// Scan lists the tree's current contents in order.
	Scan() ([]string, error)
	// Verify runs the tree's well-formedness check.
	Verify() error
}

// Twin is one engine of a BoundedTwin run: its tree, and how to crash and
// restart it (the log is forced when Restart runs).
type Twin struct {
	E       *engine.Engine
	Tree    TwinTree
	Restart func(t *testing.T) *Twin
}

// BoundedTwin runs one seeded stream of transactions, some aborted,
// against two copies of a tree — one over a pool of capacity frames, which
// evicts and so drops dirty pages unwritten and replays them, and one over
// an unbounded pool — crashes both at the same seeded point with a
// transaction left open, and restarts them, the bounded one redoing
// through its bounded pool. Both must then verify and scan identically.
func BoundedTwin(t *testing.T, seed int64, capacity, ops, keySpace int, open func(eopts engine.Options) *Twin) {
	t.Helper()
	crashAt := ops/2 + rand.New(rand.NewSource(seed)).Intn(ops/2)
	var scans [2][]string
	for i, eopts := range []engine.Options{{PoolCapacity: capacity}, {}} {
		tw := open(eopts)
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < crashAt; op++ {
			tx := tw.E.TM.Begin()
			var err error
			for w := 1 + rng.Intn(3); w > 0 && err == nil; w-- {
				k := uint64(rng.Intn(keySpace))
				err = tw.Tree.Write(tx, k, []byte(fmt.Sprintf("v%d.%d", k, op)), rng.Intn(4) == 0)
			}
			if err != nil || rng.Intn(8) == 0 {
				err = tx.Abort()
			} else {
				err = tx.Commit()
			}
			if err != nil {
				t.Fatalf("twin %d op %d: %v", i, op, err)
			}
		}
		tx := tw.E.TM.Begin()
		for w := 0; w < 4; w++ {
			k := uint64(rng.Intn(keySpace))
			if err := tw.Tree.Write(tx, k, []byte("loser"), false); err != nil {
				t.Fatalf("twin %d: the open transaction's write: %v", i, err)
			}
		}
		if err := tw.E.Log.ForceAll(); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			var s storage.PoolStats
			for _, p := range tw.E.Pools() {
				s = p.Stats()
			}
			if s.Elisions == 0 || s.Replays == 0 {
				t.Fatalf("the bounded twin never elided and replayed a page: %+v", s)
			}
		}
		tw = tw.Restart(t)
		if err := tw.Tree.Verify(); err != nil {
			t.Fatalf("twin %d after restart: %v", i, err)
		}
		var err error
		if scans[i], err = tw.Tree.Scan(); err != nil {
			t.Fatalf("twin %d scan: %v", i, err)
		}
	}
	if len(scans[1]) == 0 {
		t.Fatal("the twins hold nothing to compare")
	}
	if !slices.Equal(scans[0], scans[1]) {
		t.Fatalf("the bounded twin scans %d entries, the unbounded one %d; they differ", len(scans[0]), len(scans[1]))
	}
}

// ScanReadAhead holds a tree's scan read-ahead to the scan's end. pool is
// the tree's store pool with read-ahead enabled at window; low holds the
// low key of each leaf of the tree's leaf chain in key order (low[0] is
// the chain's first leaf and is not used), and every one of those leaves
// is cold. scan(lo, hi, first) scans the tree from lo to hi (exclusive;
// nil for no end), delivering only the first key when first is set.
//
// A scan from low[1] to low[4] reads leaves 1 to 3, so read-ahead may read
// at most leaves 2 and 3: nothing past the leaf whose high bound is the
// end. A scan with no end that stops at its first key still has its
// successor warmed and walked for a full window of reads.
func ScanReadAhead(t testing.TB, pool *storage.Pool, window int, low [][]byte, scan func(lo, hi []byte, first bool) error) {
	t.Helper()
	if len(low) < 12+window {
		t.Fatalf("a leaf chain of %d leaves; want at least %d", len(low), 12+window)
	}
	issued := func() int64 { return pool.Stats().PrefetchIssued }
	// settled waits until the prefetcher has issued no read for 20 ms.
	settled := func() int64 {
		last := issued()
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			time.Sleep(20 * time.Millisecond)
			cur := issued()
			if cur == last {
				return cur
			}
			last = cur
		}
		t.Fatalf("read-ahead never settled: %d reads", last)
		return 0
	}
	if err := scan(low[1], low[4], false); err != nil {
		t.Fatal(err)
	}
	if got := settled(); got > 2 {
		t.Fatalf("a scan over leaves 1 to 3 read ahead %d leaves; want at most 2, none past its end", got)
	}
	before := issued()
	if err := scan(low[10], nil, true); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); issued()-before < int64(window) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := settled() - before; got != int64(window) {
		t.Fatalf("a scan with no end read ahead %d leaves; want the full window of %d", got, window)
	}
}
