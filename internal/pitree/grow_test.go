package pitree

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/wal"
)

// The toy tree's root growth: toyRoot, full at capacity two, takes the
// posting of (200, leafD) and grows through Kernel.Split over B, its upper
// half, and A, its lower.

// TestGrowRecords: a root growth allocates the upper half's page, then the
// lower's, formats the upper half, then the lower, then logs the growth —
// the two terms and the root's image as it was — and the root keeps its
// page, one level up over the halves.
func TestGrowRecords(t *testing.T) {
	ty := newPostToy(t)
	before := toyKinds.Image(ty.node(t, toyRoot))
	from := ty.log.EndLSN()
	if posted, err := ty.post(t, &toyPost{sep: 200, child: toyLeafD, level: 2, cap: 2}); !posted || err != nil {
		t.Fatalf("posted=%v err=%v", posted, err)
	}
	// The first page the store hands out takes B, the next A.
	pidB := toyLeafD + 1
	pidA := pidB + 1
	recs := ty.records(from)
	want := []struct {
		kind    wal.Kind
		page    storage.PageID
		payload []byte
	}{
		{storage.KindMetaAlloc, storage.MetaPage, nil},
		{storage.KindMetaAlloc, storage.MetaPage, nil},
		{toyKindFormat, pidB, nil},
		{toyKindFormat, pidA, toyKinds.Image(ty.node(t, pidA))},
		{toyKindGrow, toyRoot, append(toyTerm(toyTerm(nil, 0, pidA), 100, pidB), before...)},
		{toyKindTerm, pidB, nil},
	}
	if len(recs) != len(want)+1 || recs[len(want)].Type != wal.RecCommit {
		t.Fatalf("log holds %v, want %d updates and a commit", recTypes(recs), len(want))
	}
	for i, w := range want {
		r := recs[i]
		if r.Type != wal.RecUpdate || r.Kind != w.kind || r.PageID != uint64(w.page) || (w.payload != nil && !bytes.Equal(r.Payload, w.payload)) {
			t.Fatalf("record %d is %s kind %d on page %d (%x), want kind %d on page %d (%x)", i, r.Type, r.Kind, r.PageID, r.Payload, w.kind, w.page, w.payload)
		}
	}
	root := ty.node(t, toyRoot)
	if root.level != 3 || !slices.Equal(root.seps, []int{0, 100}) || !slices.Equal(root.kids, []storage.PageID{pidA, pidB}) {
		t.Fatalf("root at level %d holds %v -> %v", root.level, root.seps, root.kids)
	}
}

// TestGrowAbortRestoresRoot: an action that fails behind a root growth is
// rolled back under its latches, and the growth's undo — a restore of the
// image the growth logged — leaves the root exactly as it was.
func TestGrowAbortRestoresRoot(t *testing.T) {
	ty := newPostToy(t)
	inj := fault.New(1)
	ty.pool.SetInjector(inj)
	inj.Arm(FPPost, fault.Spec{Kind: fault.Transient})
	before := toyKinds.Image(ty.node(t, toyRoot))
	from := ty.log.EndLSN()
	if posted, err := ty.post(t, &toyPost{sep: 200, child: toyLeafD, level: 2, cap: 2}); posted || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("posted=%v err=%v", posted, err)
	}
	if got := toyKinds.Image(ty.node(t, toyRoot)); !bytes.Equal(got, before) {
		t.Fatalf("root after the abort is\n%x, want\n%x", got, before)
	}
	restores := 0
	for _, r := range ty.records(from) {
		if r.Type == wal.RecCLR && r.Kind == toyKindRestore {
			restores++
			if r.PageID != uint64(toyRoot) || !bytes.Equal(r.Payload, before) {
				t.Fatalf("restore of page %d with %x, want the root's image %x", r.PageID, r.Payload, before)
			}
		}
	}
	if restores != 1 || !ty.unlatched(t, toyRoot) {
		t.Fatalf("%d restores; root unlatched %v", restores, ty.unlatched(t, toyRoot))
	}
}

// FuzzGrowPayload: the growth record's decoder, under its redo and its
// undo, fails on arbitrary bytes: no panic, and no allocation sized by a
// count it has not checked against the input.
func FuzzGrowPayload(f *testing.F) {
	reg := storage.NewRegistry()
	toyKinds.Register(reg)
	h, err := reg.Handler(toyKindGrow)
	if err != nil {
		f.Fatal(err)
	}
	root := &toyNode{level: 1, high: math.MaxInt, seps: []int{0, 50}, kids: []storage.PageID{4, 5}}
	f.Add(append(toyTerm(toyTerm(nil, 0, 7), 50, 8), toyKinds.Image(root)...))
	f.Add(toyTerm(nil, 1, 2))
	f.Add(append(toyTerm(toyTerm(nil, 0, 7), 50, 8), 0xff, 0xff, 0xff, 0x7f))
	f.Fuzz(func(t *testing.T, b []byte) {
		rec := &wal.Record{Type: wal.RecUpdate, Kind: toyKindGrow, Payload: b}
		n := &toyNode{}
		if err := h.Redo(&storage.Frame{Data: n}, rec); err == nil && (n.level != 1 || len(n.seps) != 2) {
			t.Fatalf("growth raised the node to level %d over %d terms", n.level, len(n.seps))
		}
		if comp, err := h.MakeUndo(rec, nil); err == nil {
			pre, err := toyKinds.Decode(comp.Payload)
			if err != nil || comp.Kind != toyKindRestore || len(pre.seps) > len(b) {
				t.Fatalf("undo of %x is kind %d with %x (%v)", b, comp.Kind, comp.Payload, err)
			}
		}
	})
}
