package spatial

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/pitree/pitreetest"
	"repro/internal/storage"
	"repro/internal/wal"
)

// nodeRecords returns every node below the store's high-water mark and
// every record in them: the memory no result and nothing a writer keeps may
// point into.
func nodeRecords(t *testing.T, tree *Tree) (nodes []*Node, spans [][]byte) {
	t.Helper()
	st, err := tree.store.SpaceStats()
	if err != nil {
		t.Fatal(err)
	}
	for pid := storage.PageID(2); pid < st.Next; pid++ {
		f, err := tree.store.Pool.Fetch(pid)
		if err != nil {
			continue
		}
		if n, ok := f.Data.(*Node); ok {
			nodes = append(nodes, n)
			for i := 0; i < n.Len(); i++ {
				spans = append(spans, n.recs.At(i))
			}
		}
		tree.store.Pool.Unpin(f)
	}
	return nodes, spans
}

// TestNoResultAliasesANode: what the read APIs return are copies. Every
// result — Search, and the values RegionQuery hands its callback, kept past
// it as its comment allows — points into no node's records, and is held
// while every point is deleted and inserted again with another value of the
// same length; it must read as it did. Nor does a logged payload change.
// (Points, rectangles and page ids are values: a posting task or a sibling
// term holds no slice.)
func TestNoResultAliasesANode(t *testing.T) {
	const n = 200
	fx := newFixture(t, smallOpts())
	tree := fx.tree
	value := func(p Point, gen byte) []byte {
		return binary.LittleEndian.AppendUint64(bytes.Repeat([]byte{gen}, 90), p.X^p.Y)
	}
	rng := rand.New(rand.NewSource(3))
	seen := map[Point]bool{}
	var pts []Point
	for len(pts) < n {
		if p := (Point{X: uint64(rng.Intn(1 << 16)), Y: uint64(rng.Intn(1 << 16))}); !seen[p] {
			seen[p] = true
			pts = append(pts, p)
			if err := tree.Insert(nil, p, value(p, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	tree.DrainCompletions()

	type result struct {
		api string
		p   Point
		v   []byte
	}
	var held []result
	for _, p := range pts {
		v, found, err := tree.Search(nil, p)
		if err != nil || !found {
			t.Fatalf("Search %v: %v %v", p, found, err)
		}
		held = append(held, result{"Search", p, v})
	}
	err := tree.RegionQuery(FullSpace(), func(p Point, v []byte) bool {
		held = append(held, result{"RegionQuery", p, v})
		return true
	})
	if err != nil || len(held) != 2*n {
		t.Fatalf("%d results held, want %d; %v", len(held), 2*n, err)
	}
	_, spans := nodeRecords(t, tree)
	for _, r := range held {
		if pitreetest.Inside(r.v, spans) {
			t.Fatalf("%s of %v points into a node's records", r.api, r.p)
		}
	}

	from := fx.e.Log.EndLSN()
	for _, p := range pts {
		if err := tree.Delete(nil, p); err != nil {
			t.Fatal(err)
		}
		if err := tree.Insert(nil, p, value(p, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range held {
		if !bytes.Equal(r.v, value(r.p, 1)) {
			t.Fatalf("%s of %v changed under the caller: now %x", r.api, r.p, r.v)
		}
	}
	// The log: a removal carries the value it removed, an insert the one it
	// wrote.
	logged := 0
	fx.e.Log.FullImage().Scan(from, func(r wal.Record) bool {
		if r.Type != wal.RecUpdate || (r.Kind != KindRemovePoint && r.Kind != KindInsertPoint) {
			return true
		}
		e, err := decRecord(0, r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		gen := byte(1)
		if r.Kind == KindInsertPoint {
			gen = 2
		}
		if logged++; !bytes.Equal(e.Value, value(e.P, gen)) {
			t.Fatalf("record of kind %d for %v logged %x", r.Kind, e.P, e.Value)
		}
		return true
	})
	if logged != 2*n {
		t.Fatalf("%d point records logged, want %d", logged, 2*n)
	}
}
