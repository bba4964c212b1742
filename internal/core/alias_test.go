package core

import (
	"bytes"
	"testing"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/pitree/pitreetest"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// nodeRecords returns every node below the store's high-water mark and
// every record in them: the memory no result and nothing a writer keeps may point into.
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

// TestNoResultAliasesANode: what the read APIs return, and what the writers
// keep past the latch, are copies. Every result is held while each key is
// overwritten twice with other values of the same length — in place, under
// the slices if they aliased a node — and must read as it did; nor may a
// result, a logged payload or a node's bound point into a node's records.
// (A saved Path holds page ids and state identifiers, no bytes; a posting
// task's separator is the slice the split also put into its node's High,
// which the bound check covers.)
func TestNoResultAliasesANode(t *testing.T) {
	const n = 200
	fx := newFixture(t, engine.Options{}, Options{LeafCapacity: 8, IndexCapacity: 8, SyncCompletion: true})
	tree := fx.tree
	value := func(k uint64, gen byte) []byte { return append(bytes.Repeat([]byte{gen}, 90), keys.Uint64(k)...) }
	ks := make([]keys.Key, n)
	for k := range ks {
		ks[k] = keys.Uint64(uint64(k))
		if err := tree.Insert(nil, ks[k], value(uint64(k), 1)); err != nil {
			t.Fatal(err)
		}
	}
	tree.DrainCompletions()

	type result struct {
		api  string
		key  uint64
		k, v []byte // k only where the API hands out keys
	}
	var held []result
	for k := uint64(0); k < n; k++ {
		v, found, err := tree.Search(nil, ks[k])
		if err != nil || !found {
			t.Fatalf("Search %d: %v %v", k, found, err)
		}
		held = append(held, result{api: "Search", key: k, v: v})
		v, _, _ = tree.SearchInto(nil, ks[k], make([]byte, 0, 128))
		held = append(held, result{api: "SearchInto", key: k, v: v})
	}
	vals, found := make([][]byte, n), make([]bool, n)
	if err := tree.MultiGet(nil, ks, vals, found); err != nil {
		t.Fatal(err)
	}
	for k, v := range vals {
		held = append(held, result{api: "MultiGet", key: uint64(k), v: v})
	}
	// RangeScan promises copies: they are kept past the callback, from a
	// latched-only scan and from one under a transaction's locks.
	tx := fx.e.TM.Begin()
	for _, scanTx := range []*txn.Txn{nil, tx} {
		err := tree.RangeScan(scanTx, nil, nil, func(k keys.Key, v []byte) bool {
			held = append(held, result{api: "RangeScan", key: keys.ToUint64(k), k: k, v: v})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// A result that aliased a node points into its records now; later the
	// node may have moved on to another buffer.
	_, spans := nodeRecords(t, tree)
	for _, r := range held {
		if pitreetest.Inside(r.v, spans) || pitreetest.Inside(r.k, spans) {
			t.Fatalf("%s of key %d points into a node's records", r.api, r.key)
		}
	}

	// Overwrite in place, twice: by single updates, then by one batch (the
	// group append).
	from := fx.e.Log.EndLSN()
	for k := uint64(0); k < n; k++ {
		if err := tree.Update(nil, ks[k], value(k, 2)); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([][]byte, n)
	for k := range batch {
		batch[k] = value(uint64(k), 3)
	}
	if err := tree.MultiPut(nil, ks, batch); err != nil {
		t.Fatal(err)
	}

	var nodes []*Node
	nodes, spans = nodeRecords(t, tree)
	if len(held) != 5*n {
		t.Fatalf("%d results held, want %d", len(held), 5*n)
	}
	for _, r := range held {
		if !bytes.Equal(r.v, value(r.key, 1)) || (r.k != nil && !bytes.Equal(r.k, keys.Uint64(r.key))) {
			t.Fatalf("%s of key %d changed under the caller: now %x / %x", r.api, r.key, r.k, r.v)
		}
		if pitreetest.Inside(r.v, spans) || pitreetest.Inside(r.k, spans) {
			t.Fatalf("%s of key %d points into a node's records", r.api, r.key)
		}
	}
	// The log: each update record's delta turns the value it replaced into
	// the one it wrote, as they were then.
	updates := map[uint64]int{}
	fx.e.Log.FullImage().Scan(from, func(r wal.Record) bool {
		if r.Type != wal.RecUpdate || r.Kind != KindUpdateRecord {
			return true
		}
		d, err := decUpdate(r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		key := keys.ToUint64(d.key)
		updates[key]++
		gen := byte(updates[key])
		if got, err := d.apply(nil, value(key, gen)); err != nil || !bytes.Equal(got, value(key, gen+1)) {
			t.Fatalf("update %d of key %d logged a delta that makes %x of %x (%v), want %x", gen, key, got, value(key, gen), err, value(key, gen+1))
		}
		return true
	})
	if len(updates) != n {
		t.Fatalf("update records for %d keys, want %d", len(updates), n)
	}
	// Bounds are their own memory: they must not pin a record buffer.
	for _, nd := range nodes {
		if pitreetest.Inside(nd.Low, spans) || pitreetest.Inside(nd.High.Key, spans) {
			t.Fatalf("%v: a bound points into a node's records", nd)
		}
	}
}
