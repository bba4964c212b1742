package tsb

import (
	"bytes"
	"testing"

	"repro/internal/keys"
	"repro/internal/pitree/pitreetest"
	"repro/internal/storage"
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
// keep past the latch, are copies. Every result — Get, GetAsOf, SnapshotGet,
// MultiGet, and the keys and values ScanAsOf and SnapshotScan hand their
// callbacks, kept past them as their comments allow — is held while every
// key gets two more versions of the same length (nodes split in time and by
// key under them) and must read as it did; nor may a result, a logged
// payload or a node's rectangle point into a node's records. (A posting
// task's rectangle is a clone of the new node's, which the rectangle check
// covers.)
func TestNoResultAliasesANode(t *testing.T) {
	const n = 150
	fx := newFixture(t, smallOpts())
	tree := fx.tree
	value := func(k uint64, gen byte) []byte { return append(bytes.Repeat([]byte{gen}, 90), keys.Uint64(k)...) }
	ks := make([]keys.Key, n)
	for k := range ks {
		ks[k] = keys.Uint64(uint64(k))
		if err := tree.Put(nil, ks[k], value(uint64(k), 1)); err != nil {
			t.Fatal(err)
		}
	}
	tree.DrainCompletions()
	asOf := tree.Now()

	type result struct {
		api  string
		key  uint64
		k, v []byte // k only where the API hands out keys
	}
	var held []result
	snap := fx.e.BeginSnapshot()
	for k := uint64(0); k < n; k++ {
		for api, get := range map[string]func() ([]byte, bool, error){
			"Get":         func() ([]byte, bool, error) { return tree.Get(nil, ks[k]) },
			"GetAsOf":     func() ([]byte, bool, error) { return tree.GetAsOf(nil, ks[k], asOf) },
			"SnapshotGet": func() ([]byte, bool, error) { return tree.SnapshotGet(snap, ks[k], make([]byte, 0, 128)) },
		} {
			v, found, err := get()
			if err != nil || !found {
				t.Fatalf("%s %d: %v %v", api, k, found, err)
			}
			held = append(held, result{api: api, key: k, v: v})
		}
	}
	vals, found := make([][]byte, n), make([]bool, n)
	if err := tree.MultiGet(nil, ks, vals, found); err != nil {
		t.Fatal(err)
	}
	for k, v := range vals {
		held = append(held, result{api: "MultiGet", key: uint64(k), v: v})
	}
	keep := func(api string) func(k keys.Key, v []byte) bool {
		return func(k keys.Key, v []byte) bool {
			held = append(held, result{api: api, key: keys.ToUint64(k), k: k, v: v})
			return true
		}
	}
	if err := tree.ScanAsOf(asOf, nil, nil, keep("ScanAsOf")); err != nil {
		t.Fatal(err)
	}
	if err := tree.SnapshotScan(snap, nil, nil, keep("SnapshotScan")); err != nil {
		t.Fatal(err)
	}
	snap.Release()

	// A result that aliased a node points into its records now; later the
	// node may have moved on to another buffer.
	_, spans := nodeRecords(t, tree)
	for _, r := range held {
		if pitreetest.Inside(r.v, spans) || pitreetest.Inside(r.k, spans) {
			t.Fatalf("%s of key %d points into a node's records", r.api, r.key)
		}
	}

	from := fx.e.Log.EndLSN()
	for gen := byte(2); gen <= 3; gen++ {
		for k := uint64(0); k < n; k++ {
			if err := tree.Put(nil, ks[k], value(k, gen)); err != nil {
				t.Fatal(err)
			}
		}
	}
	tree.DrainCompletions()
	if tree.Stats.TimeSplits.Load() == 0 || tree.Stats.KeySplits.Load() == 0 {
		t.Fatal("the overwrites split no node in time, or none by key")
	}

	var nodes []*Node
	nodes, spans = nodeRecords(t, tree)
	if len(held) != 6*n {
		t.Fatalf("%d results held, want %d", len(held), 6*n)
	}
	for _, r := range held {
		if !bytes.Equal(r.v, value(r.key, 1)) || (r.k != nil && !bytes.Equal(r.k, keys.Uint64(r.key))) {
			t.Fatalf("%s of key %d changed under the caller: now %x / %x", r.api, r.key, r.k, r.v)
		}
		if pitreetest.Inside(r.v, spans) || pitreetest.Inside(r.k, spans) {
			t.Fatalf("%s of key %d points into a node's records", r.api, r.key)
		}
	}
	// The log: each put record, redone on a node that holds the version it
	// supersedes, makes the version as it was written.
	puts := map[uint64]byte{}
	fx.e.Log.FullImage().Scan(from, func(r wal.Record) bool {
		if r.Type != wal.RecUpdate || r.Kind != KindPut {
			return true
		}
		p, err := decPut(r.Payload, r.TxnID)
		if err != nil {
			t.Fatal(err)
		}
		key := keys.ToUint64(p.Key)
		puts[key]++
		gen := 1 + puts[key]
		n := &Node{}
		n.setEntries(Entry{Key: p.Key, Start: p.Start - p.back, Value: value(key, gen-1)})
		e, err := p.version(n, nil)
		if err != nil || !bytes.Equal(e.Value, value(key, gen)) {
			t.Fatalf("put %d of key %d logged %x, which redoes to %x (%v)", puts[key], key, r.Payload, e.Value, err)
		}
		return true
	})
	if len(puts) != n {
		t.Fatalf("put records for %d keys, want %d", len(puts), n)
	}
	// Rectangles are their own memory: they must not pin a record buffer.
	for _, nd := range nodes {
		if pitreetest.Inside(nd.Rect.KeyLow, spans) || pitreetest.Inside(nd.Rect.KeyHigh.Key, spans) {
			t.Fatalf("node %v: a bound points into a node's records", nd.Rect)
		}
	}
}
