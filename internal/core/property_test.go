package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/storage"
)

// TestNodeEncodeDecodeProperty: the page codec round-trips arbitrary
// nodes exactly: values in a leaf, children in an index node.
func TestNodeEncodeDecodeProperty(t *testing.T) {
	f := func(level uint8, low []byte, highUnbounded bool, high []byte, right uint64, dead bool, ks [][]byte, vs [][]byte) bool {
		n := &Node{
			Level: int(level % 32),
			Low:   low,
			High:  keys.Bound{Unbounded: highUnbounded, Key: high},
			Right: storage.PageID(right),
			Dead:  dead,
		}
		var want []Entry
		for i := range ks {
			e := Entry{Key: ks[i]}
			if n.Level > 0 {
				e.Child = storage.PageID(right + uint64(i))
			} else if i < len(vs) {
				e.Value = vs[i]
			}
			want = append(want, e)
		}
		appendEntries(n, want...)
		enc, err := (Codec{}).AppendPage(nil, n)
		if err != nil {
			return false
		}
		dec, err := (Codec{}).DecodePage(enc)
		if err != nil {
			return false
		}
		m := dec.(*Node)
		if m.Level != n.Level || m.Dead != n.Dead || m.Right != n.Right {
			return false
		}
		if !bytes.Equal(m.Low, n.Low) && !(m.Low == nil && n.Low == nil) {
			return false
		}
		if m.High.Unbounded != n.High.Unbounded || !bytes.Equal(m.High.Key, n.High.Key) && !(m.High.Key == nil && n.High.Key == nil) {
			return false
		}
		got := entriesOf(m)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, want[i].Key) || (got[i].Key == nil) != (want[i].Key == nil) {
				return false
			}
			if !bytes.Equal(got[i].Value, want[i].Value) || (got[i].Value == nil) != (want[i].Value == nil) || got[i].Child != want[i].Child {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestNodeEntryOpsProperty: insertEntry/deleteEntry/search keep the
// entries sorted and behave like a sorted map.
func TestNodeEntryOpsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		n := &Node{High: keys.Inf}
		oracle := map[uint64]bool{}
		for _, op := range ops {
			k := uint64(op % 64)
			if op%2 == 0 {
				inserted := n.insertEntry(Entry{Key: keys.Uint64(k)})
				if inserted == oracle[k] {
					return false // must insert iff absent
				}
				oracle[k] = true
			} else {
				removed := n.deleteEntry(keys.Uint64(k))
				if removed != oracle[k] {
					return false
				}
				delete(oracle, k)
			}
			// Invariant: sorted, unique, matches oracle.
			if n.Len() != len(oracle) {
				return false
			}
			for i := 0; i < n.Len(); i++ {
				if i > 0 && keys.Compare(n.keyAt(i-1), n.keyAt(i)) >= 0 {
					return false
				}
				if !oracle[keys.ToUint64(n.keyAt(i))] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomOpsVsOracle drives a long random sequence of Insert / Update /
// Delete / Search / RangeScan against a map oracle, verifying well-
// formedness periodically, across the invariant regimes.
func TestRandomOpsVsOracle(t *testing.T) {
	for _, rg := range []struct {
		name string
		opts Options
	}{
		{"cns", Options{LeafCapacity: 5, IndexCapacity: 5, SyncCompletion: true}},
		{"cp-a", Options{LeafCapacity: 5, IndexCapacity: 5, Consolidation: true, SyncCompletion: true}},
		{"cp-b", Options{LeafCapacity: 5, IndexCapacity: 5, Consolidation: true, DeallocIsUpdate: true, SyncCompletion: true}},
	} {
		t.Run(rg.name, func(t *testing.T) {
			fx := newFixture(t, engine.Options{}, rg.opts)
			rng := rand.New(rand.NewSource(99))
			oracle := map[uint64]string{}
			const keyspace = 400
			for i := 0; i < 6000; i++ {
				k := uint64(rng.Intn(keyspace))
				kk := keys.Uint64(k)
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // insert
					err := fx.tree.Insert(nil, kk, []byte(fmt.Sprintf("v%d", i)))
					if _, exists := oracle[k]; exists {
						if err != ErrKeyExists {
							t.Fatalf("op %d: insert dup err=%v", i, err)
						}
					} else {
						if err != nil {
							t.Fatalf("op %d: insert err=%v", i, err)
						}
						oracle[k] = fmt.Sprintf("v%d", i)
					}
				case 4, 5: // delete
					err := fx.tree.Delete(nil, kk)
					if _, exists := oracle[k]; exists {
						if err != nil {
							t.Fatalf("op %d: delete err=%v", i, err)
						}
						delete(oracle, k)
					} else if err != ErrKeyNotFound {
						t.Fatalf("op %d: delete missing err=%v", i, err)
					}
				case 6: // update
					err := fx.tree.Update(nil, kk, []byte(fmt.Sprintf("u%d", i)))
					if _, exists := oracle[k]; exists {
						if err != nil {
							t.Fatalf("op %d: update err=%v", i, err)
						}
						oracle[k] = fmt.Sprintf("u%d", i)
					} else if err != ErrKeyNotFound {
						t.Fatalf("op %d: update missing err=%v", i, err)
					}
				case 7, 8: // search
					v, ok, err := fx.tree.Search(nil, kk)
					if err != nil {
						t.Fatalf("op %d: search err=%v", i, err)
					}
					want, exists := oracle[k]
					if ok != exists || (ok && string(v) != want) {
						t.Fatalf("op %d: search %d got (%q,%v) want (%q,%v)", i, k, v, ok, want, exists)
					}
				default: // scan a small range
					lo := uint64(rng.Intn(keyspace))
					hi := lo + uint64(rng.Intn(40))
					var got []uint64
					err := fx.tree.RangeScan(nil, keys.Uint64(lo), keys.Uint64(hi), func(k keys.Key, v []byte) bool {
						got = append(got, keys.ToUint64(k))
						return true
					})
					if err != nil {
						t.Fatalf("op %d: scan err=%v", i, err)
					}
					want := 0
					for kk := lo; kk < hi; kk++ {
						if _, ok := oracle[kk]; ok {
							want++
						}
					}
					if len(got) != want {
						t.Fatalf("op %d: scan [%d,%d) got %d keys want %d", i, lo, hi, len(got), want)
					}
				}
				if i%1500 == 1499 {
					fx.tree.DrainCompletions()
					if _, err := fx.tree.Verify(); err != nil {
						t.Fatalf("op %d: verify: %v", i, err)
					}
				}
			}
			shape := fx.mustVerify(t)
			if shape.Records != len(oracle) {
				t.Fatalf("final records=%d oracle=%d", shape.Records, len(oracle))
			}
		})
	}
}

// TestIntermediateStatesAreAlwaysSearchable checks the §2.1.3 claim that
// a Π-tree is well-formed at EVERY point between atomic actions: with
// completion disabled entirely, arbitrarily long unposted sibling chains
// still serve correct searches and scans.
func TestIntermediateStatesAreAlwaysSearchable(t *testing.T) {
	opts := Options{LeafCapacity: 4, IndexCapacity: 4, SyncCompletion: true, NoCompletion: true}
	fx := newFixture(t, engine.Options{}, opts)
	const n = 300
	for i := 0; i < n; i++ {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatal(err)
		}
		// The root's single level-1 node accumulates a huge unposted chain.
	}
	shape, err := fx.tree.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if shape.Records != n {
		t.Fatalf("records=%d", shape.Records)
	}
	for i := 0; i < n; i++ {
		v, ok, err := fx.tree.Search(nil, keys.Uint64(uint64(i)))
		if err != nil || !ok || string(v) != string(val(i)) {
			t.Fatalf("key %d: %q %v %v", i, v, ok, err)
		}
	}
	count := 0
	if err := fx.tree.RangeScan(nil, nil, nil, func(keys.Key, []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("scan saw %d", count)
	}
	if fx.tree.Stats.SideTraversals.Load() == 0 {
		t.Fatal("expected side traversals through the unposted chain")
	}
}
