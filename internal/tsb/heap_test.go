package tsb

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/pitree/pitreetest"
)

// TestLiveHeapPerRecord: a loaded tree's heap is its records. 50 000 keys
// put in scattered order with 100-byte values cost at most 1.6 times their
// encoded entries: 133 bytes each — key 8 and value 100 with their length
// prefixes, start, writer, the tombstone mark; a version has no index-term
// field. A put of an existing key is a new version, not a replacement, so
// the later phases count what the tree stores (Verify: every version in
// every node, the copies a time split leaves in both nodes included): after
// every key got a second version of the same length, and after half the
// keys were deleted (a tombstone version) and put again.
func TestLiveHeapPerRecord(t *testing.T) {
	const n, entry = 50000, 8 + 4 + 8 + 100 + 4 + 1 + 8
	pitreetest.HeapPerRecord(t, func(e *engine.Engine, measure func(string, int, float64)) {
		tree, err := Create(e.AddStore(1, Codec{}), e.TM, e.Locks, Register(e.Reg), "heap", Options{})
		if err != nil {
			t.Fatal(err)
		}
		e.RegisterCloser(tree.Close)
		value := func(gen byte) []byte { return bytes.Repeat([]byte{gen}, 100) }
		stored := func() int {
			tree.DrainCompletions()
			shape, err := tree.Verify()
			if err != nil {
				t.Fatal(err)
			}
			return shape.Versions
		}
		order := rand.New(rand.NewSource(7)).Perm(n)
		for _, k := range order {
			if err := tree.Put(nil, keys.Uint64(uint64(k)), value(1)); err != nil {
				t.Fatal(err)
			}
		}
		if got := stored(); got != n {
			t.Fatalf("%d versions stored after %d first puts", got, n)
		}
		measure("scattered load", n, 1.6*entry)

		for _, k := range order {
			if err := tree.Put(nil, keys.Uint64(uint64(k)), value(2)); err != nil {
				t.Fatal(err)
			}
		}
		measure("a second version of every key", stored(), 1.6*entry)

		for pass := 0; pass < 2; pass++ {
			for _, k := range order[:n/2] {
				if pass == 0 {
					err = tree.Delete(nil, keys.Uint64(uint64(k)))
				} else {
					err = tree.Put(nil, keys.Uint64(uint64(k)), value(3))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		measure("half deleted and put again", stored(), 1.6*entry)
	})
}
