package core

import (
	"bytes"
	"testing"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/pitree/pitreetest"
)

// TestLiveHeapPerRecord: a loaded tree's heap is its records. 50 000
// records of 100-byte values, loaded in ascending key order (the order that
// leaves every leaf but the last half full, and that once left the moved
// halves reachable from the slack of the kept ones), cost at most 1.6 times
// their encoded entries: 116 bytes each — key 8, value 100, two length
// prefixes; a leaf entry has no child field. The same after every value was
// replaced by one of its length (in place: no growth) and after half the
// records were deleted and inserted again (the holes are reused or squeezed
// out).
func TestLiveHeapPerRecord(t *testing.T) {
	const n, entry = 50000, 8 + 100 + 4 + 4
	pitreetest.HeapPerRecord(t, func(e *engine.Engine, measure func(string, int, float64)) {
		b := Register(e.Reg, false)
		tree, err := Create(e.AddStore(1, Codec{}), e.TM, e.Locks, b, "heap", Options{})
		if err != nil {
			t.Fatal(err)
		}
		e.RegisterCloser(tree.Close)
		value := func(gen byte) []byte { return bytes.Repeat([]byte{gen}, 100) }
		for k := uint64(0); k < n; k++ {
			if err := tree.Insert(nil, keys.Uint64(k), value(1)); err != nil {
				t.Fatal(err)
			}
		}
		tree.DrainCompletions()
		measure("ascending load", n, 1.6*entry)

		for k := uint64(0); k < n; k++ {
			if err := tree.Update(nil, keys.Uint64(k), value(2)); err != nil {
				t.Fatal(err)
			}
		}
		measure("same-length updates", n, 1.6*entry)

		for pass := 0; pass < 2; pass++ {
			for k := uint64(0); k < n; k += 2 {
				if pass == 0 {
					err = tree.Delete(nil, keys.Uint64(k))
				} else {
					err = tree.Insert(nil, keys.Uint64(k), value(3))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		tree.DrainCompletions()
		measure("half deleted and inserted again", n, 1.6*entry)
	})
}
