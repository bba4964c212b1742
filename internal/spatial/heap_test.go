package spatial

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/pitree/pitreetest"
)

// TestLiveHeapPerRecord: a loaded tree's heap is its records. 50 000
// scattered points with 100-byte values cost at most 1.65 times their
// encoded entries: 120 bytes each — point 16, value 100 and its length
// prefix; a point has no index-term field. The factor is the tightest that
// passes, not 1.6: the fixed cost of a record — its 8-byte slot, and the
// allocator's rounding of a buffer — is a larger share of 120 bytes, and
// the heap measures ≈ 193.5 bytes a record, 1.6 times 121. The tree has no
// update; the same holds after every point was deleted and inserted again
// with another value of the same length, half of them twice.
func TestLiveHeapPerRecord(t *testing.T) {
	const n, entry = 50000, 16 + 4 + 100
	pitreetest.HeapPerRecord(t, func(e *engine.Engine, measure func(string, int, float64)) {
		tree, err := Create(e.AddStore(1, Codec{}), e.TM, e.Locks, Register(e.Reg), "heap", Options{})
		if err != nil {
			t.Fatal(err)
		}
		e.RegisterCloser(tree.Close)
		value := func(gen byte) []byte { return bytes.Repeat([]byte{gen}, 100) }
		rng := rand.New(rand.NewSource(7))
		seen := map[Point]bool{}
		var pts []Point
		for len(pts) < n {
			if p := (Point{X: uint64(rng.Int63n(int64(MaxCoord))), Y: uint64(rng.Int63n(int64(MaxCoord)))}); !seen[p] {
				seen[p] = true
				pts = append(pts, p)
			}
		}
		for _, p := range pts {
			if err := tree.Insert(nil, p, value(1)); err != nil {
				t.Fatal(err)
			}
		}
		tree.DrainCompletions()
		measure("scattered load", n, 1.65*entry)

		for round, part := range [][]Point{pts, pts[:n/2]} {
			for _, p := range part {
				if err := tree.Delete(nil, p); err != nil {
					t.Fatal(err)
				}
				if err := tree.Insert(nil, p, value(byte(2+round))); err != nil {
					t.Fatal(err)
				}
			}
			tree.DrainCompletions()
			measure([]string{"every point deleted and inserted again", "half of them once more"}[round], n, 1.65*entry)
		}
	})
}
