package spatial

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/pitree/pitreetest"
)

// TestRecordBytesPerLevel: with a 100-byte value a point is 117 bytes on
// the page — coordinates, value and its one-byte length prefix — and a term 41
// (rectangle, child, clipped mark); and every log payload that carries one
// record is its level's page record byte for byte: a point's insert and
// removal the point, a term's posting and removal the term.
func TestRecordBytesPerLevel(t *testing.T) {
	value := bytes.Repeat([]byte{'v'}, 100)
	for _, c := range []struct {
		level, size int
		rec         []byte
	}{
		{0, 117, appendPoint(nil, Entry{P: Point{X: 7, Y: 9}, Value: value})},
		{1, 41, appendTerm(nil, Entry{Rect: Rect{X0: 1, Y0: 2, X1: 3, Y1: 4}, Child: 9, Clipped: true})},
	} {
		n := &Node{Level: c.level}
		n.insertAt(0, viewEntry(c.level, c.rec))
		if len(c.rec) != c.size || n.recs.Size() != c.size || !bytes.Equal(n.recs.At(0), c.rec) {
			t.Fatalf("level %d: a record of %d bytes, %d in the node, want %d", c.level, len(c.rec), n.recs.Size(), c.size)
		}
	}

	// The records of every node after every operation. A posted term is not
	// clipped, and an index split may clip it later: a term's record also
	// counts with its mark cleared.
	opts := slimOpts()
	opts.Reclaim = true
	fx := newFixture(t, opts)
	records := map[string]bool{}
	do := func(op func(Point, []byte) error, i int) {
		if err := op(pointNo(i), value); err != nil {
			t.Fatal(err)
		}
		fx.tree.DrainCompletions()
		nodes, _ := nodeRecords(t, fx.tree)
		for _, n := range nodes {
			for i := 0; i < n.Len(); i++ {
				rec := n.recs.At(i)
				records[string(rec)] = true
				if !n.IsData() {
					records[string(append(bytes.Clone(rec[:len(rec)-1]), 0))] = true
				}
			}
		}
	}
	for i := 0; i < 200; i++ {
		do(func(p Point, v []byte) error { return fx.tree.Insert(nil, p, v) }, i)
	}
	for i := 4; i < 200; i++ {
		do(func(p Point, _ []byte) error { return fx.tree.Delete(nil, p) }, i)
	}
	if _, err := fx.tree.RunConsolidation(); err != nil {
		t.Fatal(err)
	}
	pitreetest.PayloadsAreRecords(t, fx.e.Log, records, KindInsertPoint, KindRemovePoint, KindPostTerm, KindRemoveTerm)
}

// FuzzNodeImage: arbitrary bytes behind each level's header field through
// the page codec decode to an error or to a node whose every entry can be
// viewed and whose image decodes to itself; never a panic, and never a slot
// table larger than the input could fill.
func FuzzNodeImage(f *testing.F) {
	rng := rand.New(rand.NewSource(30))
	f.Add(encNodeImage(randomNode(rng, 0))[2:])
	f.Add(encNodeImage(randomNode(rng, 1))[2:])
	f.Add(encNodeImage(randomNode(rng, 2))[2:])
	f.Add(bytes.Repeat([]byte{0xff}, 60))
	f.Fuzz(func(t *testing.T, b []byte) {
		for level := uint16(0); level < 3; level++ {
			img := append(binary.LittleEndian.AppendUint16(nil, level), b...)
			d, err := (Codec{}).DecodePage(bytes.Clone(img))
			if err != nil {
				continue
			}
			n := d.(*Node)
			if n.Len() > len(b) {
				t.Fatalf("level %d: %d entries out of %d bytes", level, n.Len(), len(b))
			}
			for i := 0; i < n.Len(); i++ {
				_ = n.entry(i)
			}
			again, _ := (Codec{}).AppendPage(nil, n)
			if size := n.EncodedSize(); size != len(again) {
				t.Fatalf("level %d: encoded size %d, image %d bytes", level, size, len(again))
			}
			d, err = (Codec{}).DecodePage(bytes.Clone(again))
			if err != nil {
				t.Fatalf("level %d: image %x decodes to a node whose image %x does not decode: %v", level, img, again, err)
			}
			if got, _ := (Codec{}).AppendPage(nil, d); !bytes.Equal(got, again) {
				t.Fatalf("level %d: image %x decodes to itself as %x", level, again, got)
			}
		}
	})
}
