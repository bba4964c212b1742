package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/pitree/pitreetest"
)

// TestRecordBytesPerLevel: with an 8-byte key and a 100-byte value a leaf
// entry is 110 bytes on the page — key and value with their one-byte length
// prefixes — and an index term 17, key and child; and every log payload that carries
// one record is its level's page record byte for byte: an insert's and a
// delete's the leaf entry, a posting's, a removal's and a split's cut the
// index term.
func TestRecordBytesPerLevel(t *testing.T) {
	value := bytes.Repeat([]byte{'v'}, 100)
	for _, c := range []struct {
		level, size int
		rec         []byte
	}{
		{0, 110, appendLeaf(nil, keys.Uint64(7), value)},
		{1, 17, appendTerm(nil, keys.Uint64(7), 9)},
	} {
		n := &Node{Level: c.level}
		n.insertEntry(viewEntry(c.level, c.rec))
		if len(c.rec) != c.size || n.recs.Size() != c.size || !bytes.Equal(n.recs.At(0), c.rec) {
			t.Fatalf("level %d: a record of %d bytes, %d in the node, want %d", c.level, len(c.rec), n.recs.Size(), c.size)
		}
	}

	// The records of every node after every operation: a term may be posted
	// and consolidated away again between two of them, not within one.
	fx := newFixture(t, engine.Options{}, defaultTestOpts())
	records := map[string]bool{}
	do := func(op func(keys.Key, []byte) error, k int) {
		if err := op(keys.Uint64(uint64(k)), value); err != nil {
			t.Fatal(err)
		}
		fx.tree.DrainCompletions()
		nodes, _ := nodeRecords(t, fx.tree)
		for _, n := range nodes {
			for i := 0; i < n.Len(); i++ {
				records[string(n.recs.At(i))] = true
			}
		}
	}
	order := rand.New(rand.NewSource(30)).Perm(400)
	for _, k := range order {
		do(func(k keys.Key, v []byte) error { return fx.tree.Insert(nil, k, v) }, k)
	}
	for _, k := range order[:300] {
		do(func(k keys.Key, _ []byte) error { return fx.tree.Delete(nil, k) }, k)
	}
	pitreetest.PayloadsAreRecords(t, fx.e.Log, records,
		KindInsertRecord, KindDeleteRecord, KindPostIndexTerm, KindRemoveIndexTerm, KindSplitTruncate)
}

// FuzzNodeImage: arbitrary bytes behind each level's header field through
// the page codec decode to an error or to a node whose every entry can be
// viewed and whose image decodes to itself; never a panic, and never a slot
// table larger than the input could fill.
func FuzzNodeImage(f *testing.F) {
	rng := rand.New(rand.NewSource(30))
	for level := 0; level < 3; level++ {
		n, _ := randomNode(rng, level, 5)
		f.Add(encNodeImage(n)[2:])
	}
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})
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
