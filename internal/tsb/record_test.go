package tsb

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/keys"
	"repro/internal/pitree/pitreetest"
	"repro/internal/storage"
	"repro/internal/wal"
)

// TestRecordBytesPerLevel: with 8-byte keys and a 100-byte value a version
// is 127 bytes on the page — key and value with their one-byte length
// prefixes, start, tombstone mark, writer — a level-1 term 44 (child, a
// rectangle of two such keys, clipped mark) and a key term 17 (key, child); every log
// payload that carries one record is its level's page record byte for byte —
// a posting's and a removal's the term — and every logged put, redone on a
// copy of its node without the version, makes the node's record of it, in
// both of its forms.
func TestRecordBytesPerLevel(t *testing.T) {
	value := bytes.Repeat([]byte{'v'}, 100)
	rect := Rect{KeyLow: keys.Uint64(7), KeyHigh: keys.At(keys.Uint64(9)), TimeLow: 3, TimeHigh: NoEnd}
	for _, c := range []struct {
		level, size int
		rec         []byte
	}{
		{0, 127, appendVersion(nil, Entry{Key: keys.Uint64(7), Start: 3, Value: value, Txn: 5})},
		{1, 44, appendTerm(nil, Entry{Child: 9, ChildRect: rect})},
		{2, 17, appendKeyTerm(nil, keys.Uint64(7), 9)},
	} {
		n := &Node{Level: c.level}
		n.insertAt(0, viewEntry(c.level, c.rec))
		if len(c.rec) != c.size || n.recs.Size() != c.size || !bytes.Equal(n.recs.At(0), c.rec) {
			t.Fatalf("level %d: a record of %d bytes, %d in the node, want %d", c.level, len(c.rec), n.recs.Size(), c.size)
		}
	}

	// The records of every node after every operation. A posted term is not
	// clipped, and an index split may clip it later: a level-1 record also
	// counts with its mark cleared.
	fx := newFixture(t, smallOpts())
	records := map[string]bool{}
	collect := func() {
		nodes, _ := nodeRecords(t, fx.tree)
		for _, n := range nodes {
			for i := 0; i < n.Len(); i++ {
				rec := n.recs.At(i)
				records[string(rec)] = true
				if n.Level == 1 {
					records[string(append(bytes.Clone(rec[:len(rec)-1]), 0))] = true
				}
			}
		}
	}
	forms := map[bool]int{}
	for i := uint64(0); i < 8*120; i++ {
		from := fx.e.Log.EndLSN()
		// Each value differs from the base in one byte, and from the key's
		// previous version in at most two.
		v := bytes.Clone(value)
		v[i%100] = byte(i % 10)
		if err := fx.tree.Put(nil, keys.Uint64(i*7919%301), v); err != nil {
			t.Fatal(err)
		}
		fx.e.Log.FullImage().Scan(from, func(r wal.Record) bool {
			if r.Type == wal.RecUpdate && r.Kind == KindPut {
				forms[IsPutDelta(r.Payload)]++
				if got, want := redoPutOnCopy(t, fx.tree, r); !bytes.Equal(got, want) {
					t.Fatalf("put at LSN %d (%x) redone makes %x, the node holds %x", r.LSN, r.Payload, got, want)
				}
			}
			return true
		})
		fx.tree.DrainCompletions()
		collect()
	}
	if forms[true] == 0 || forms[false] == 0 {
		t.Fatalf("%d puts logged as deltas and %d as literals: want both forms", forms[true], forms[false])
	}
	if n, err := fx.tree.RunGC(); n == 0 || err != nil {
		t.Fatalf("GC retired %d nodes, err=%v", n, err)
	}
	pitreetest.PayloadsAreRecords(t, fx.e.Log, records, KindPostTerm, KindRemoveTerm, KindPostKeyTerm)
}

// redoPutOnCopy redoes the logged put r on a copy of the node it was logged
// on, with the version it put taken out again, and returns the record the
// redo makes and the node's own record of the version.
func redoPutOnCopy(t *testing.T, tree *Tree, r wal.Record) (got, want []byte) {
	t.Helper()
	p, err := decPut(r.Payload, r.TxnID)
	if err != nil {
		t.Fatal(err)
	}
	f, err := tree.store.Pool.Fetch(storage.PageID(r.PageID))
	if err != nil {
		t.Fatal(err)
	}
	defer tree.store.Pool.Unpin(f)
	n := f.Data.(*Node).clone()
	i, ok := n.versionPos(p.Key, p.Start)
	if !ok {
		t.Fatalf("put at LSN %d: page %d holds no version of key %x at %d", r.LSN, r.PageID, p.Key, p.Start)
	}
	want = bytes.Clone(n.recs.At(i))
	n.recs.Delete(i)
	e, err := p.version(n, nil)
	if err != nil {
		t.Fatalf("put at LSN %d: %v", r.LSN, err)
	}
	n.insertVersion(e)
	i, _ = n.versionPos(p.Key, p.Start)
	return n.recs.At(i), want
}

// FuzzNodeImage: arbitrary bytes behind each level's header field through
// the page codec decode to an error or to a node whose every entry can be
// viewed and whose image decodes to itself; never a panic, and never a slot
// table larger than the input could fill.
func FuzzNodeImage(f *testing.F) {
	rng := rand.New(rand.NewSource(30))
	f.Add(encNodeImage(randomDataNode(rng))[2:])
	f.Add(encNodeImage(randomIndexNode(rng, 1))[2:])
	f.Add(encNodeImage(randomIndexNode(rng, 2))[2:])
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
