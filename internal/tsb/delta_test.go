package tsb

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/enc"
	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// putValue is a value of size bytes that differs between generations of a
// key in a few bytes.
func putValue(k uint64, gen, size int) []byte {
	v := bytes.Repeat([]byte{byte('a' + k%26)}, size)
	for i := gen % 5; i < size; i += 17 {
		v[i] = byte(gen)
	}
	return v
}

// TestPutDeltaRedo: puts logged as deltas from the version they supersede
// rebuild exact values when a bounded pool replays the chains of the leaves
// it dropped unwritten, and again when a restart redoes them from the log.
// Every kind of predecessor is logged and checked: the same transaction's
// uncommitted version, a version a time split carried into the current
// node, values that grow and shrink; beside them the literal forms — a
// key's first put, also after a key split, a tombstone, a put after a
// tombstone and one whose value shrank or grew too far for a delta to be
// shorter.
func TestPutDeltaRedo(t *testing.T) {
	fx := newEngineFixture(t, engine.Options{PoolCapacity: 12}, smallOpts())
	tree := fx.tree
	type version struct {
		at      uint64 // the clock after the put committed
		val     []byte
		deleted bool
	}
	model := map[uint64][]version{}
	forms := map[string]int{}
	// classify reads each put logged since from against the node it went
	// to, where its version and its predecessor still are: the log holds
	// what appendPut writes for them, a delta only where it is shorter than
	// the literal.
	classify := func(from wal.LSN) {
		t.Helper()
		fx.e.Log.FullImage().Scan(from, func(r wal.Record) bool {
			if r.Type != wal.RecUpdate || r.Kind != KindPut {
				return true
			}
			p, err := decPut(r.Payload, r.TxnID)
			if err != nil {
				t.Fatal(err)
			}
			if p.Deleted {
				forms["tombstone"]++
				return true
			}
			f, err := tree.store.Pool.Fetch(storage.PageID(r.PageID))
			if err != nil {
				t.Fatal(err)
			}
			defer tree.store.Pool.Unpin(f)
			n := f.Data.(*Node)
			i, ok := n.versionPos(p.Key, p.Start)
			if !ok {
				t.Fatalf("put at LSN %d: its version is not in its node", r.LSN)
			}
			e := p.Entry
			e.Value = n.entry(i).Value
			var pred *Entry
			if i > 0 && keys.Equal(n.keyAt(i-1), p.Key) {
				pe := n.entry(i - 1)
				pred = &pe
			}
			if want := appendPut(nil, e, r.TxnID, pred); !bytes.Equal(r.Payload, want) {
				t.Fatalf("put at LSN %d logged %x; appendPut writes %x over its predecessor %+v", r.LSN, r.Payload, want, pred)
			}
			switch {
			case pred == nil && tree.Stats.KeySplits.Load() > 0 && keys.ToUint64(p.Key) >= 1000:
				forms["first after a key split"]++
			case pred == nil:
				forms["first"]++
			case p.back == 0 && pred.Deleted:
				forms["literal after a tombstone"]++
			case p.back == 0 && len(pred.Value) > len(e.Value):
				forms["literal, shrunk far"]++
			case p.back == 0:
				forms["literal, grown far"]++
			case pred.Txn != 0 && pred.Txn == p.Txn:
				forms["after its own uncommitted version"]++
			case pred.Start < n.Rect.TimeLow:
				forms["after a carried version"]++
			case p.delta.From < p.delta.To:
				forms["growing"]++
			case p.delta.From > p.delta.To:
				forms["shrinking"]++
			}
			return true
		})
	}
	write := func(tx *txn.Txn, k uint64, v []byte, del bool) {
		t.Helper()
		from := fx.e.Log.EndLSN()
		var err error
		if del {
			v, err = nil, tree.Delete(tx, keys.Uint64(k))
		} else {
			err = tree.Put(tx, keys.Uint64(k), v)
		}
		if err != nil {
			t.Fatal(err)
		}
		if tx == nil {
			model[k] = append(model[k], version{at: tree.Now(), val: v, deleted: del})
		}
		classify(from)
	}

	const n = 200
	for i := uint64(0); i < n; i++ {
		write(nil, i*7919%n, putValue(i*7919%n, 0, 100), false)
	}
	if _, err := fx.e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	base := tree.store.Pool.Stats()
	for gen, size := range []int{7, 100, 40, 100, 3, 100, 96} {
		for i := uint64(0); i < n; i++ {
			k := i * 7919 % n
			write(nil, k, putValue(k, gen+1, size), gen == 1 && k%7 == 0)
		}
	}
	// One transaction puts keys twice: the second put's predecessor is the
	// first, uncommitted.
	tx := fx.e.TM.Begin()
	var mine []uint64
	for k := uint64(0); k < n; k += 11 {
		write(tx, k, putValue(k, 20, 50), false)
		write(tx, k, putValue(k, 21, 60), false)
		mine = append(mine, k)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, k := range mine {
		model[k] = append(model[k], version{at: tree.Now(), val: putValue(k, 21, 60)})
	}
	for k := uint64(1000); k < 1040; k++ {
		write(nil, k, putValue(k, 0, 30), false)
	}
	for _, form := range []string{"first", "first after a key split", "tombstone", "literal after a tombstone",
		"literal, shrunk far", "literal, grown far", "after its own uncommitted version", "after a carried version",
		"growing", "shrinking"} {
		if forms[form] == 0 {
			t.Errorf("no put logged %s: %v", form, forms)
		}
	}
	if s := tree.Stats.TimeSplits.Load(); s == 0 {
		t.Fatal("no time split")
	}

	check := func(tree *Tree, label string) {
		t.Helper()
		for k, vs := range model {
			for _, v := range vs {
				got, found, err := tree.GetAsOf(nil, keys.Uint64(k), v.at)
				if err != nil || found == v.deleted || !bytes.Equal(got, v.val) {
					t.Fatalf("%s: key %d as of %d = %x (found %v, %v), want %x (deleted %v)", label, k, v.at, got, found, err, v.val, v.deleted)
				}
			}
		}
	}
	check(tree, "after the pool's replays")
	s := tree.store.Pool.Stats()
	if s.Elisions == base.Elisions || s.Replays == base.Replays {
		t.Fatalf("no leaf was elided and replayed: %+v, from %+v", s, base)
	}
	last := tree.Now()
	// The puts are atomic actions, whose commits do not force the log
	// (§4.3.1): force it, or the crash loses what no page write forced.
	if err := fx.e.Log.ForceAll(); err != nil {
		t.Fatal(err)
	}
	fx2 := fx.crashRestart(t)
	fx2.mustVerify(t)
	check(fx2.tree, "after restart")
	if now := fx2.tree.Now(); now < last {
		t.Fatalf("the clock restarts at %d, below %d: the commit stamps were not read", now, last)
	}
}

// TestPutDeltaNeedsItsPredecessor: redo of a put whose delta names a
// version its node does not hold, or one of another length, fails with an
// error and leaves the node as it was.
func TestPutDeltaNeedsItsPredecessor(t *testing.T) {
	reg := storage.NewRegistry()
	Register(reg)
	h, err := reg.Handler(KindPut)
	if err != nil {
		t.Fatal(err)
	}
	k := keys.Uint64(4)
	pred := Entry{Key: k, Start: 5, Value: []byte("predecessor")}
	e := Entry{Key: k, Start: 9, Value: []byte("predecessor's"), Txn: 3}
	rec := &wal.Record{Type: wal.RecUpdate, Kind: KindPut, TxnID: 3, Payload: appendPut(nil, e, 3, &pred)}
	if !IsPutDelta(rec.Payload) {
		t.Fatalf("payload %x is no delta", rec.Payload)
	}
	for name, held := range map[string][]Entry{
		"no version of the key": nil,
		"another start":         {{Key: k, Start: 4, Value: pred.Value}},
		"another length":        {{Key: k, Start: 5, Value: []byte("pred")}},
	} {
		n := &Node{}
		n.setEntries(held...)
		before := encNodeImage(n)
		err := h.Redo(&storage.Frame{Data: n}, rec)
		if err == nil || !bytes.Equal(encNodeImage(n), before) {
			t.Fatalf("%s: redo returned %v and left %x of %x", name, err, encNodeImage(n), before)
		}
		if name != "another length" && !errors.Is(err, errBadPut) || name == "another length" && !errors.Is(err, enc.ErrBadDelta) {
			t.Fatalf("%s: redo returned %v", name, err)
		}
	}
	n := &Node{}
	n.setEntries(pred)
	if err := h.Redo(&storage.Frame{Data: n}, rec); err != nil {
		t.Fatal(err)
	}
	if i, ok := n.versionPos(k, 9); !ok || !bytes.Equal(n.recs.At(i), appendVersion(nil, e)) {
		t.Fatalf("redo over its predecessor made %x, want %x", n.recs.At(i), appendVersion(nil, e))
	}
}

// TestPutLogsNoMoreThanItsLiteral: a put over a predecessor logs no more
// bytes than its literal form, whose size does not depend on the
// predecessor; a delta only where it is shorter.
func TestPutLogsNoMoreThanItsLiteral(t *testing.T) {
	k := keys.Uint64(4)
	long := bytes.Repeat([]byte("0123456789abcdef"), 256)
	for _, c := range []struct {
		name      string
		old, new  []byte
		oldGone   bool
		wantDelta bool
	}{
		{"a long value shrunk to ten bytes", long, long[:10], false, false},
		{"a long value shrunk by a few bytes", long, long[:len(long)-3], false, true},
		{"a long value with one byte changed", long, append(bytes.Clone(long[:100]), append([]byte{'x'}, long[101:]...)...), false, true},
		{"a short value grown long", long[:3], long[:100], false, false},
		{"a value after a tombstone", nil, long[:100], true, false},
		{"an empty value", long[:10], nil, false, false},
	} {
		pred := Entry{Key: k, Start: 5, Value: c.old, Deleted: c.oldGone}
		e := Entry{Key: k, Start: 9, Value: c.new, Txn: 3}
		got, literal := appendPut(nil, e, 3, &pred), appendPut(nil, e, 3, nil)
		if len(got) > len(literal) || IsPutDelta(got) != c.wantDelta {
			t.Errorf("%s: logged %d bytes (delta %v), the literal %d", c.name, len(got), IsPutDelta(got), len(literal))
		}
	}
}
