package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/latch"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// An update logs one XOR delta of the old and new values (kinds.go). These
// tests hold the three paths that apply one — redo, the CLR of page-oriented
// undo, logical undo — to values that shrink, vanish and grow back, across a
// crash at every log prefix, a split between two updates and a bounded
// pool's replay, and hold the record to its size.

// deltaValue is generation gen of a value n bytes long, nil for 0; two
// generations differ in every byte.
func deltaValue(gen byte, n int) []byte {
	if n == 0 {
		return nil
	}
	v := make([]byte, n)
	for i := range v {
		v[i] = gen*13 + byte(i)
	}
	return v
}

// deltaLens are the lengths a transaction's updates give one key, from the
// committed value's 100 bytes.
var deltaLens = []int{7, 0, 100}

// undoModes are the two record-undo disciplines.
var undoModes = []struct {
	name string
	e    engine.Options
}{{"logical", engine.Options{}}, {"page-oriented", engine.Options{PageOriented: true}}}

// updateChain updates key once per deltaLens under tx, the values of
// generations gen, gen+1, … It returns the last value.
func updateChain(t *testing.T, tree *Tree, tx *txn.Txn, key keys.Key, gen byte) []byte {
	t.Helper()
	var v []byte
	for i, n := range deltaLens {
		v = deltaValue(gen+byte(i), n)
		if err := tree.Update(tx, key, v); err != nil {
			t.Fatalf("update of generation %d: %v", gen+byte(i), err)
		}
	}
	return v
}

// valueOf reads key, which must be present.
func (fx *fixture) valueOf(t *testing.T, key keys.Key) []byte {
	t.Helper()
	v, ok, err := fx.tree.Search(nil, key)
	if err != nil || !ok {
		t.Fatalf("key %d: found=%v, %v", keys.ToUint64(key), ok, err)
	}
	return v
}

// TestUpdateDeltaCrashAtEveryPrefix: a transaction that updates one key
// through 100 → 7 → 0 → 100 bytes and commits, one that does the same and
// rolls back at run time, and one that does it and is open at the crash.
// Restart from every prefix of that log, under both undo disciplines,
// leaves the key at its last committed value — and so does one from page
// images flushed halfway through another key's updates.
func TestUpdateDeltaCrashAtEveryPrefix(t *testing.T) {
	for _, mode := range undoModes {
		t.Run(mode.name, func(t *testing.T) {
			fx := newFixture(t, mode.e, defaultTestOpts())
			key := keys.Uint64(5)
			for k := uint64(0); k < 16; k++ {
				if err := fx.tree.Insert(nil, keys.Uint64(k), deltaValue(0, 100)); err != nil {
					t.Fatal(err)
				}
			}
			from := fx.e.Log.EndLSN()
			tx := fx.e.TM.Begin()
			last := updateChain(t, fx.tree, tx, key, 1)
			commitFrom := fx.e.Log.EndLSN()
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			committed := fx.e.Log.EndLSN()
			tx = fx.e.TM.Begin()
			updateChain(t, fx.tree, tx, key, 4)
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			if got := fx.valueOf(t, key); !bytes.Equal(got, last) {
				t.Fatalf("after the run-time rollback the key holds %x, want %x", got, last)
			}
			updateChain(t, fx.tree, fx.e.TM.Begin(), key, 7)
			if err := fx.e.Log.ForceAll(); err != nil {
				t.Fatal(err)
			}

			cuts := 0
			for _, cut := range fx.e.Log.FullImage().Boundaries() {
				if cut < from {
					continue
				}
				if cut > commitFrom && cut < committed {
					t.Fatalf("a record boundary at %d inside the commit record [%d, %d)", cut, commitFrom, committed)
				}
				want := deltaValue(0, 100)
				if cut >= committed {
					want = last
				}
				fx2 := fx.crashRestart(t, &cut)
				fx2.mustVerify(t)
				if got := fx2.valueOf(t, key); !bytes.Equal(got, want) {
					t.Fatalf("cut at %d: the key holds %x, want %x", cut, got, want)
				}
				cuts++
			}
			if cuts < 3*len(deltaLens) {
				t.Fatalf("only %d crash points", cuts)
			}

			// And from a page image flushed between two same-length updates
			// of another key: restart redo passes the delta below the
			// image's pageLSN by on the pageLSN test, which is all that keeps
			// it from being applied twice, and applies the other.
			other, lastOther := keys.Uint64(6), deltaValue(11, 100)
			if err := fx.tree.Update(nil, other, deltaValue(10, 100)); err != nil {
				t.Fatal(err)
			}
			if _, err := fx.e.FlushAll(); err != nil {
				t.Fatal(err)
			}
			for _, p := range fx.e.Pools() {
				if err := p.Disk().Sync(); err != nil {
					t.Fatal(err)
				}
			}
			if err := fx.tree.Update(nil, other, lastOther); err != nil {
				t.Fatal(err)
			}
			if err := fx.e.Log.ForceAll(); err != nil {
				t.Fatal(err)
			}
			fx2 := fx.crashRestart(t, nil)
			fx2.mustVerify(t)
			if got := fx2.valueOf(t, key); !bytes.Equal(got, last) {
				t.Fatalf("restart over flushed pages: the key holds %x, want %x", got, last)
			}
			if got := fx2.valueOf(t, other); !bytes.Equal(got, lastOther) {
				t.Fatalf("restart over flushed pages: key 6 holds %x, want %x", got, lastOther)
			}
		})
	}
}

// leafOf returns the page of the leaf that holds key now.
func (fx *fixture) leafOf(t testing.TB, key keys.Key) storage.PageID {
	t.Helper()
	o := fx.tree.kern.NewOp(nil)
	defer o.Done()
	leaf, err := fx.tree.descendTo(o, key, 0, latch.S, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Release(&leaf)
	return leaf.Pid()
}

// TestUpdateDeltaRollbackAcrossSplit: a transaction updates a key, a split
// moves the key's record to a new leaf, the transaction updates it again
// there, and rolls back — at run time, or by restart. Under logical undo
// others' inserts split the leaf and the undo of the first update finds the
// record where it went; under page-oriented undo the transaction's own
// inserts split it, and the split's undo brings the record back.
func TestUpdateDeltaRollbackAcrossSplit(t *testing.T) {
	for _, mode := range undoModes {
		for _, restart := range []bool{false, true} {
			name := mode.name + "/abort"
			if restart {
				name = mode.name + "/restart"
			}
			t.Run(name, func(t *testing.T) {
				fx := newFixture(t, mode.e, slimOpts())
				for k := uint64(0); k < 400; k += 10 {
					v := val(int(k))
					if k == 210 {
						v = deltaValue(0, 100)
					}
					if err := fx.tree.Insert(nil, keys.Uint64(k), v); err != nil {
						t.Fatal(err)
					}
				}
				fx.tree.DrainCompletions()
				key := keys.Uint64(210)
				tx := fx.e.TM.Begin()
				if err := fx.tree.Update(tx, key, deltaValue(1, 7)); err != nil {
					t.Fatal(err)
				}
				// The key is its leaf's second; inserts just below it push it
				// into the upper half, which the next split moves.
				var inserter *txn.Txn
				if mode.e.PageOriented {
					inserter = tx
				}
				want := fx.contents(t)
				want[210] = string(deltaValue(0, 100))
				page := fx.leafOf(t, key)
				for k := uint64(209); fx.leafOf(t, key) == page; k-- {
					if k == 200 {
						t.Fatal("no split moved the key")
					}
					if err := fx.tree.Insert(inserter, keys.Uint64(k), val(int(k))); err != nil {
						t.Fatal(err)
					}
					fx.tree.DrainCompletions()
					if inserter == nil {
						want[k] = string(val(int(k)))
					}
				}
				if err := fx.tree.Update(tx, key, nil); err != nil {
					t.Fatal(err)
				}
				if err := fx.tree.Update(tx, key, deltaValue(2, 100)); err != nil {
					t.Fatal(err)
				}
				if restart {
					if err := fx.e.Log.ForceAll(); err != nil {
						t.Fatal(err)
					}
					fx = fx.crashRestart(t, nil)
				} else if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
				fx.mustVerify(t)
				sameContents(t, "after the rollback", fx.contents(t), want)
			})
		}
	}
}

// TestUpdateDeltaReplay: a bounded pool drops leaves whose chains since
// their stable images are update deltas, and rebuilds them by replaying the
// deltas — values that shrink and then grow back — on the next fetch; a
// restart then redoes the same deltas from the log.
func TestUpdateDeltaReplay(t *testing.T) {
	fx := newFixture(t, engine.Options{PoolCapacity: 12}, Options{LeafCapacity: 8, IndexCapacity: 8, SyncCompletion: true})
	const n = 500
	for k := uint64(0); k < n; k++ {
		if err := fx.tree.Insert(nil, keys.Uint64(k), deltaValue(byte(k), 100)); err != nil {
			t.Fatal(err)
		}
	}
	fx.tree.DrainCompletions()
	if _, err := fx.e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pool := fx.tree.store.Pool
	base := pool.Stats()
	// Updates in a scattered order touch each leaf once before the pool
	// evicts it: its chain holds one or two deltas when it is dropped.
	want := map[uint64][]byte{}
	for gen, size := range []int{7, 100} {
		for i := uint64(0); i < n; i++ {
			k := i * 7919 % n
			want[k] = deltaValue(byte(k)+byte(gen+1), size)
			if err := fx.tree.Update(nil, keys.Uint64(k), want[k]); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(fx *fixture, label string) {
		t.Helper()
		for k, w := range want {
			if got := fx.valueOf(t, keys.Uint64(k)); !bytes.Equal(got, w) {
				t.Fatalf("%s: key %d holds %x, want %x", label, k, got, w)
			}
		}
	}
	check(fx, "after the replays")
	s := pool.Stats()
	if s.Elisions == base.Elisions || s.Replays == base.Replays || s.ReplayedRecords == base.ReplayedRecords {
		t.Fatalf("no update chain was elided and replayed: %+v, from %+v", s, base)
	}
	// The updates are atomic actions, whose commits do not force the log
	// (§4.3.1): force it, or the crash loses what no page write forced.
	if err := fx.e.Log.ForceAll(); err != nil {
		t.Fatal(err)
	}
	fx2 := fx.crashRestart(t, nil)
	fx2.mustVerify(t)
	check(fx2, "after restart")
}

// TestUpdateRecordsStaySmall: an update of a 100-byte value to another
// logs at most the key, the 100 bytes and 16 more; one that changes a byte
// logs that byte and its key and lengths, whatever the value's size.
func TestUpdateRecordsStaySmall(t *testing.T) {
	fx := newFixture(t, engine.Options{}, defaultTestOpts())
	rng := rand.New(rand.NewSource(38))
	random := func() []byte {
		v := make([]byte, 100)
		rng.Read(v)
		return v
	}
	key := keys.Uint64(77)
	if err := fx.tree.Insert(nil, key, random()); err != nil {
		t.Fatal(err)
	}
	next := random()
	oneByte := bytes.Clone(next)
	oneByte[50] ^= 0xff
	for _, c := range []struct {
		name  string
		value []byte
		limit int
	}{
		{"every byte new", next, len(key) + 100 + 16},
		{"one byte new", oneByte, len(key) + 1 + 16},
	} {
		from := fx.e.Log.EndLSN()
		if err := fx.tree.Update(nil, key, c.value); err != nil {
			t.Fatal(err)
		}
		var size int
		fx.e.Log.FullImage().Scan(from, func(r wal.Record) bool {
			if r.Kind == KindUpdateRecord {
				size = len(r.Payload)
			}
			return true
		})
		if size == 0 || size > c.limit {
			t.Errorf("%s: the update logged %d payload bytes, limit %d", c.name, size, c.limit)
		}
	}
}

// deltaRun is one run of a delta: old ⊕ new at off.
type deltaRun struct {
	off int
	x   []byte
}

// runsOf lists d's runs at their offsets in the value.
func runsOf(d valueDelta) []deltaRun {
	var out []deltaRun
	at := 0
	for p := d.Runs; len(p) > 0; {
		gap, n := binary.Uvarint(p)
		l, m := binary.Uvarint(p[n:])
		p = p[n+m:]
		at += int(gap)
		out = append(out, deltaRun{at, p[:l]})
		at += int(l)
		p = p[l:]
	}
	return out
}

// TestUpdatePayloadOneAllocation: an update's payload is built in one
// allocation sized for it — for a value whose rewrite changes a few bytes,
// one rewritten whole, one that grows and one that shrinks — and holds the
// bytes appendUpdate makes.
func TestUpdatePayloadOneAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	old := make([]byte, 100)
	rng.Read(old)
	few := bytes.Clone(old)
	for i := 7; i < len(few); i += 9 {
		few[i]++
	}
	whole := make([]byte, 100)
	rng.Read(whole)
	key := keys.Uint64(12345)
	for _, new := range [][]byte{few, whole, append(bytes.Clone(old), whole[:60]...), old[:30]} {
		if got, want := updatePayload(key, old, new), appendUpdate(nil, key, old, new); !bytes.Equal(got, want) {
			t.Fatalf("payload %x, want %x", got, want)
		}
		if a := testing.AllocsPerRun(100, func() { updatePayload(key, old, new) }); a != 1 {
			t.Fatalf("%d-byte value to %d bytes: %v allocations, want 1", len(old), len(new), a)
		}
	}
}

// TestUpdateDeltaRuns: an update logs old ⊕ new as runs of the bytes it
// changed. A zero gap of one or two bytes stays inside a run, one of three
// splits it; a value that grows or shrinks logs the bytes past the shorter
// one. Each delta decodes to the runs it was made of, re-encodes to the
// same bytes, turns the old value into the new and, inverted, back.
func TestUpdateDeltaRuns(t *testing.T) {
	abc := []byte("abcdefgh")
	with := func(v []byte, at ...int) []byte {
		v = bytes.Clone(v)
		for _, i := range at {
			v[i] ^= 0x5a
		}
		return v
	}
	// The benchmark's value (workloadValue). A rewrite whose sequence
	// number changes in its last byte changes that byte of the seq word
	// and of each filler word, and the CRC: ten one-byte runs, then the
	// last filler byte and the CRC as one.
	oldValue, newValue := workloadValue(7, 0x41), workloadValue(7, 0x42)
	var valueRuns []deltaRun
	for i := 15; i < 95; i += 8 {
		valueRuns = append(valueRuns, deltaRun{i, []byte{0x41 ^ 0x42}})
	}
	crcRun := []byte{0x41 ^ 0x42}
	for i := 96; i < 100; i++ {
		crcRun = append(crcRun, oldValue[i]^newValue[i])
	}
	valueRuns = append(valueRuns, deltaRun{95, crcRun})
	for _, c := range []struct {
		name     string
		old, new []byte
		want     []deltaRun
	}{
		{"equal", abc, abc, nil},
		{"both empty", nil, nil, nil},
		{"one byte", abc, with(abc, 3), []deltaRun{{3, []byte{0x5a}}}},
		{"first and last byte", abc, with(abc, 0, 7), []deltaRun{{0, []byte{0x5a}}, {7, []byte{0x5a}}}},
		{"grow", abc[:3], abc, []deltaRun{{3, []byte("defgh")}}},
		{"shrink", abc, abc[:3], []deltaRun{{3, []byte("defgh")}}},
		{"to empty", abc[:2], nil, []deltaRun{{0, []byte("ab")}}},
		{"gap of 1", abc, with(abc, 1, 3), []deltaRun{{1, []byte{0x5a, 0, 0x5a}}}},
		{"gap of 2", abc, with(abc, 1, 4), []deltaRun{{1, []byte{0x5a, 0, 0, 0x5a}}}},
		{"gap of 3", abc, with(abc, 1, 5), []deltaRun{{1, []byte{0x5a}}, {5, []byte{0x5a}}}},
		{"the benchmark's value rewritten", oldValue, newValue, valueRuns},
	} {
		key := keys.Uint64(9)
		p := appendUpdate(nil, key, c.old, c.new)
		d, err := decUpdate(p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := runsOf(d); len(got) != len(c.want) {
			t.Errorf("%s: runs %v, want %v", c.name, got, c.want)
		} else {
			for i := range got {
				if got[i].off != c.want[i].off || !bytes.Equal(got[i].x, c.want[i].x) {
					t.Errorf("%s: runs %v, want %v", c.name, got, c.want)
					break
				}
			}
		}
		if again := appendDelta(nil, d); !bytes.Equal(again, p) {
			t.Errorf("%s: %x re-encodes as %x", c.name, p, again)
		}
		if v, err := d.apply(nil, c.old); err != nil || !bytes.Equal(v, c.new) {
			t.Errorf("%s: the delta makes %q of %q (%v), want %q", c.name, v, c.old, err, c.new)
		}
		if v, err := d.inverse().apply(nil, c.new); err != nil || !bytes.Equal(v, c.old) {
			t.Errorf("%s: its inverse makes %q of %q (%v), want %q", c.name, v, c.new, err, c.old)
		}
	}
	// That rewrite logs its fifteen changed bytes and a two-byte header
	// for each of its eleven runs: the key, two lengths and 37 bytes.
	if p := appendUpdate(nil, keys.Uint64(9), oldValue, newValue); len(p) != 1+8+2+37 {
		t.Errorf("the benchmark's rewritten value logs %d payload bytes, want %d", len(p), 1+8+2+37)
	}
	// Runs appendUpdate never writes are refused: each of these would
	// decode to a delta that re-encodes to other bytes, or reach past the
	// value.
	for _, c := range []struct {
		name string
		runs []byte // after 8 -> 8
	}{
		{"runs two zeros apart", []byte{1, 1, 7, 2, 1, 7}},
		{"a run starting at a zero", []byte{1, 2, 0, 7}},
		{"a run ending at a zero", []byte{1, 2, 7, 0}},
		{"three zeros inside a run", []byte{0, 5, 7, 0, 0, 0, 7}},
		{"an empty run", []byte{1, 0}},
		{"a run past the value", []byte{6, 3, 7, 7, 7}},
		{"a gap past the value", []byte{9, 1, 7}},
		{"a run cut short", []byte{1, 3, 7}},
		{"a non-minimal gap", []byte{0x81, 0x00, 1, 7}},
	} {
		p := append(appendUpdate(nil, keys.Uint64(9), abc, abc), c.runs...)
		if d, err := decUpdate(p); err == nil {
			t.Errorf("%s: %x decodes to runs %v", c.name, c.runs, runsOf(d))
		}
	}
}
