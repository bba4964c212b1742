package enc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// testLayout is a record of a byte string and a fixed trailer, like a
// tree's entry; rec builds one.
var testLayout = Layout{Var, 3}

func rec(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return append(AppendField(nil, b), 1, 2, 3)
}

// strLen is the length of the string at the head of record r.
func strLen(r []byte) int {
	s, _ := Field(r, 0)
	return len(s)
}

// sizeClass is what the allocator rounds n bytes up to.
func sizeClass(n int) int { return cap(append([]byte(nil), make([]byte, n)...)) }

func check(t *testing.T, step int, r *Records, model [][]byte) {
	t.Helper()
	if r.Len() != len(model) {
		t.Fatalf("step %d: %d records, model has %d", step, r.Len(), len(model))
	}
	size := 0
	for i, want := range model {
		if got := r.At(i); !bytes.Equal(got, want) {
			t.Fatalf("step %d: record %d is %x, model has %x", step, i, got, want)
		}
		size += len(want)
	}
	if r.Size() != size {
		t.Fatalf("step %d: Size %d, the model's records take %d", step, r.Size(), size)
	}
	if !bytes.Equal(r.AppendTo(nil), bytes.Join(model, nil)) {
		t.Fatalf("step %d: AppendTo differs from the model's records in order", step)
	}
	if holes := len(r.buf) - size; holes > size {
		t.Fatalf("step %d: %d bytes of holes beside %d live", step, holes, size)
	}
}

// exact asserts that r holds nothing but its records: a buffer of their
// size, up to the allocator's rounding.
func exact(t *testing.T, step int, what string, r *Records) {
	t.Helper()
	if len(r.buf) != r.size || cap(r.buf) > sizeClass(r.size) {
		t.Fatalf("step %d: %s left a buffer of len %d cap %d for %d live bytes (size class %d)",
			step, what, len(r.buf), cap(r.buf), r.size, sizeClass(r.size))
	}
	if cap(r.slots) > sizeClass(8*len(r.slots))/8 {
		t.Fatalf("step %d: %s left a slot table of cap %d for %d records", step, what, cap(r.slots), len(r.slots))
	}
}

// TestRecordsModel drives seeded Insert / Replace (same and other length) /
// Delete / Slice / Pick / Clone / AppendTo → Load against a [][]byte model.
func TestRecordsModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r Records
		var model [][]byte
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(20); {
			case op < 8 || len(model) == 0:
				i, b := rng.Intn(len(model)+1), rec(rng, rng.Intn(60))
				r.Insert(i, b)
				model = append(model[:i], append([][]byte{b}, model[i:]...)...)
			case op < 11:
				i := rng.Intn(len(model))
				b := rec(rng, strLen(model[i])) // the length it has: in place
				before := &r.buf[r.slots[i].off]
				r.Replace(i, b)
				if &r.buf[r.slots[i].off] != before {
					t.Fatalf("seed %d step %d: a same-length Replace moved the record", seed, step)
				}
				model[i] = b
			case op < 13:
				i, b := rng.Intn(len(model)), rec(rng, rng.Intn(60))
				r.Replace(i, b)
				model[i] = b
			case op < 17:
				i := rng.Intn(len(model))
				before := len(r.buf) - r.size
				r.Delete(i)
				model = append(model[:i], model[i+1:]...)
				if len(r.buf)-r.size < before { // the holes shrank: a repack
					exact(t, step, "the repack in Delete", &r)
				}
			case op == 17: // a split: the tail to a sibling, the head stays
				mid := rng.Intn(len(model) + 1)
				tail := r.Slice(mid, r.Len())
				r = r.Slice(0, mid)
				exact(t, step, "Slice (tail)", &tail)
				exact(t, step, "Slice (head)", &r)
				check(t, step, &tail, model[mid:])
				model = model[:mid:mid]
			case op == 18: // every other record, as a time split picks
				var idx []int
				var want [][]byte
				for i := rng.Intn(2); i < len(model); i += 2 {
					idx, want = append(idx, i), append(want, model[i])
				}
				p := r.Pick(idx)
				exact(t, step, "Pick", &p)
				check(t, step, &p, want)
			default: // image round trip, and a clone that shares nothing
				img := r.AppendTo(nil)
				back, n, err := Load(img, r.Len(), testLayout)
				if err != nil || n != len(img) {
					t.Fatalf("seed %d step %d: Load of AppendTo: %d of %d bytes, %v", seed, step, n, len(img), err)
				}
				check(t, step, &back, model)
				c := r.Clone()
				exact(t, step, "Clone", &c)
				for i := range model {
					c.Replace(i, rec(rng, strLen(model[i])))
				}
			}
			check(t, step, &r, model)
		}
	}
}

// TestRecordsViewsAliasUntilMutation pins the aliasing rule: At aliases the
// buffer (a same-length Replace shows through it), and a record handed to
// Insert or Replace is copied (changing it afterwards changes nothing).
func TestRecordsViewsAliasUntilMutation(t *testing.T) {
	var r Records
	in := []byte("abcdef")
	r.Insert(0, in)
	in[0] = 'X'
	if got := r.At(0); string(got) != "abcdef" {
		t.Fatalf("Insert kept the caller's slice: %q", got)
	}
	view := r.At(0)
	r.Replace(0, []byte("uvwxyz"))
	if string(view) != "uvwxyz" {
		t.Fatalf("a same-length Replace did not write in place: the old view reads %q", view)
	}
	if len(view) != cap(view) {
		t.Fatal("a view has room to be appended to: it would run into the next record")
	}
}

// FuzzRecordsLoad: arbitrary bytes and counts load or fail with
// ErrTruncated; what loads lies inside the input, record for record, and
// the slot table is no longer than the input could fill.
func FuzzRecordsLoad(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	f.Add(append(rec(rng, 5), rec(rng, 0)...), 2)
	f.Add(rec(rng, 9), 3)
	f.Add([]byte{0, 1, 2, 3, 1, 1, 2, 3}, 2)          // a nil string, then an empty one
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3}, 1) // a length far past the end
	f.Add([]byte{}, 1<<31-1)
	f.Add([]byte{0x80, 0x80}, 1)                                 // a prefix cut short
	f.Add(append(bytes.Repeat([]byte{0xff}, 10), 1, 1, 2, 3), 1) // a prefix past 64 bits
	f.Fuzz(func(t *testing.T, b []byte, count int) {
		r, n, err := Load(b, count, testLayout)
		if err != nil {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("Load fails with %v, not ErrTruncated", err)
			}
			return
		}
		if r.Len() != count || n > len(b) || r.Size() != n || cap(r.slots) > len(b) {
			t.Fatalf("%d records (asked %d) in %d of %d bytes, %d slots", r.Len(), count, n, len(b), cap(r.slots))
		}
		off := 0
		for i := 0; i < r.Len(); i++ {
			got := r.At(i)
			if len(got) < 4 || !bytes.Equal(got, b[off:off+len(got)]) {
				t.Fatalf("record %d is not the input at %d", i, off)
			}
			if s, end := Field(got, 0); end+3 != len(got) || len(s) > end {
				t.Fatalf("record %d: string of %d ending at %d in a record of %d", i, len(s), end, len(got))
			}
			off += len(got)
		}
		if !bytes.Equal(r.AppendTo(nil), b[:n]) {
			t.Fatal("what was loaded does not append back as the input")
		}
	})
}

// TestRecordsReserve: after Reserve(n), n bytes of inserted records go
// into the buffer Reserve made, which is exactly that large; a Reserve
// the buffer already has room for changes nothing.
func TestRecordsReserve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var r Records
	var model [][]byte
	for i := 0; i < 5; i++ {
		model = append(model, rec(rng, 20))
		r.Insert(i, model[i])
	}
	r.Delete(2) // a hole, which Reserve keeps
	model = append(model[:2], model[3:]...)
	var batch [][]byte
	need := 0
	for i := 0; i < 8; i++ {
		batch = append(batch, rec(rng, 10+i))
		need += len(batch[i])
	}
	r.Reserve(need)
	buf := cap(r.buf)
	if want := len(r.buf) + need; buf != want && buf != sizeClass(want) {
		t.Fatalf("reserved capacity %d, want %d", buf, want)
	}
	at := &r.buf[0]
	r.Reserve(need)
	for _, b := range batch {
		r.Insert(r.Len(), b)
		model = append(model, b)
	}
	if &r.buf[0] != at {
		t.Fatal("the buffer moved while the reserved records went in")
	}
	check(t, 0, &r, model)
}

// TestRecordsGrowth: over seeded Insert / Replace / Delete sequences every
// buffer the records allocate is, when allocated, within the allocator's
// size class of the bytes it is given — plus an eighth of the live bytes
// for a repack around holes, and the holes never outgrow the live records
// (check) — and the slot table stays within the size class of the most
// records it has held: growth leaves no slack beyond the allocator's own
// rounding.
func TestRecordsGrowth(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r Records
		var model [][]byte
		var buf *byte
		most := 0
		for step := 0; step < 1500; step++ {
			switch op := rng.Intn(10); {
			case op < 6 || len(model) == 0:
				i, b := rng.Intn(len(model)+1), rec(rng, rng.Intn(200))
				r.Insert(i, b)
				model = append(model[:i], append([][]byte{b}, model[i:]...)...)
			case op < 8:
				i, b := rng.Intn(len(model)), rec(rng, rng.Intn(200))
				r.Replace(i, b)
				model[i] = b
			default:
				i := rng.Intn(len(model))
				r.Delete(i)
				model = append(model[:i], model[i+1:]...)
			}
			most = max(most, r.Len())
			check(t, step, &r, model)
			if cap(r.buf) > 0 && &r.buf[:1][0] != buf {
				buf = &r.buf[:1][0]
				if bound := sizeClass(len(r.buf) + r.size/8); cap(r.buf) > bound {
					t.Fatalf("seed %d step %d: a new buffer of cap %d for %d bytes (%d live), bound %d",
						seed, step, cap(r.buf), len(r.buf), r.size, bound)
				}
			}
			if cap(r.slots) > sizeClass(8*most)/8 {
				t.Fatalf("seed %d step %d: slot table cap %d, at most %d records so far", seed, step, cap(r.slots), most)
			}
		}
	}
}

// TestFieldPrefix: a field's prefix is the uvarint of its length plus one,
// 0 for nil, so nil and empty stay apart in one byte each; a cut prefix, a
// length past the input, a prefix past 64 bits and one longer than it
// needs fail — ErrTruncated from Load, ErrTruncated or ErrVarint from a
// Reader — and nothing panics.
func TestFieldPrefix(t *testing.T) {
	for _, c := range []struct {
		b    []byte
		want []byte
	}{
		{nil, []byte{0}},
		{[]byte{}, []byte{1}},
		{[]byte("ab"), []byte{3, 'a', 'b'}},
		{make([]byte, 126), append([]byte{127}, make([]byte, 126)...)},
		{make([]byte, 127), append([]byte{0x80, 1}, make([]byte, 127)...)},
	} {
		got := AppendField(nil, c.b)
		if !bytes.Equal(got, c.want) || FieldSize(c.b) != len(got) {
			t.Fatalf("field of %d bytes (nil %v): %x, size %d", len(c.b), c.b == nil, got[:min(len(got), 4)], FieldSize(c.b))
		}
		back, end := Field(got, 0)
		if end != len(got) || (back == nil) != (c.b == nil) || !bytes.Equal(back, c.b) {
			t.Fatalf("field of %d bytes (nil %v) read back as %d bytes (nil %v) ending at %d", len(c.b), c.b == nil, len(back), back == nil, end)
		}
		r := NewReader(got)
		if v := r.ViewField(); r.Err() != nil || (v == nil) != (c.b == nil) || r.Remaining() != 0 {
			t.Fatalf("reader: %v, nil %v, %d remaining", r.Err(), v == nil, r.Remaining())
		}
	}
	overlong := append(bytes.Repeat([]byte{0xff}, 10), 1)
	for _, c := range []struct {
		b    []byte
		want error
	}{
		{[]byte{}, ErrTruncated},
		{[]byte{0x80}, ErrTruncated},
		{[]byte{0x85, 0x80}, ErrTruncated},
		{[]byte{4, 'a', 'b'}, ErrTruncated},
		{[]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, ErrTruncated},
		{overlong, ErrVarint},
		{[]byte{0x81, 0x00}, ErrVarint},
		{[]byte{0x80, 0x80, 0x00}, ErrVarint},
	} {
		r := NewReader(c.b)
		if v := r.ViewField(); v != nil || !errors.Is(r.Err(), c.want) {
			t.Fatalf("reader over %x: %v, want %v", c.b, r.Err(), c.want)
		}
		if _, _, err := Load(append(c.b, 1, 2, 3), 1, testLayout); !errors.Is(err, ErrTruncated) {
			t.Fatalf("Load over %x: %v, want ErrTruncated", c.b, err)
		}
	}
}
